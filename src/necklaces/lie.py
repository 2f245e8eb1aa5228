"""The necklace Lie bialgebra of symplectic derivations.

A derivation of the (completed) tensor algebra annihilating the symplectic
form is identified, via the pairing, with a cyclic invariant: the sum of
all rotations N(w) of a nonempty word w.  The basis consists of N(w) for w
lexicographically minimal among its rotations.  This module implements:

* basis enumeration and the global (weight-major) basis index;
* conversion between cyclic-invariant tensors and necklace coordinates;
* the action of a necklace derivation on tensors (so the bracket can be
  certified against the commutator of actions);
* the bracket in closed splice form,
  [N(x_1..x_m), N(y_1..y_n)] =
      sum_{i,j} (x_i . y_j) N(x_{i+1}..x_{i-1} y_{j+1}..y_{j-1});
* the Schedler cobracket: the double sum splitting a necklace into two
  necklaces along a symplectic pair of its letters;
* the comodule splitting mu of a word into (word, necklace) pairs, per
  word and, for the matrix assembly, for every word of a length at once.

Bracket, cobracket and mu all lower total weight by exactly 2; terms where
a factor would be the empty necklace vanish, since N kills weight 0.

The per-genus :class:`NecklaceContext` caches rotation tables and the
index-level structure constants; everything downstream (complexes,
homology, deformations) goes through it.  Besides the per-necklace memos it
keeps int64 tables, each built in one numpy pass by base-2g rank
arithmetic and sized with ``CellTooLarge`` first:

* ``necklace_of_rank(L)``: the canonical necklace of every word of length
  L, from one min-over-rotations pass on the ranks, which also yields the
  basis (``basis_words``);
* ``bracket_table(m1, m2)``: the bracket of every pair of necklaces of
  weights m1 and m2, as CSR rows over the pairs;
* ``delta_table(m)``: the cobracket of every necklace of weight m;
* ``mu_table(k)``: mu of every word of length k.

Each also takes the pairs, necklaces or word ranks to split (``local``);
those tables are sized on what they build and are not memoised.  Array
code reads every bracket through ``brackets(i, j)``, which builds a whole
``bracket_table`` only once the pairs asked of it add up to the table
(rent or buy), and splices the distinct pairs asked until then.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import words as W
from .errors import CellTooLarge, GenusMismatch, NotCyclic
from .tensors import Coeff, Tensor, TermMap, axpy, coeff_str, cyclicize, parse_coeff, _prune
from .tensors import _csr, _gather, _joined, _summed, by_total_weight, by_weight


def _as_int_if_whole(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def necklace_count(g: int, m: int) -> int:
    """Number of necklaces of length m over 2g letters (Burnside)."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _euler_phi(d) * (2 * g) ** (m // d)
    if total % m:
        raise ArithmeticError(f"Burnside sum {total} is not divisible by {m}")
    return total // m


class Necklace:
    """A cyclic word, stored as its lexicographically minimal rotation."""

    __slots__ = ("word",)

    def __init__(self, word: W.WordKey):
        word = tuple(word)
        if not word:
            raise ValueError("necklaces are nonempty")
        self.word = W.canonical_rotation(word)

    @property
    def weight(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Necklace) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __lt__(self, other: "Necklace") -> bool:
        return (self.weight, self.word) < (other.weight, other.word)

    def __repr__(self) -> str:
        return f"N({W.word_name(self.word)})"


class NecklaceContext:
    """Cached combinatorics of the genus-g necklace algebra.

    Basis necklaces carry a stable global index: weight-major, then
    lexicographic on the canonical word.  Structure constants are memoized
    at the index level with plain integer coefficients.
    """

    def __init__(self, g: int):
        if g < 1:
            raise ValueError("genus must be >= 1")
        self.g = g
        self._bases: list[list[W.WordKey]] = [[]]  # weight -> sorted canonical words
        self._offsets: list[int] = [0, 0]  # _offsets[m] = first index of weight m
        self._words_by_index: list[W.WordKey] = []
        self._index_cache: dict[W.WordKey, int] = {}
        self._bracket_memo: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._delta_memo: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._delta_word_memo: dict[W.WordKey, tuple[tuple[W.WordKey, W.WordKey, int], ...]] = {}
        self._rot_first_memo: dict[W.WordKey, dict[int, tuple[W.WordKey, ...]]] = {}
        self._neck_of_rank_memo: dict[int, np.ndarray] = {}
        self._rotations_memo: dict[int, np.ndarray] = {}
        self._bracket_table_memo: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._bracket_asked: dict[tuple[int, int], int] = {}  # distinct pairs asked, summed over calls
        self._delta_table_memo: dict[int, np.ndarray] = {}
        self._mu_table_memo: dict[int, dict[int, np.ndarray]] = {}

    # -- basis enumeration and indexing --------------------------------

    def basis_words(self, m: int) -> list[W.WordKey]:
        """Sorted canonical words of weight m (m >= 1), with every weight
        below m enumerated first.  Raises CellTooLarge, before enumerating
        anything, when the (2g)^m words of length m are over the budget."""
        if m >= len(self._bases):
            CellTooLarge.check(f"the words of length {m} (genus {self.g})", (2 * self.g) ** m)
        while len(self._bases) <= m:
            self._enumerate(len(self._bases))
        return self._bases[m]

    def _enumerate(self, m: int) -> None:
        """The basis of weight m and ``necklace_of_rank(m)``, from one
        min-over-rotations pass on the ranks of the words of length m.  A
        rank reads a word as a base-2g number, first letter most
        significant, so the lexicographically least rotation is the one of
        least rank, and the basis words are the ranks that are their own
        least rotation, in rank order."""
        base = 2 * self.g
        rank = np.arange(base**m, dtype=np.int64)
        least, rot, top = rank.copy(), rank, base ** (m - 1)
        for _ in range(m - 1):
            rot = rot % top * base + rot // top  # the first letter moved to the end
            np.minimum(least, rot, out=least)
        is_basis = least == rank
        basis_ranks = np.flatnonzero(is_basis)
        digits = basis_ranks[:, None] // base ** np.arange(m - 1, -1, -1, dtype=np.int64) % base
        basis = list(map(tuple, digits.tolist()))
        position = np.cumsum(is_basis) - 1  # the basis position of every basis rank
        self._neck_of_rank_memo[m] = self._offsets[-1] + position[least]
        self._bases.append(basis)
        self._offsets.append(self._offsets[-1] + len(basis))
        self._words_by_index.extend(basis)

    def offset(self, m: int) -> int:
        """First index of weight m: needs the bases below weight m only."""
        self.basis_words(max(m - 1, 0))
        return self._offsets[m]

    def index_of_word(self, word: W.WordKey) -> int:
        """Global index of the canonical word (must already be canonical)."""
        idx = self._index_cache.get(word)
        if idx is None:
            m = len(word)
            basis = self.basis_words(m)
            pos = bisect_left(basis, word)
            if pos == len(basis) or basis[pos] != word:
                raise ValueError(f"{word} is not a canonical basis word")
            idx = self._offsets[m] + pos
            self._index_cache[word] = idx
        return idx

    def word_at(self, idx: int) -> W.WordKey:
        if idx >= len(self._words_by_index):
            raise IndexError(f"necklace index {idx} not yet enumerated")
        return self._words_by_index[idx]

    def weight_of(self, idx: int) -> int:
        return len(self.word_at(idx))

    def weights(self, idx: np.ndarray) -> np.ndarray:
        """The weight of every index of an array of necklace indices; the
        bases up to the weight of the largest are enumerated first."""
        while idx.size and idx.max() >= self._offsets[-1]:
            self.basis_words(len(self._bases))
        return np.searchsorted(np.asarray(self._offsets[1:], dtype=np.int64), idx, side="right")

    # -- rotation tables ------------------------------------------------

    def rot_first(self, word: W.WordKey) -> dict[int, tuple[W.WordKey, ...]]:
        """Rotations of a necklace word grouped by first letter: the map
        first_letter -> tails (each rotation with its first letter cut)."""
        table = self._rot_first_memo.get(word)
        if table is None:
            raw: dict[int, list[W.WordKey]] = {}
            for a in range(len(word)):
                raw.setdefault(word[a], []).append(word[a + 1 :] + word[:a])
            table = {x: tuple(tails) for x, tails in raw.items()}
            self._rot_first_memo[word] = table
        return table

    def act_word(self, neck: W.WordKey, word: W.WordKey) -> list[tuple[W.WordKey, int]]:
        """Action of the derivation N(neck) on a word, as (word, coeff)
        pairs: the letter at each position is paired against every
        rotation's first letter and replaced by the rotation's tail."""
        rf = self.rot_first(neck)
        out = []
        for pos, y in enumerate(word):
            tails = rf.get(y ^ 1)
            if not tails:
                continue
            s = 1 if y % 2 == 1 else -1  # pairing of partner(y) with y
            pre, post = word[:pos], word[pos + 1 :]
            for tail in tails:
                out.append((pre + tail + post, s))
        return out

    # -- structure constants on canonical words --------------------------

    def bracket_words(self, wu: W.WordKey, wv: W.WordKey) -> dict[W.WordKey, int]:
        """[N(wu), N(wv)] as a map canonical word -> integer coeff."""
        acc: dict[W.WordKey, int] = {}
        rf_u = self.rot_first(wu)
        rf_v = self.rot_first(wv)
        for x, tails_x in rf_u.items():
            tails_y = rf_v.get(x ^ 1)
            if not tails_y:
                continue
            s = 1 if x % 2 == 0 else -1
            for tx in tails_x:
                for ty in tails_y:
                    splice = tx + ty
                    if not splice:
                        continue
                    k = W.canonical_rotation(splice)
                    c = acc.get(k, 0) + s
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
        return acc

    def delta_word(self, word: W.WordKey) -> tuple[tuple[W.WordKey, W.WordKey, int], ...]:
        """Schedler cobracket of N(word) in wedge coordinates:
        ((wa, wb, coeff), ...) with wa < wb in the basis order, meaning the
        sum of coeff * (N_a ^ N_b); the raw antisymmetric tensor carries
        coeff on (wa, wb) and -coeff on (wb, wa)."""
        memo = self._delta_word_memo.get(word)
        if memo is not None:
            return memo
        acc: dict[tuple[W.WordKey, W.WordKey], int] = {}
        m = len(word)
        for ii in range(m):
            x = word[ii]
            want = x ^ 1
            s = 1 if x % 2 == 0 else -1
            for jj in range(ii + 1, m):
                if word[jj] != want:
                    continue
                left = word[ii + 1 : jj]
                right = word[jj + 1 :] + word[:ii]
                if not left or not right:
                    continue
                la = W.canonical_rotation(left)
                ra = W.canonical_rotation(right)
                ka, kb = (len(la), la), (len(ra), ra)
                if ka < kb:
                    key, c = (la, ra), s
                elif kb < ka:
                    key, c = (ra, la), -s
                else:
                    continue
                acc[key] = acc.get(key, 0) + c
        memo = tuple(
            (a, b, c)
            for (a, b), c in sorted(
                acc.items(), key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1])
            )
            if c
        )
        if m <= 12:
            self._delta_word_memo[word] = memo
        return memo

    def mu_word(self, word: W.WordKey) -> list[tuple[W.WordKey, W.WordKey, int]]:
        """mu of a basis word: list of (word, canonical necklace, coeff).

        Each symplectic pair of letters at positions i < j is cut out; what
        was between them becomes a necklace, the outside stays a word."""
        out = []
        m = len(word)
        for ii in range(m - 2):
            x = word[ii]
            want = x ^ 1
            s = 1 if x % 2 == 0 else -1
            for jj in range(ii + 2, m):  # jj = ii + 1 would cut out an empty necklace
                if word[jj] == want:
                    rest = word[:ii] + word[jj + 1 :]
                    out.append((rest, W.canonical_rotation(word[ii + 1 : jj]), s))
        return out

    # -- index-level tables for matrix assembly ---------------------------
    #
    # These are only valid in bounded-weight cells: all outputs are
    # reindexed through index_of_word, so the relevant bases must be small
    # enough to enumerate (cell assembly guarantees that).

    def bracket_idx(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """[N_i, N_j] as ((necklace index, integer coeff), ...)."""
        if i > j:
            return tuple((k, -c) for k, c in self.bracket_idx(j, i))
        memo = self._bracket_memo.get((i, j))
        if memo is None:
            words = self.bracket_words(self.word_at(i), self.word_at(j))
            acc = {self.index_of_word(w): c for w, c in words.items()}
            memo = tuple(sorted(acc.items()))
            self._bracket_memo[(i, j)] = memo
        return memo

    def delta_wedge(self, idx: int) -> tuple[tuple[int, int, int], ...]:
        """Index-level form of delta_word."""
        memo = self._delta_memo.get(idx)
        if memo is None:
            memo = tuple(
                (self.index_of_word(wa), self.index_of_word(wb), c)
                for wa, wb, c in self.delta_word(self.word_at(idx))
            )
            self._delta_memo[idx] = memo
        return memo

    # -- rank-level tables: every word of a length at once -------------------
    #
    # A word of length k is indexed by its rank, the base-2g number with its
    # first letter most significant (the ``product(range(2g), repeat=k)``
    # order).  Cutting positions ii < jj out of a word of rank r leaves
    #   inner = r // base**(k-jj) % base**(jj-ii-1)            (word[ii+1:jj])
    #   rest  = r // base**(k-ii) * base**(k-1-jj) + r % base**(k-1-jj)

    def necklace_of_rank(self, length: int) -> np.ndarray:
        """Global index of the canonical rotation of every word of the
        given length (>= 1), indexed by the word's rank; made with the basis
        of that weight (``_enumerate``)."""
        self.basis_words(length)
        return self._neck_of_rank_memo[length]

    def rotations(self, m: int, local: np.ndarray | None = None) -> np.ndarray:
        """The basis necklaces of weight m as letters, int64 of shape
        (necklaces, m, m): rotation a of necklace offset(m) + i in [i, a].
        With ``local``, only the necklaces offset(m) + local, in that order:
        read from the whole table when it is memoised, and otherwise from
        their own words, so the whole weight is not rotated."""
        table = self._rotations_memo.get(m)
        if table is None and local is not None:
            words = list(map(self.basis_words(m).__getitem__, local.tolist()))
            return _rotated(np.array(words, dtype=np.int64).reshape(-1, m))
        if table is None:
            table = _rotated(np.array(self.basis_words(m), dtype=np.int64).reshape(-1, m))
            self._rotations_memo[m] = table
        return table if local is None else table[local]

    def weight_groups(self, column: np.ndarray):
        """The entries of an array of necklace indices, grouped by weight:
        (weight, positions, index - offset(weight)) per weight present."""
        wt = self.weights(column)
        for m in np.unique(wt).tolist():
            rows = np.flatnonzero(wt == m)
            yield m, rows, column[rows] - self.offset(m)

    def _splices(self, ru: np.ndarray, rv: np.ndarray, qu: np.ndarray, qv: np.ndarray):
        """The raw bracket terms of the necklace pairs q = (ru[qu[q]],
        rv[qv[q]]), given by their rotation arrays (``rotations``): arrays
        (q, target index, sign), one per splice.  Each splice joins the
        tails of a rotation of the first necklace and a rotation of the
        second whose first letters pair; it is ranked as a word of length
        m1 + m2 - 2 and read through ``necklace_of_rank``."""
        base, m1, m2 = 2 * self.g, ru.shape[1], rv.shape[1]
        length = m1 + m2 - 2
        # rotation a of the first against rotation b of the second; an empty
        # splice (m1 = m2 = 1) is the empty necklace, which N kills
        first_u, first_v = ru[:, :, 0], rv[:, :, 0]
        hit = (first_u[qu][:, :, None] ^ 1) == first_v[qv][:, None, :]
        q, a, b = np.nonzero(hit if length else hit[:0])
        iu, iv = qu[q], qv[q]
        tail_u = ru[:, :, 1:] @ base ** np.arange(m1 - 2, -1, -1, dtype=np.int64)
        tail_v = rv[:, :, 1:] @ base ** np.arange(m2 - 2, -1, -1, dtype=np.int64)
        splice = tail_u[iu, a] * base ** (m2 - 1) + tail_v[iv, b]
        targets = self.necklace_of_rank(length)[splice] if length else splice
        sign = 1 - 2 * (first_u[iu, a] & 1)  # +1 when the first letter is an a-letter
        return q, targets, sign

    def brackets(self, i: np.ndarray, j: np.ndarray):
        """[N_i[q], N_j[q]] for each q, for two int64 arrays of necklace
        indices of one length and any weights: arrays (q, target index,
        coeff), the terms of each q those of ``bracket_idx(i[q], j[q])`` in
        index order.  Per pair of weights, the rows are gathered from the
        memoised ``bracket_table``; until it is memoised, the distinct pairs
        asked are counted, and spliced alone (``local``) until the count
        reaches the table's pairs, when the table is built if the budget
        allows.  So no sequence of calls splices more than about twice the
        pairs of the better fixed choice (rent or buy)."""
        parts = []
        for m1, rows, first in self.weight_groups(i):
            for m2, sub, second in self.weight_groups(j[rows]):
                key, c1, c2 = (m1, m2), necklace_count(self.g, m1), necklace_count(self.g, m2)
                pair, local = first[sub] * c2 + second, None
                if key not in self._bracket_table_memo:
                    asked, inverse = np.unique(pair, return_inverse=True)
                    count = self._bracket_asked[key] = self._bracket_asked.get(key, 0) + len(asked)
                    if count < c1 * c2 or c1 * c2 * m1 * m2 > CellTooLarge.BUDGET:
                        pair, local = inverse, asked
                indptr, target, coeff = self.bracket_table(m1, m2, local)
                which, at = _gather(indptr, pair)
                parts.append((rows[sub][which], target[at], coeff[at]))
        return _joined(parts, 0, 0, 0)

    def bracket_pairs(self, i: np.ndarray, j: np.ndarray):
        """``brackets(i, j)`` as CSR rows over q: (indptr, target index,
        coeff)."""
        return _csr([self.brackets(i, j)], len(i))

    def bracket_table(self, m1: int, m2: int, local: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """[N_i, N_j] for every necklace i of weight m1 and j of weight m2,
        as CSR rows over the pairs q = (i - offset(m1)) * count(m2) + (j -
        offset(m2)): (indptr, target index, coeff), int64, row q holding
        the terms of ``bracket_idx(i, j)`` in index order.  With ``local``,
        sorted distinct pairs q, only their rows, in that order, and the
        table is not memoised.  Sized first."""
        key = (m1, m2)
        table = self._bracket_table_memo.get(key) if local is None else None
        if table is None:
            c1, c2 = necklace_count(self.g, m1), necklace_count(self.g, m2)
            CellTooLarge.check(f"the bracket table of weights {m1} and {m2} (genus {self.g})",
                               (c1 * c2 if local is None else len(local)) * m1 * m2)
            q = np.arange(c1 * c2, dtype=np.int64) if local is None else local
            nu, qu = np.unique(q // c2, return_inverse=True)
            nv, qv = np.unique(q % c2, return_inverse=True)
            table = _csr([self._splices(self.rotations(m1, nu), self.rotations(m2, nv), qu, qv)], len(q))
            if local is None:
                self._bracket_table_memo[key] = table
        return table

    def delta_table(self, m: int, local: np.ndarray | None = None) -> np.ndarray:
        """The cobracket of every necklace of weight m, as int64 rows (n -
        offset(m), a, b, coeff), sorted: the rows of one necklace n are the
        terms of ``delta_wedge(n)`` in order, a < b.  With ``local``, only
        the necklaces offset(m) + local are split, and the table is not
        memoised.  Each paired pair of letter positions ii < jj splits a
        necklace into the words between and around them, ranked and read
        through ``necklace_of_rank``; the pair is swapped into index order
        with its sign flipped, and dropped when both halves are the same
        necklace."""
        table = self._delta_table_memo.get(m) if local is None else None
        if table is None:
            base = 2 * self.g
            count = necklace_count(self.g, m) if local is None else len(local)
            CellTooLarge.check(f"the cobracket table of weight {m} (genus {self.g})", count * m * m)
            if local is None:
                n, words = np.arange(count, dtype=np.int64), self.basis_words(m)
            else:
                n = np.unique(np.asarray(local, dtype=np.int64))
                words = list(map(self.basis_words(m).__getitem__, n.tolist()))
            digits = np.array(words, dtype=np.int64).reshape(-1, m)
            rank = digits @ base ** np.arange(m - 1, -1, -1, dtype=np.int64)
            parts = []
            for ii in range(m):
                # both halves nonempty: jj >= ii + 2, and jj < m - 1 when ii = 0
                for jj in range(ii + 2, min(m, m - 1 + ii)):
                    src = np.flatnonzero(digits[:, jj] == digits[:, ii] ^ 1)
                    r, inner, outer = rank[src], jj - ii - 1, m - 1 - jj + ii
                    low = base ** (m - 1 - jj)
                    left = self.necklace_of_rank(inner)[r // base ** (m - jj) % base**inner]
                    right = self.necklace_of_rank(outer)[r % low * base**ii + r // base ** (m - ii)]
                    sign = 1 - 2 * (digits[src, ii] & 1)
                    parts.append((n[src], left, right, np.where(left < right, sign, -sign)))
            src, left, right, coeff = _joined(parts, 0, 0, 0, 0)
            keep = left != right
            keys = (src[keep], np.minimum(left, right)[keep], np.maximum(left, right)[keep])
            keys, coeff = _summed(keys, coeff[keep])
            table = np.stack([*keys, coeff])
            if local is None:
                self._delta_table_memo[m] = table
        return table

    def mu_table(self, k: int, local: np.ndarray | None = None) -> dict[int, np.ndarray]:
        """mu of every word of length k, grouped by the weight m of the
        split-off necklace n: m -> int64 rows (source rank, n - offset(m),
        rank of the remaining word, coeff).  The rows of one source rank
        are the terms of ``mu_word`` of that word, up to order.  With
        ``local``, only the words of those ranks are split, and the table
        is not memoised."""
        table = self._mu_table_memo.get(k) if local is None else None
        if table is None:
            base = 2 * self.g
            count = base**k if local is None else len(local)
            CellTooLarge.check(f"the mu table of the words of length {k} (genus {self.g})",
                               count * k)
            if local is None:
                rank = np.arange(count, dtype=np.int64)
            else:
                rank = np.unique(np.asarray(local, dtype=np.int64))
            digits = rank[:, None] // base ** np.arange(k - 1, -1, -1, dtype=np.int64) % base
            parts: dict[int, list[np.ndarray]] = {}
            for ii in range(k - 2):
                for jj in range(ii + 2, k):  # jj = ii + 1 would cut out an empty necklace
                    mask = digits[:, jj] == digits[:, ii] ^ 1
                    src = rank[mask]
                    m = jj - ii - 1
                    inner = src // base ** (k - jj) % base**m
                    low = base ** (k - 1 - jj)
                    parts.setdefault(m, []).append(np.stack([
                        src,
                        self.necklace_of_rank(m)[inner] - self.offset(m),
                        src // base ** (k - ii) * low + src % low,
                        1 - 2 * (digits[mask, ii] & 1),  # +1 when word[ii] is an a-letter
                    ]))
            table = {m: np.concatenate(rows, axis=1) for m, rows in sorted(parts.items())}
            if local is None:
                self._mu_table_memo[k] = table
        return table


def _rotated(necks: np.ndarray) -> np.ndarray:
    """The rotations of necklace words (n, m) as (n, m, m): rotation a of
    row i in [i, a]."""
    m = necks.shape[1]
    return necks[:, (np.arange(m)[:, None] + np.arange(m)) % m]


@lru_cache(maxsize=None)
def algebra(g: int) -> NecklaceContext:
    return NecklaceContext(g)


def necklace_basis(g: int, m: int) -> list[Necklace]:
    """All rotation-minimal necklaces of weight m, sorted; the count is the
    standard necklace-counting number."""
    if m < 1:
        raise ValueError("necklace weight must be >= 1")
    return [Necklace(w) for w in algebra(g).basis_words(m)]


class DerivationElem(TermMap):
    """Element of the necklace Lie algebra: a finite map Necklace -> coeff,
    stored over canonical words."""

    __slots__ = ("g", "terms")

    _order = staticmethod(by_weight)

    def __init__(self, g: int, terms: Mapping[W.WordKey, Coeff] | None = None):
        self.g = g
        clean: dict[W.WordKey, Coeff] = {}
        for w, c in (terms or {}).items():
            if c == 0:
                continue
            W.check_letters(w, g)
            cw = W.canonical_rotation(tuple(w))
            clean[cw] = clean.get(cw, 0) + c
        self.terms = _prune(clean)

    @classmethod
    def zero(cls, g: int) -> "DerivationElem":
        return cls(g)

    @classmethod
    def necklace(cls, g: int, word: W.WordKey, coeff: Coeff = 1) -> "DerivationElem":
        return cls(g, {tuple(word): coeff})

    def weight_support(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def min_weight(self) -> int:
        return min((len(w) for w in self.terms), default=0)

    def component(self, m: int) -> "DerivationElem":
        return self._like({w: c for w, c in self.terms.items() if len(w) == m})

    def truncate(self, cutoff: int) -> "DerivationElem":
        return self._like({w: c for w, c in self.terms.items() if len(w) <= cutoff})

    def _term_str(self, w: W.WordKey) -> str:
        return f"N({W.word_name(w)})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"necklace": W.word_name(w), "coeff": coeff_str(c)}
                for w, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DerivationElem":
        terms: dict[W.WordKey, Coeff] = {}
        items = data["terms"]
        axpy(terms, 1, ((W.parse_word(i["necklace"]), parse_coeff(i["coeff"])) for i in items))
        return cls(int(data["g"]), terms)


class BiDerivationElem(TermMap):
    """Finite map (Necklace, Necklace) -> coeff: a two-factor derivation
    tensor, e.g. the value of the cobracket."""

    __slots__ = ("g", "terms")

    _order = staticmethod(by_total_weight)

    def __init__(
        self, g: int, terms: Mapping[tuple[W.WordKey, W.WordKey], Coeff] | None = None
    ):
        self.g = g
        clean: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
        for (u, v), c in (terms or {}).items():
            if c == 0:
                continue
            key = (W.canonical_rotation(tuple(u)), W.canonical_rotation(tuple(v)))
            clean[key] = clean.get(key, 0) + c
        self.terms = _prune(clean)

    def swap(self) -> "BiDerivationElem":
        return self._like({(v, u): c for (u, v), c in self.terms.items()})

    def _term_str(self, key: tuple[W.WordKey, W.WordKey]) -> str:
        u, v = key
        return f"N({W.word_name(u)})(x)N({W.word_name(v)})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"left": W.word_name(u), "right": W.word_name(v), "coeff": coeff_str(c)}
                for (u, v), c in self.sorted_terms()
            ],
        }


class TensorDerivElem(TermMap):
    """Finite map (word, Necklace) -> coeff: the target of mu."""

    __slots__ = ("g", "terms")

    _order = staticmethod(by_total_weight)

    def __init__(
        self, g: int, terms: Mapping[tuple[W.WordKey, W.WordKey], Coeff] | None = None
    ):
        self.g = g
        clean: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
        for (m, v), c in (terms or {}).items():
            if c == 0:
                continue
            key = (tuple(m), W.canonical_rotation(tuple(v)))
            clean[key] = clean.get(key, 0) + c
        self.terms = _prune(clean)

    def _term_str(self, key: tuple[W.WordKey, W.WordKey]) -> str:
        m, v = key
        return f"({W.word_name(m) or '1'})(x)N({W.word_name(v)})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"word": W.word_name(m), "necklace": W.word_name(v), "coeff": coeff_str(c)}
                for (m, v), c in self.sorted_terms()
            ],
        }


# -- operations ---------------------------------------------------------


def necklace_normal_form(t: Tensor) -> DerivationElem:
    """Express a cyclic-invariant tensor in the necklace basis.

    A word of weight m with r distinct rotations appears in N(w) with
    multiplicity m/r, so the basis coefficient is (tensor coefficient) * r/m.
    Raises NotCyclic if some homogeneous component is not rotation-invariant.
    """
    out: dict[W.WordKey, Coeff] = {}
    seen: set[W.WordKey] = set()
    for w, c in t.terms.items():
        if not w:
            raise NotCyclic("weight-0 component cannot be a cyclic invariant")
        cw = W.canonical_rotation(w)
        if cw in seen:
            continue
        seen.add(cw)
        m = len(cw)
        r = W.rotation_class_size(cw)
        rots = {cw[i:] + cw[:i] for i in range(m)}
        for rot in rots:
            if t.terms.get(rot, 0) != c:
                raise NotCyclic(
                    f"coefficients differ on rotations of {W.word_name(cw)!r}"
                )
        gamma = Fraction(r, m) * c if m != r else c
        out[cw] = _as_int_if_whole(gamma)
    return DerivationElem(t.g, out)


def derivation_tensor(u: DerivationElem) -> Tensor:
    """The cyclic-invariant tensor sum c_w N(w) represented by u."""
    return cyclicize(Tensor(u.g, u.terms))


def derivation_apply(u: DerivationElem, t: Tensor) -> Tensor:
    """Apply the derivation u to a tensor, extending the action on letters
    by the Leibniz rule.  Output weight is wt(u) + wt(t) - 2 termwise."""
    if u.g != t.g:
        raise GenusMismatch(f"genus {u.g} != {t.g}")
    ctx = algebra(u.g)
    out: dict[W.WordKey, Coeff] = {}
    for nw, cn in u.terms.items():
        for word, cw in t.terms.items():
            axpy(out, cn * cw, ctx.act_word(nw, word))
    return t._like(out)


def module_action(u: DerivationElem, t: Tensor) -> Tensor:
    """The left action of the necklace algebra on the tensor algebra."""
    return derivation_apply(u, t)


def sigma_bar(t: Tensor, u: DerivationElem) -> Tensor:
    """The right-action convention: sigma_bar(m (x) X) = -X m."""
    return -derivation_apply(u, t)


def bracket(u: DerivationElem, v: DerivationElem) -> DerivationElem:
    """Lie bracket in closed splice form; certified against the commutator
    of derivation actions by the verification suite."""
    u._check_space(v)
    ctx = algebra(u.g)
    acc: dict[W.WordKey, Coeff] = {}
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            axpy(acc, cu * cv, ctx.bracket_words(wu, wv).items())
    return u._like(acc)


def schedler_delta(u: DerivationElem) -> BiDerivationElem:
    """The cobracket: split each necklace along every symplectic pair of
    letters into an antisymmetrized pair of necklaces."""
    ctx = algebra(u.g)
    acc: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
    for nw, cn in u.terms.items():
        for wa, wb, s in ctx.delta_word(nw):
            acc[(wa, wb)] = acc.get((wa, wb), 0) + cn * s
            acc[(wb, wa)] = acc.get((wb, wa), 0) - cn * s
    return BiDerivationElem(u.g, acc)


def exp_derivation(u: DerivationElem, t: Tensor, cutoff: int) -> Tensor:
    """exp(D_u) applied to a tensor, truncated at the weight cutoff.

    Components of u must have weight >= 3 so that each application raises
    word weight and the series terminates below the cutoff (weight-2
    components act weight-preservingly and would produce non-rational
    exponentials)."""
    from .errors import MinWeightTooLow

    if not u.is_zero() and u.min_weight() < 3:
        raise MinWeightTooLow("exp of a derivation needs components of weight >= 3")
    acc = t.truncate(cutoff)
    term = t.truncate(cutoff)
    k = 1
    while True:
        term = derivation_apply(u, term).truncate(cutoff).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
        k += 1
    return acc


def mu_alg(t: Tensor) -> TensorDerivElem:
    """The comodule splitting of a tensor: cut out each symplectic pair of
    letter positions i < j; the inside becomes a necklace, the outside a
    word."""
    ctx = algebra(t.g)
    acc: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
    for word, c in t.terms.items():
        axpy(acc, c, (((rest, neck), s) for rest, neck, s in ctx.mu_word(word)))
    return TensorDerivElem(t.g, acc)
