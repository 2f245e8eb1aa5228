"""Weight-graded Chevalley-Eilenberg chain and cochain operators.

Wedge monomials are strictly increasing tuples of global necklace indices
(weight-major order), so a cell (p, w) is the span of all p-tuples of
total weight w.  A monomial with a repeated factor is zero; every emitted
term is re-sorted with the sign of the sorting permutation.  Module cells
pair a plain word with a wedge tuple; the word's length counts toward the
total weight.  A module cell is laid out word-major (``mod_layout``): block
k holds the words of length k in ``product(range(2g), repeat=k)`` order,
each followed by the whole wedge basis of (p, w - k), so the monomial
(word, t) sits at offset_k + rank(word) * dim(p, w - k) + position(t).

Operators, with 1-based signs as usual:

* boundary:  sum_{i<j} (-1)^{i+j} [X_i, X_j] ^ (rest)        (p, w) -> (p-1, w-2)
* sigma(Y):  sum_i X_1 ^ ... ^ [Y, X_i] ^ ... ^ X_p          degree-preserving
* cochain d: sum_i (-1)^i (delta X_i) ^ (rest)               (p, w) -> (p+1, w-2)
* Gamma:     sum_i (-1)^i (X_i m) (x) (rest)
* module boundary:  Gamma + 1 (x) boundary
* module cochain d: mu(m) ^ xi - m (x) d xi

The cobracket and comodule maps are supplied as handles so that deformed
structures can be assembled through the same code path; the handles for
the canonical (Schedler) structure are :class:`AlgCobracket` and
:class:`AlgComodule`.

Boundary and coboundary matrices have one builder, :class:`CellOperators`
(int64).  It reads a wedge cell as an int64 array of its index tuples
(``wedge_cell``) and emits the wedge operators on such arrays
(``boundary_terms``, ``cochain_terms``) from the necklace bracket and
cobracket tables, ranking the target tuples by ``cell_positions``; the
module operators come from their word and wedge factors by the layout
above.  No monomial is emitted one by one on this path, and no
``WedgeBasis`` is built for it.  ``assemble`` and the homology engine read
the matrices through ``SparseRationalMatrix.from_int_csc``; the monomial
emitters serve chain vectors (``emit_vector``).  The deformation checks and
pieces in ``necklaces.deform`` emit on arrays of tuples through the same
``boundary_terms`` and ``cochain_terms``.
"""

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import product
from math import comb
from typing import Iterable, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from . import words as W
from .errors import CellTooLarge, GenusMismatch
from .lie import DerivationElem, NecklaceContext, algebra, necklace_count
from .linalg import SparseRationalMatrix, int_csc, int_values
from .tensors import Coeff, TermMap, axpy, coeff_str, parse_coeff, _prune

WedgeKey = tuple[int, ...]
ModKey = tuple[W.WordKey, WedgeKey]


# -- handles ---------------------------------------------------------------


class CobracketHandle(Protocol):
    """A cobracket as the assembly reads it: necklace by necklace
    (``wedge_terms``) for the monomial emitters, and every necklace of a
    weight at once (``delta_table``) for ``CellOperators``.  The two must
    agree; ``delta_table_of`` reads the table off ``wedge_terms``."""

    g: int
    name: str
    max_weight: int | None

    def wedge_terms(self, idx: int) -> Sequence[tuple[int, int, Coeff]]:
        """delta of the basis necklace as ((a, b, coeff), ...) with a < b."""
        ...

    def delta_table(self, m: int) -> np.ndarray:
        """delta of every necklace n of weight m, for the matrix assembly:
        rows (n - offset(m), a, b, coeff) with a < b, as in
        ``NecklaceContext.delta_table``."""
        ...


class ComoduleHandle(Protocol):
    """A comodule map as the assembly reads it: word by word (``mu_terms``)
    for the monomial emitters, and every word of a length at once
    (``mu_table``) for the ``CellOperators`` module coboundary.  The two
    must agree."""

    g: int
    name: str
    max_weight: int | None

    def mu_terms(self, word: W.WordKey) -> Sequence[tuple[W.WordKey, int, Coeff]]:
        """mu of a basis word as ((word, necklace index, coeff), ...)."""
        ...

    def mu_table(self, k: int) -> Mapping[int, np.ndarray]:
        """mu of every word of length k, for the matrix assembly: the
        weight m of the split-off necklace n -> int64 rows (source rank,
        n - offset(m), rank of the remaining word, coeff), ranks as in
        ``NecklaceContext.mu_table``."""
        ...


class AlgCobracket:
    """The canonical necklace cobracket as an assembly handle."""

    max_weight = None
    name = "alg"

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def wedge_terms(self, idx: int):
        return self._ctx.delta_wedge(idx)

    def delta_table(self, m: int):
        return self._ctx.delta_table(m)


def delta_table_of(handle: CobracketHandle, m: int) -> np.ndarray:
    """The ``delta_table(m)`` of a handle read off its ``wedge_terms``, one
    call per necklace of weight m: rows (n - offset(m), a, b, coeff), the
    coefficients as the handle gives them (an object array where they are
    not all int; ``CellOperators`` refuses those)."""
    ctx = algebra(handle.g)
    lo = ctx.offset(m)
    rows = [(n, a, b, c) for n in range(necklace_count(handle.g, m))
            for a, b, c in handle.wedge_terms(lo + n)]
    dtype = np.int64 if all(type(row[3]) is int for row in rows) else object
    return np.array(rows, dtype=dtype).reshape(-1, 4).T


class AlgComodule:
    """The canonical word-splitting comodule map as an assembly handle."""

    max_weight = None
    name = "alg"

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def mu_terms(self, word: W.WordKey):
        return self._ctx.mu_terms(word)

    def mu_table(self, k: int):
        return self._ctx.mu_table(k)


# -- bases ------------------------------------------------------------------


class WedgeBasis:
    """Ordered basis of the (p, w) cell of the exterior algebra: the rows of
    ``wedge_cell`` as Python tuples, with their positions, for the callers
    that need monomials (chain vectors, homology representatives, the
    monomial emitters).  The list of monomials and the position dict are
    built when first read; ``monomial(i)`` reads one row without them.
    The operator matrices do not build it."""

    __slots__ = ("g", "p", "w", "_cell", "_monomials", "_position")

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        self._cell = wedge_cell(g, p, w)
        self._monomials: list[WedgeKey] | None = None
        self._position: dict[WedgeKey, int] | None = None

    @property
    def monomials(self) -> list[WedgeKey]:
        if self._monomials is None:
            cell = self._cell
            shared = list(range(cell.max(initial=-1) + 1))  # one int object per index
            columns = (map(shared.__getitem__, col) for col in cell.T.tolist())
            self._monomials = list(zip(*columns)) if self.p else [()] * len(cell)
        return self._monomials

    @property
    def position(self) -> dict[WedgeKey, int]:
        """The position of each monomial; a caller that ranks a few tuples
        can use ``cell_positions`` instead."""
        if self._position is None:
            self._position = {t: i for i, t in enumerate(self.monomials)}
        return self._position

    def monomial(self, i: int) -> WedgeKey:
        if self._monomials is not None:
            return self._monomials[i]
        return tuple(self._cell[i].tolist())

    def dim(self) -> int:
        return len(self._cell)

    def describe(self, i: int) -> str:
        ctx = algebra(self.g)
        parts = [f"N({W.word_name(ctx.word_at(k))})" for k in self.monomial(i)]
        return "^".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"WedgeBasis(g={self.g}, p={self.p}, w={self.w}, dim={self.dim()})"


@lru_cache(maxsize=None)
def wedge_dim(g: int, p: int, w: int) -> int:
    """Dimension of the (p, w) wedge cell, counted from ``necklace_count``
    without enumerating anything: the number of p-sets of necklaces of
    total weight w, by a DP over the necklace weights."""
    if p < 0 or w < 0:
        return 0
    count = [[0] * (w + 1) for _ in range(p + 1)]  # [q][v]: q-sets of weight v
    count[0][0] = 1
    for m in range(1, w + 1):
        n = necklace_count(g, m)
        new = [row[:] for row in count]
        for j in range(1, min(p, w // m) + 1):  # j necklaces of weight m
            ways = comb(n, j)
            for q in range(j, p + 1):
                for v in range(j * m, w + 1):
                    new[q][v] += ways * count[q - j][v - j * m]
        count = new
    return count[p][w]


def _check_cell(kind: str, g: int, p: int, w: int, dim: int) -> None:
    CellTooLarge.check(f"the {kind} cell (p={p}, w={w}) of genus {g}", dim)


@lru_cache(maxsize=None)
def wedge_cell(g: int, p: int, w: int) -> np.ndarray:
    """The (p, w) wedge cell as an int64 array of shape (dim, p): its
    strictly increasing index tuples of total weight w, in lexicographic
    (basis) order.  A tuple is a necklace a, of the least weight m, followed
    by a tuple of (p-1, w-m) whose first index is above a; those form the
    tail of the sorted (p-1, w-m) cell, so the cell is built from the
    (p-1, .) cells.  Raises CellTooLarge when the cell is over the budget.
    The array is cached and shared, so it is read-only."""
    _check_cell("wedge", g, p, w, wedge_dim(g, p, w))
    if p <= 0 or w < p:
        return _read_only(np.zeros((int(p == 0 and w == 0), max(p, 0)), dtype=np.int64))
    ctx = algebra(g)
    if p == 1:
        return _read_only(np.arange(ctx.offset(w), ctx.offset(w + 1), dtype=np.int64)[:, None])
    parts = [np.zeros((0, p), dtype=np.int64)]
    for m in range(1, w // p + 1):
        rest = wedge_cell(g, p - 1, w - m)
        first = np.arange(ctx.offset(m), ctx.offset(m + 1), dtype=np.int64)
        start = np.searchsorted(rest[:, 0], first, side="right")
        count = len(rest) - start
        rows = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        parts.append(np.column_stack([np.repeat(first, count), rest[rows]]))
    return _read_only(np.concatenate(parts))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# packed keys of a cell stay below this; see _cell_keys
_KEY_MAX = 1 << 62


@lru_cache(maxsize=None)
def _cell_keys(g: int, p: int, w: int):
    """The tuples of the (p, w) cell packed into one int64 key each, in
    increasing order, and the packing: base N, one above the largest index
    of the cell, with digits the columns.  Where one more digit would pass
    ``_KEY_MAX`` the key so far is replaced by its dense rank among the
    cell's keys; ``steps`` holds, per column, the distinct keys that rank
    was taken against, or None."""
    cell = wedge_cell(g, p, w)
    base = algebra(g).offset(w - p + 2) if p else 1
    key, steps, top = np.zeros(len(cell), dtype=np.int64), [], 1
    for j in range(p):
        uniq = None
        if top * base > _KEY_MAX:
            uniq, key = np.unique(key, return_inverse=True)
            top = len(uniq)
        steps.append(uniq)
        key, top = key * base + cell[:, j], top * base
    return _read_only(key), base, tuple(steps)


def cell_positions(g: int, p: int, w: int, tuples: np.ndarray) -> np.ndarray:
    """The positions in ``wedge_cell(g, p, w)`` of the rows of an int64
    array of its tuples, by ``np.searchsorted`` on the packed keys of
    ``_cell_keys``.  Raises ValueError on a row that is not in the cell."""
    keys, base, steps = _cell_keys(g, p, w)

    def find(sorted_keys, key):
        pos = np.searchsorted(sorted_keys, key)
        found = len(sorted_keys) and np.array_equal(sorted_keys.take(pos, mode="clip"), key)
        if len(key) and not found:
            raise ValueError(f"a tuple is not in the wedge cell (p={p}, w={w}) of genus {g}")
        return pos

    if tuples.size and not 0 <= tuples.min() <= tuples.max() < base:
        raise ValueError(f"an index out of the range of the wedge cell (p={p}, w={w}) of genus {g}")
    key = np.zeros(len(tuples), dtype=np.int64)
    for j, uniq in enumerate(steps):
        if uniq is not None:
            key = find(uniq, key)
        key = key * base + tuples[:, j]
    return find(keys, key)


class ModLayout(NamedTuple):
    """Word-major block layout of a module cell (see ``mod_layout``)."""

    offsets: tuple[int, ...]  # first position of each word-length block; [-1] = dim
    wedge_dims: tuple[int, ...]  # dim of the wedge cell (p, w - k) of block k

    @property
    def dim(self) -> int:
        return self.offsets[-1]


@lru_cache(maxsize=None)
def mod_layout(g: int, p: int, w: int) -> ModLayout:
    """Block layout of the (p, w) module cell, computed from the wedge
    cells alone.  Block k holds the words of length k, in
    ``product(range(2g), repeat=k)`` order, each followed by the wedge
    basis of (p, w - k).  So (word, t) sits at
        offsets[k] + rank(word) * wedge_dims[k] + position of t in (p, w - k),
    where rank reads the word as a base-2g number, first letter most
    significant.  ``ModWedgeBasis`` enumerates in this order, and the
    int64 operator assembly indexes by this formula.  Raises CellTooLarge
    when the cell is over the budget."""
    if p < 0 or w < 0:
        return ModLayout((0,), ())
    dims = tuple(wedge_dim(g, p, w - k) for k in range(w + 1))
    offsets = [0]
    for k, d in enumerate(dims):
        offsets.append(offsets[-1] + (2 * g) ** k * d)
    _check_cell("module", g, p, w, offsets[-1])
    return ModLayout(tuple(offsets), dims)


class ModWedgeBasis:
    """Ordered basis of the (p, w) module cell: (word, wedge tuple) pairs
    with len(word) + wedge weight = w, in the ``mod_layout`` order."""

    __slots__ = ("g", "p", "w", "monomials", "position")

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        mons: list[ModKey] = []
        for k, d in enumerate(mod_layout(g, p, w).wedge_dims):
            if d:
                sub = wedge_basis(g, p, w - k).monomials
                mons.extend((word, t) for word in product(range(2 * g), repeat=k) for t in sub)
        self.monomials = mons
        self.position = {m: i for i, m in enumerate(mons)}

    def dim(self) -> int:
        return len(self.monomials)

    def monomial(self, i: int) -> ModKey:
        return self.monomials[i]

    def describe(self, i: int) -> str:
        word, t = self.monomials[i]
        ctx = algebra(self.g)
        wedge = "^".join(f"N({W.word_name(k2)})" for k2 in map(ctx.word_at, t))
        return f"({W.word_name(word) or '1'})(x)({wedge or '1'})"

    def __repr__(self) -> str:
        return f"ModWedgeBasis(g={self.g}, p={self.p}, w={self.w}, dim={self.dim()})"


@lru_cache(maxsize=None)
def wedge_basis(g: int, p: int, w: int) -> WedgeBasis:
    return WedgeBasis(g, p, w)


@lru_cache(maxsize=None)
def mod_wedge_basis(g: int, p: int, w: int) -> ModWedgeBasis:
    return ModWedgeBasis(g, p, w)


# -- chain vectors ----------------------------------------------------------


class _CellVector(TermMap):
    """Sparse element of a cell: basis positions -> coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs: Mapping[int, Coeff] | None = None):
        self.basis = basis
        self.coeffs: dict[int, Coeff] = _prune(dict(coeffs or {}))

    @classmethod
    def from_terms(cls, basis, terms: Iterable[tuple[tuple, Coeff]]):
        acc: dict[int, Coeff] = {}
        axpy(acc, 1, ((basis.position[t], c) for t, c in terms))
        return cls(basis, acc)

    def cell(self) -> tuple[int, int]:
        return (self.basis.p, self.basis.w)

    def terms(self) -> list[tuple[tuple, Coeff]]:
        return [(self.basis.monomial(i), c) for i, c in self.sorted_terms()]

    def _map(self) -> dict:
        return self.coeffs

    def _space(self) -> tuple:
        return (self.basis.g, self.basis.p, self.basis.w)

    def _like(self, coeffs: dict) -> "_CellVector":
        out = object.__new__(type(self))
        out.basis = self.basis
        out.coeffs = coeffs
        return out

    def _term_str(self, i: int) -> str:
        return self.basis.describe(i)


class ChainVector(_CellVector):
    """Sparse element of a wedge cell: basis positions -> coefficients."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        ctx = algebra(self.basis.g)
        return {
            "g": self.basis.g,
            "p": self.basis.p,
            "w": self.basis.w,
            "terms": [
                {"wedge": [W.word_name(ctx.word_at(k)) for k in t], "coeff": coeff_str(c)}
                for t, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainVector":
        g, p, w = int(data["g"]), int(data["p"]), int(data["w"])
        basis = wedge_basis(g, p, w)
        ctx = algebra(g)
        terms = []
        for item in data["terms"]:
            idxs = [ctx.index_of_word(W.canonical_rotation(W.parse_word(s))) for s in item["wedge"]]
            key, sign = _sort_wedge(tuple(idxs))
            if sign == 0:
                continue
            terms.append((key, sign * parse_coeff(item["coeff"])))
        return cls.from_terms(basis, terms)


class ModChainVector(_CellVector):
    """Sparse element of a module cell (word tensor wedge)."""

    __slots__ = ()


# -- sign helpers ------------------------------------------------------------


def _insert1(tup: WedgeKey, k: int):
    """Insert one index into a sorted tuple: (sign, new tuple) or None."""
    pos = bisect_left(tup, k)
    if pos < len(tup) and tup[pos] == k:
        return None
    return (1 if pos % 2 == 0 else -1), tup[:pos] + (k,) + tup[pos:]


def _insert2(tup: WedgeKey, a: int, b: int):
    """Insert two indices a < b: (sign, new tuple) or None on repeats."""
    ia = bisect_left(tup, a)
    if ia < len(tup) and tup[ia] == a:
        return None
    ib = bisect_left(tup, b)
    if ib < len(tup) and tup[ib] == b:
        return None
    sign = 1 if (ia + ib) % 2 == 0 else -1
    first = tup[:ia] + (a,) + tup[ia:]
    return sign, first[: ib + 1] + (b,) + first[ib + 1 :]


def _sort_wedge(idxs: WedgeKey):
    """Sort an arbitrary index tuple: (sorted tuple, permutation sign);
    sign 0 when an index repeats."""
    arr = list(idxs)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i]:
            return tuple(arr), 0
    return tuple(arr), sign


# -- monomial-level emissions -------------------------------------------------


def boundary_monomial(ctx: NecklaceContext, tup: WedgeKey):
    out = []
    p = len(tup)
    for ii in range(p):
        for jj in range(ii + 1, p):
            terms = ctx.bracket_idx(tup[ii], tup[jj])
            if not terms:
                continue
            rest = tup[:ii] + tup[ii + 1 : jj] + tup[jj + 1 :]
            s0 = -1 if (ii + jj) % 2 == 1 else 1  # (-1)^{i+j} = (-1)^{ii+jj}, 1-based
            for k, c in terms:
                ins = _insert1(rest, k)
                if ins:
                    sgn, newtup = ins
                    out.append((newtup, s0 * sgn * c))
    return out


def sigma_monomial(ctx: NecklaceContext, y_idx: int, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        terms = ctx.bracket_idx(y_idx, tup[ii])
        if not terms:
            continue
        rest = tup[:ii] + tup[ii + 1 :]
        si = 1 if ii % 2 == 0 else -1
        for k, c in terms:
            ins = _insert1(rest, k)
            if ins:
                sgn, newtup = ins
                out.append((newtup, si * sgn * c))
    return out


def cochain_monomial(ctx: NecklaceContext, delta: CobracketHandle, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        terms = delta.wedge_terms(tup[ii])
        if not terms:
            continue
        rest = tup[:ii] + tup[ii + 1 :]
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        for a, b, c in terms:
            ins = _insert2(rest, a, b)
            if ins:
                sgn, newtup = ins
                out.append((newtup, s0 * sgn * c))
    return out


def gamma_monomial(ctx: NecklaceContext, word: W.WordKey, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        rest = tup[:ii] + tup[ii + 1 :]
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        neck = ctx.word_at(tup[ii])
        for neww, s in ctx.act_word(neck, word):
            out.append(((neww, rest), s0 * s))
    return out


def mod_boundary_monomial(ctx: NecklaceContext, mono: ModKey):
    word, tup = mono
    out = gamma_monomial(ctx, word, tup)
    for newtup, c in boundary_monomial(ctx, tup):
        out.append(((word, newtup), c))
    return out


def mod_cochain_monomial(
    ctx: NecklaceContext, delta: CobracketHandle, mu: ComoduleHandle, mono: ModKey
):
    # d(m (x) xi) = mu(m) ^ xi - m (x) d xi.  The relative minus (constant
    # in p) is forced: the unit-word part of d*boundary + boundary*d reduces
    # to a multiple of the wedge-level anticommutator only when the sign of
    # the m (x) d xi term does not depend on p, and the p = 0, 1 cells pin
    # it to -1 given our splitting conventions.  A p-dependent sign here
    # provably breaks the p = 2 module cells (genus 2, weight 6).
    word, tup = mono
    return module_coboundary(mu.mu_terms(word), cochain_monomial(ctx, delta, tup), mono)


def module_coboundary(mu_terms, d_terms, mono: ModKey):
    """mu(m) ^ xi - m (x) d xi on one module monomial m (x) xi, given
    mu(m) as ((word, necklace index, coeff), ...) and d xi as ((wedge,
    coeff), ...).  The deformation pieces pass the differences mu' - mu and
    d' - d instead."""
    word, tup = mono
    out = []
    for w2, k, c in mu_terms:
        ins = _insert1(tup, k)
        if ins:
            sgn, newtup = ins
            out.append(((w2, newtup), c * sgn))
    for newtup, c in d_terms:
        out.append(((word, newtup), -c))
    return out


# -- array emissions -----------------------------------------------------------
#
# The same operators on an int64 array of sorted index tuples, one tuple a
# row (a whole cell, ``wedge_cell``, or any part of one): the terms come
# out as (source row, target tuples, coeff) arrays, the target tuples
# sorted, and no term where an inserted index is already a factor.  The
# bracket and the cobracket are read from the necklace tables of
# ``NecklaceContext``, gathered per weight of the factors they act on.


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """For the given rows of a CSR table: the entries of all of them, as
    (which row, entry position) arrays."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    which = np.repeat(np.arange(len(rows)), count)
    return which, np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _insert(rest: np.ndarray, new: np.ndarray):
    """Insert the columns of new into the sorted rows of rest: (sorted rows,
    the sign (-1)^{#(rest < x)} multiplied over x in new, and the mask of
    the rows where some x is already in rest).  The x of a row must be
    distinct and, when two, increasing, as in ``_insert2``."""
    below = (rest[:, :, None] < new[:, None, :]).sum(axis=(1, 2))
    clash = (rest[:, :, None] == new[:, None, :]).any(axis=(1, 2))
    return np.sort(np.concatenate([rest, new], axis=1), axis=1), 1 - 2 * (below & 1), clash


def _emitted(parts: list, p: int):
    """Concatenate (source row, target tuples, coeff) blocks; none is the
    empty emission (with no columns for p < 0: the boundary of p = 0)."""
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros((0, max(p, 0)), dtype=np.int64), empty
    return tuple(np.concatenate(col) for col in zip(*parts))


def table_bracket(ctx: NecklaceContext, m1: int, first: np.ndarray, m2: int, second: np.ndarray):
    """The brackets of the necklace pairs (offset(m1) + first[q], offset(m2)
    + second[q]) from ``NecklaceContext.bracket_table(m1, m2)``: arrays
    (q, target index, coeff), one per term."""
    indptr, target, coeff = ctx.bracket_table(m1, m2)
    which, at = _gather(indptr, first * necklace_count(ctx.g, m2) + second)
    return which, target[at], coeff[at]


def boundary_terms(ctx: NecklaceContext, tuples: np.ndarray, bracket=table_bracket):
    """The boundary of each row of an int64 array of sorted index tuples
    (n, p): arrays (source row, target tuple (t, p-1), coeff).  For each
    pair of factors the terms of their bracket are gathered, by default
    from ``NecklaceContext.bracket_table`` (``table_bracket``; a caller may
    pass another source of the same form), the two factors deleted and the
    bracket inserted, with the signs of ``boundary_monomial``."""
    n, p = tuples.shape
    parts = []
    for ii in range(p):
        for jj in range(ii + 1, p):
            rest = np.delete(tuples, (ii, jj), axis=1)
            s0 = -1 if (ii + jj) % 2 == 1 else 1  # (-1)^{i+j}, 1-based
            for m1, rows, first in ctx.weight_groups(tuples[:, ii]):
                for m2, sub, second in ctx.weight_groups(tuples[rows, jj]):
                    which, target, coeff = bracket(ctx, m1, first[sub], m2, second)
                    src = rows[sub][which]
                    new, sign, clash = _insert(rest[src], target[:, None])
                    keep = ~clash
                    parts.append((src[keep], new[keep], (s0 * sign * coeff)[keep]))
    return _emitted(parts, p - 1)


def cochain_terms(ctx: NecklaceContext, table, tuples: np.ndarray):
    """The cochain d of each row of an int64 array of sorted index tuples
    (n, p): arrays (source row, target tuple (t, p+1), coeff).  table(m)
    gives the cobracket of the necklaces of weight m in CSR form over them,
    (indptr, a, b, coeff) with a < b (``CellOperators._delta_table``); each
    factor is deleted and both halves of its cobracket inserted, with the
    signs of ``cochain_monomial``."""
    n, p = tuples.shape
    parts = []
    for ii in range(p):
        rest = np.delete(tuples, ii, axis=1)
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        for m, rows, local in ctx.weight_groups(tuples[:, ii]):
            indptr, a, b, coeff = table(m)
            which, at = _gather(indptr, local)
            src = rows[which]
            new, sign, clash = _insert(rest[src], np.stack([a[at], b[at]], axis=1))
            keep = ~clash
            parts.append((src[keep], new[keep], (s0 * sign * coeff[at])[keep]))
    return _emitted(parts, p + 1)


# -- emitter path to a vector ---------------------------------------------------


def emit_vector(x: _CellVector, tgt, emit) -> _CellVector:
    """Image of a chain vector under the operator whose value on a basis
    monomial is emit(monomial), as a vector of the same type in tgt."""
    acc: dict = {}
    monomials = x.basis.monomials
    for i, c in x.coeffs.items():
        axpy(acc, c, emit(monomials[i]))
    return type(x).from_terms(tgt, acc.items())


# -- operators on chain vectors ----------------------------------------------


def boundary(x: ChainVector) -> ChainVector:
    """Chevalley-Eilenberg boundary; lands in (p-1, w-2); zero on p = 1."""
    b = x.basis
    if b.p < 1:
        raise ValueError("boundary needs p >= 1")
    target = wedge_basis(b.g, b.p - 1, max(b.w - 2, 0))
    return emit_vector(x, target, partial(boundary_monomial, algebra(b.g)))


def sigma_wedge(y: DerivationElem, x: ChainVector) -> ChainVector:
    """Diagonal action of a weight-homogeneous derivation on a wedge cell."""
    ws = y.weight_support()
    if len(ws) > 1:
        raise ValueError("sigma_wedge needs a weight-homogeneous derivation")
    b = x.basis
    if y.g != b.g:
        raise GenusMismatch(f"genus {y.g} != {b.g}")
    if not ws:
        return ChainVector(wedge_basis(b.g, b.p, b.w))
    out = ChainVector(wedge_basis(b.g, b.p, max(b.w + ws[0] - 2, 0)))
    if x.is_zero():
        return out
    ctx = algebra(b.g)
    for nw, cy in y.terms.items():
        emit = partial(sigma_monomial, ctx, ctx.index_of_word(nw))
        out = out + emit_vector(x, out.basis, emit).scale(cy)
    return out


def cochain_d(x: ChainVector, delta: CobracketHandle) -> ChainVector:
    """Cobracket-induced coboundary; lands in (p+1, w-2); 0 on scalars."""
    b = x.basis
    target = wedge_basis(b.g, b.p + 1, max(b.w - 2, 0))
    if b.p == 0 or b.w < 2:
        return ChainVector(target)
    return emit_vector(x, target, partial(cochain_monomial, algebra(b.g), delta))


def mod_boundary(x: ModChainVector) -> ModChainVector:
    """Module boundary Gamma + 1 (x) boundary; lands in (p-1, w-2)."""
    b = x.basis
    if b.p < 1:
        raise ValueError("module boundary needs p >= 1")
    target = mod_wedge_basis(b.g, b.p - 1, max(b.w - 2, 0))
    return emit_vector(x, target, partial(mod_boundary_monomial, algebra(b.g)))


def mod_cochain_d(
    x: ModChainVector, delta: CobracketHandle, mu: ComoduleHandle
) -> ModChainVector:
    """Module coboundary mu(m)^xi - m (x) d xi (a constant relative sign);
    lands in (p+1, w-2)."""
    b = x.basis
    if b.w < 2:
        return ModChainVector(mod_wedge_basis(b.g, b.p + 1, 0))
    target = mod_wedge_basis(b.g, b.p + 1, b.w - 2)
    return emit_vector(x, target, partial(mod_cochain_monomial, algebra(b.g), delta, mu))


def wedge_product(x: ChainVector, y: ChainVector) -> ChainVector:
    """Exterior product of two chain vectors; lands in (p+q, w+v)."""
    bx, by = x.basis, y.basis
    if bx.g != by.g:
        raise GenusMismatch(f"genus {bx.g} != {by.g}")
    target = wedge_basis(bx.g, bx.p + by.p, bx.w + by.w)
    acc: dict[WedgeKey, Coeff] = {}
    for ti, ci in x.terms():
        for tj, cj in y.terms():
            t, s = _sort_wedge(ti + tj)
            if s:
                axpy(acc, ci * cj, ((t, s),))
    return ChainVector.from_terms(target, acc.items())


# -- matrix assembly -----------------------------------------------------------

_OPS = ("boundary", "cochain_d", "mod_boundary", "mod_cochain_d")


def assemble(
    op: str,
    g: int,
    p: int,
    w: int,
    delta: CobracketHandle | None = None,
    mu: ComoduleHandle | None = None,
) -> SparseRationalMatrix:
    """Matrix of an operator out of the (p, w) cell, in the enumerated
    bases: the ``CellOperators`` matrix as dict columns.  Column j is the
    image of the j-th source monomial."""
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")
    module = op.startswith("mod_")
    name = op.removeprefix("mod_")
    if name == "cochain_d" and (delta is None or module and mu is None):
        raise ValueError(f"{op} needs a cobracket handle" + (" and a comodule handle" if module else ""))
    # the module boundary reads the layout only, not mu
    ops = CellOperators(g, delta, (mu or AlgComodule(g)) if module else None)
    return SparseRationalMatrix.from_int_csc(getattr(ops, name)(p, w))


# -- int64 operator matrices ---------------------------------------------------
#
# A module operator is assembled from its tensor factors.  Block k of a
# module cell is the words of length k times a wedge cell (``mod_layout``),
# and block by block
#
#   module boundary  = Gamma + 1 (x) boundary,  Gamma = sum_n A_n (x) iota_n
#   module cochain d = mu ^ - 1 (x) d,           mu ^  = sum_n M_n (x) eps_n
#
# where A_n is the action of the necklace n on words (``action_table``),
# iota_n removes n from a wedge tuple with the sign of gamma_monomial, M_n
# is the part of mu that splits off n, read from the comodule handle's
# ``mu_table`` (for the canonical handle, ``NecklaceContext.mu_table``
# computes it for every word of a length at once, by rank arithmetic), and
# eps_n inserts n (``_insert1``).  The word-side tables are shared by every
# cell; the wedge-side tables are small.  Their product over n is numpy
# index arithmetic, so no module monomial and no word is ever enumerated.


def _coo(rows: list, cols: list, vals: list):
    """Concatenate (rows, cols, vals) blocks into three int64 arrays."""
    if not rows:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(
        np.concatenate([np.asarray(a, dtype=np.int64).ravel() for a in part])
        for part in (rows, cols, vals)
    )


def action_table(ctx: NecklaceContext, k: int, m: int, local: np.ndarray | None = None):
    """The action of necklaces of weight m on the words of length k, as rank
    arrays (src, tgt, sign) of shape (necklaces, terms): row i is the
    necklace offset(m) + i, or offset(m) + local[i] when ``local`` is given
    (then only those necklaces are rotated).  Each row has the same terms,
    one per (position, rotation, word with the paired letter at that
    position), as ``NecklaceContext.act_word`` lists them.  Sized with
    ``CellTooLarge`` first."""
    base = 2 * ctx.g
    count = necklace_count(ctx.g, m) if local is None else len(local)
    CellTooLarge.check(
        f"the action table of the weight-{m} necklaces on the words of length {k}",
        count * m * k * base ** (k - 1),
    )
    rots = ctx.rotations(m, local)  # rotation a in row a
    y = rots[:, :, :1] ^ 1  # the word letter that pairs with the first letter
    # rank of the tail, a base-2g number with its first letter most significant
    tail = (rots[:, :, 1:] @ base ** np.arange(m - 2, -1, -1, dtype=np.int64))[:, :, None]
    u = np.arange(base ** (k - 1), dtype=np.int64)
    src, tgt = [], []
    for pos in range(k):
        low = base ** (k - 1 - pos)
        pre, post = u // low, u % low
        src.append((pre * base + y) * low + post)
        tgt.append((pre * base ** (m - 1) + tail) * low + post)
    shape = (len(rots), -1)
    sign = np.broadcast_to(np.where(y % 2 == 1, 1, -1), src[0].shape)
    return (
        np.concatenate(src, axis=2).reshape(shape),
        np.concatenate(tgt, axis=2).reshape(shape),
        np.concatenate([sign] * k, axis=2).reshape(shape),
    )


class CellOperators:
    """int64 csc matrices (``linalg.int_csc``) of the boundary and the
    cochain d out of each cell: of the wedge cells, or of the module cells
    when a comodule handle is given.  They are the matrices of the monomial
    emitters, with explicit zeros where terms cancel, and of the right
    shape for any (p, w), but built from tables by numpy index arithmetic:
    a wedge cell is an int64 array of its tuples (``wedge_cell``), the
    wedge operators are the array emissions ``boundary_terms`` (from the
    bracket table) and ``cochain_terms`` (from the handle's
    ``delta_table``), and the target tuples are ranked by
    ``cell_positions``.  The module coboundary reads mu from the handle's
    ``mu_table``.  Handle tables are checked, and their coefficients must
    be ints.  A cell or table over the ``CellTooLarge`` budget raises
    before it is built."""

    def __init__(self, g: int, delta: CobracketHandle, mu: ComoduleHandle | None = None):
        self.g = g
        self.ctx = algebra(g)
        self.delta = delta
        self.mu = mu
        self._wedge: dict = {}
        self._delta: dict = {}
        self._iota: dict = {}
        self._eps: dict = {}
        self._act: dict = {}

    def dim(self, p: int, w: int) -> int:
        """The dimension of the cell, counted without enumerating it."""
        if self.mu is not None:
            return mod_layout(self.g, p, w).dim
        dim = wedge_dim(self.g, p, w)
        _check_cell("wedge", self.g, p, w, dim)
        return dim

    def boundary(self, p: int, w: int):
        """Out of (p, w) into (p-1, w-2)."""
        return self._matrix("boundary", p, w, p - 1)

    def cochain_d(self, p: int, w: int):
        """Out of (p, w) into (p+1, w-2)."""
        return self._matrix("cochain_d", p, w, p + 1)

    def _matrix(self, op: str, p: int, w: int, tp: int):
        rows_n, cols_n = self.dim(tp, w - 2), self.dim(p, w)
        if self.mu is None:
            r, c, v = self._wedge_coo(op, p, w)
        else:
            r, c, v = self._module_coo(op, p, w, tp)
        return int_csc(rows_n, cols_n, r, c, v)

    # -- wedge side -----------------------------------------------------------

    def _wedge_coo(self, op: str, p: int, v: int):
        """(rows, cols, vals) of a wedge operator out of (p, v): the array
        emission on the whole cell, its targets ranked in the target cell."""
        key = (op, p, v)
        if key not in self._wedge:
            tp = p - 1 if op == "boundary" else p + 1
            empty = np.zeros(0, dtype=np.int64)
            r = c = vals = empty
            # both operators vanish on p = 0 and on weights below 2
            if p >= 1 and v >= 2 and wedge_dim(self.g, tp, v - 2):
                tuples = wedge_cell(self.g, p, v)
                if op == "boundary":
                    c, new, vals = boundary_terms(self.ctx, tuples)
                else:
                    c, new, vals = cochain_terms(self.ctx, self._delta_table, tuples)
                r = cell_positions(self.g, tp, v - 2, new)
            self._wedge[key] = (r, c, vals)
        return self._wedge[key]

    def _delta_table(self, m: int):
        """The handle's ``delta_table(m)``, checked, in CSR form over the
        necklaces of weight m: (indptr, a, b, coeff).  Every index must be
        in its range, a < b, the weights of a and b must sum to m - 2, and
        every coefficient must be an int (``int_values``)."""
        if m not in self._delta:
            table = self.delta.delta_table(m)
            n, a, b = (np.asarray(row, dtype=np.int64) for row in table[:3])
            coeff = int_values(table[3])
            count = necklace_count(self.g, m)
            if n.size:
                top = self.ctx.offset(max(m - 2, 0))  # a and b have weights below m - 2
                if not (0 <= n.min() and n.max() < count and 0 <= a.min() and b.max() < top):
                    raise ValueError(f"the cobracket table of weight {m} has an index out of range")
                if not (a < b).all():
                    raise ValueError(f"the cobracket table of weight {m} has a pair out of order")
                if not (self.ctx.weights(a) + self.ctx.weights(b) == m - 2).all():
                    raise ValueError("the cobracket handle does not lower the weight by 2")
            order = np.argsort(n, kind="stable")
            indptr = np.searchsorted(n[order], np.arange(count + 1, dtype=np.int64))
            self._delta[m] = (indptr, a[order], b[order], coeff[order])
        return self._delta[m]

    def _iota_table(self, p: int, v: int) -> dict:
        """Removal of one factor from the tuples of (p, v), grouped by the
        weight m of the removed necklace n: m -> (source position, n -
        offset(m), target position in (p-1, v-m), sign)."""
        key = (p, v)
        if key not in self._iota:
            tuples = wedge_cell(self.g, p, v)
            acc: dict[int, list] = {}
            for ii in range(p):
                rest = np.delete(tuples, ii, axis=1)
                sign = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based, as in gamma_monomial
                for m, rows, local in self.ctx.weight_groups(tuples[:, ii]):
                    t = cell_positions(self.g, p - 1, v - m, rest[rows])
                    acc.setdefault(m, []).append(np.stack([rows, local, t, np.full_like(t, sign)]))
            self._iota[key] = {m: np.concatenate(e, axis=1) for m, e in acc.items()}
        return self._iota[key]

    def _eps_table(self, p: int, v: int, m: int):
        """Insertion of each necklace of weight m into the tuples of (p, v):
        (target position in (p+1, v+m), sign) as (tuples, necklaces) arrays;
        sign 0 where the necklace is already a factor."""
        key = (p, v, m)
        if key not in self._eps:
            tuples = wedge_cell(self.g, p, v)
            necks = np.arange(self.ctx.offset(m), self.ctx.offset(m + 1), dtype=np.int64)
            rest = np.repeat(tuples, len(necks), axis=0)
            new, sign, clash = _insert(rest, np.tile(necks, len(tuples))[:, None])
            tgt = np.zeros(len(rest), dtype=np.int64)
            tgt[~clash] = cell_positions(self.g, p + 1, v + m, new[~clash])
            sign[clash] = 0
            shape = (len(tuples), len(necks))
            self._eps[key] = (tgt.reshape(shape), sign.reshape(shape))
        return self._eps[key]

    # -- word side ------------------------------------------------------------

    def _action_table(self, k: int, m: int):
        """``action_table`` of every necklace of weight m on the words of
        length k, kept for every cell."""
        key = (k, m)
        if key not in self._act:
            self._act[key] = action_table(self.ctx, k, m)
        return self._act[key]

    def _mu_table(self, k: int) -> dict:
        """The handle's ``mu_table(k)``, checked: every split-off weight m
        lowers the word length k by m + 2, every index is in its range, and
        every coefficient is an int (``int_values``)."""
        base, out = 2 * self.g, {}
        for m, (sr, nl, tr, c) in self.mu.mu_table(k).items():
            if not 1 <= m <= k - 2:
                raise ValueError("the comodule handle does not lower the weight by 2")
            tops = (base**k, necklace_count(self.g, m), base ** (k - 2 - m))
            for idx, top in zip((sr, nl, tr), tops):
                if idx.size and not 0 <= idx.min() <= idx.max() < top:
                    raise ValueError(f"the comodule table of length {k} has an index out of range")
            out[m] = (sr, nl, tr, int_values(c))
        return out

    # -- module operators -------------------------------------------------------

    def _module_coo(self, op: str, p: int, w: int, tp: int):
        src, dst = mod_layout(self.g, p, w), mod_layout(self.g, tp, w - 2)
        rows, cols, vals = [], [], []

        def put(k_src, k_tgt, r, c, v):
            rows.append(dst.offsets[k_tgt] + r)
            cols.append(src.offsets[k_src] + c)
            vals.append(v)

        for k, ds in enumerate(src.wedge_dims):
            if not ds:
                continue
            v = w - k
            # 1 (x) boundary, or -1 (x) d: the wedge operator on every word
            if k < len(dst.wedge_dims) and dst.wedge_dims[k]:
                r, c, x = self._wedge_coo(op, p, v)
                words = np.arange((2 * self.g) ** k, dtype=np.int64)[:, None]
                put(k, k, words * dst.wedge_dims[k] + r, words * ds + c,
                    np.broadcast_to(x if op == "boundary" else -x, (len(words), len(x))))
            if op == "boundary":
                if k == 0:
                    continue
                for m, (j, nl, t, sg) in self._iota_table(p, v).items():
                    kt = k + m - 2
                    if kt < 0 or not dst.wedge_dims[kt]:
                        continue
                    a_src, a_tgt, a_sign = self._action_table(k, m)
                    put(k, kt, a_tgt[nl] * dst.wedge_dims[kt] + t[:, None],
                        a_src[nl] * ds + j[:, None], a_sign[nl] * sg[:, None])
            else:
                for m, (sr, nl, tr, c) in self._mu_table(k).items():
                    kt = k - 2 - m
                    if not dst.wedge_dims[kt]:
                        continue
                    e_tgt, e_sign = self._eps_table(p, v, m)
                    x = c[:, None] * e_sign[:, nl].T
                    keep = x != 0
                    put(k, kt, (tr[:, None] * dst.wedge_dims[kt] + e_tgt[:, nl].T)[keep],
                        (sr[:, None] * ds + np.arange(ds))[keep], x[keep])
        return _coo(rows, cols, vals)
