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

Every operator here is that of the canonical (Schedler) structure: the
cobracket and the comodule map are read from the tables of
``NecklaceContext`` (``delta_table``, ``mu_table``).  A deformed structure
is compared with it in ``necklaces.deform``, through its difference
pieces.  :class:`AlgCobracket` and :class:`AlgComodule` give the canonical
maps on words, for the CLI and the word-level identity checks.

Boundary and coboundary matrices have one builder, :class:`CellOperators`
(int64).  It reads a wedge cell as an int64 array of its index tuples
(``wedge_cell``) and emits the wedge operators on such arrays
(``boundary_terms``, ``cochain_terms``) from the necklace brackets and
cobracket tables, ranking the target tuples by ``cell_positions``; the
module operators come from their word and wedge factors by the layout
above.  No monomial is emitted one by one on this path, and no
``WedgeBasis`` is built for it.  ``assemble`` and the homology engine read
the matrices through ``SparseRationalMatrix.from_int_csc``.  The operators
on chain vectors emit through the same ``boundary_terms`` and
``cochain_terms`` on the tuples of the vector's support only, and so do
the deformation checks and pieces in ``necklaces.deform`` on theirs.
Every bracket is read through ``NecklaceContext.brackets``, which alone
chooses between a whole-weight table and the pairs asked.  Gamma and sigma
have one emitter each, ``gamma_terms`` and ``sigma_terms``, read here and
by ``necklaces.deform``.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import words as W
from .errors import CellTooLarge, GenusMismatch
from .lie import DerivationElem, NecklaceContext, algebra, necklace_count
from .linalg import SparseRationalMatrix, int_csc
from .tensors import Coeff, TermMap, axpy, coeff_str, parse_coeff, _csr, _gather, _joined, _prune, _summed

WedgeKey = tuple[int, ...]
ModKey = tuple[W.WordKey, WedgeKey]


# -- handles ---------------------------------------------------------------


class AlgCobracket:
    """The canonical necklace cobracket on necklace words."""

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def delta_word(self, nw: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """delta of N(nw) as a map (wa, wb) -> coeff, wa before wb in the
        basis order."""
        return {(wa, wb): c for wa, wb, c in self._ctx.delta_word(nw)}


class AlgComodule:
    """The canonical word-splitting comodule map on words."""

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def mu_word(self, word: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """mu of a word as a map (word, necklace word) -> coeff."""
        acc: dict = {}
        axpy(acc, 1, (((rest, neck), s) for rest, neck, s in self._ctx.mu_word(word)))
        return acc


# -- bases ------------------------------------------------------------------


class _LazyBasis:
    """An ordered cell basis whose list of monomials (``_enumerate``) and
    position dict are built when first read; ``monomial(i)`` decodes one
    monomial without them (``_decode``).  The operator matrices build
    neither."""

    __slots__ = ("g", "p", "w", "_monomials", "_position")

    @property
    def monomials(self) -> list:
        if self._monomials is None:
            self._monomials = self._enumerate()
        return self._monomials

    @property
    def position(self) -> dict:
        """The position of each monomial; a caller that ranks a few wedge
        tuples can use ``cell_positions`` instead."""
        if self._position is None:
            self._position = {t: i for i, t in enumerate(self.monomials)}
        return self._position

    def monomial(self, i: int):
        return self._decode(i) if self._monomials is None else self._monomials[i]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(g={self.g}, p={self.p}, w={self.w}, dim={self.dim()})"


class WedgeBasis(_LazyBasis):
    """Ordered basis of the (p, w) cell of the exterior algebra: the rows of
    ``wedge_cell`` as Python tuples, with their positions, for the callers
    that need monomials (chain vectors as terms, homology representatives)."""

    __slots__ = ("_cell",)

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        self._cell = wedge_cell(g, p, w)
        self._monomials = self._position = None

    def _enumerate(self) -> list[WedgeKey]:
        cell = self._cell
        shared = list(range(cell.max(initial=-1) + 1))  # one int object per index
        columns = (map(shared.__getitem__, col) for col in cell.T.tolist())
        return list(zip(*columns)) if self.p else [()] * len(cell)

    def _decode(self, i: int) -> WedgeKey:
        return tuple(self._cell[i].tolist())

    def dim(self) -> int:
        return len(self._cell)

    def describe(self, i: int) -> str:
        ctx = algebra(self.g)
        parts = [f"N({W.word_name(ctx.word_at(k))})" for k in self.monomial(i)]
        return "^".join(parts) if parts else "1"


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


class ModWedgeBasis(_LazyBasis):
    """Ordered basis of the (p, w) module cell: (word, wedge tuple) pairs
    with len(word) + wedge weight = w, in the ``mod_layout`` order.  A
    pair is decoded from its block (bisecting the block offsets), the
    base-2g digits of its word rank and its row of the wedge cell."""

    __slots__ = ("_layout",)

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        self._layout = mod_layout(g, p, w)
        self._monomials = self._position = None

    def _enumerate(self) -> list[ModKey]:
        return [(word, t) for k, d in enumerate(self._layout.wedge_dims) if d
                for sub in (wedge_basis(self.g, self.p, self.w - k).monomials,)
                for word in product(range(2 * self.g), repeat=k) for t in sub]

    def _decode(self, i: int) -> ModKey:
        offsets, dims = self._layout
        i += offsets[-1] if i < 0 else 0  # from the end, as a list index
        if not 0 <= i < offsets[-1]:
            raise IndexError(f"position {i} is out of the module cell of dim {offsets[-1]}")
        k = bisect_right(offsets, i) - 1
        rank, pos = divmod(i - offsets[k], dims[k])
        word = [rank // (2 * self.g) ** e % (2 * self.g) for e in range(k - 1, -1, -1)]
        return tuple(word), tuple(wedge_cell(self.g, self.p, self.w - k)[pos].tolist())

    def dim(self) -> int:
        return self._layout.dim

    def describe(self, i: int) -> str:
        word, t = self.monomial(i)
        ctx = algebra(self.g)
        wedge = "^".join(f"N({W.word_name(k2)})" for k2 in map(ctx.word_at, t))
        return f"({W.word_name(word) or '1'})(x)({wedge or '1'})"


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


# -- array emissions -----------------------------------------------------------
#
# The wedge operators on an int64 array of sorted index tuples, one tuple a
# row (a whole cell, ``wedge_cell``, or any part of one): the terms come
# out as (source row, target tuples, coeff) arrays, the target tuples
# sorted, and no term where an inserted index is already a factor.  Every
# bracket is read through ``NecklaceContext.brackets``; the cobracket is
# gathered from a table per weight of the factors it acts on, and Gamma
# rotates the necklaces present only.


def _insert(rest: np.ndarray, new: np.ndarray):
    """Insert the columns of new into the sorted rows of rest: (sorted rows,
    the sign (-1)^{#(rest < x)} multiplied over x in new, and the mask of
    the rows where some x is already in rest).  The x of a row must be
    distinct and, when two, increasing (a ^ b ^ rest is sorted)."""
    below = (rest[:, :, None] < new[:, None, :]).sum(axis=(1, 2))
    clash = (rest[:, :, None] == new[:, None, :]).any(axis=(1, 2))
    return np.sort(np.concatenate([rest, new], axis=1), axis=1), 1 - 2 * (below & 1), clash


def boundary_terms(ctx: NecklaceContext, tuples: np.ndarray):
    """The boundary of each row of an int64 array of sorted index tuples
    (n, p): arrays (source row, target tuple (t, p-1), coeff).  For each
    pair of factors the terms of their bracket (``NecklaceContext.brackets``)
    are inserted in place of the two factors: the sign is (-1)^{i+j} of the
    pair of factors (1-based) times the insertion sign of ``_insert``."""
    n, p = tuples.shape
    parts = []
    for ii in range(p):
        for jj in range(ii + 1, p):
            rest = np.delete(tuples, (ii, jj), axis=1)
            s0 = -1 if (ii + jj) % 2 == 1 else 1  # (-1)^{i+j}, 1-based
            src, target, coeff = ctx.brackets(tuples[:, ii], tuples[:, jj])
            new, sign, clash = _insert(rest[src], target[:, None])
            keep = ~clash
            parts.append((src[keep], new[keep], (s0 * sign * coeff)[keep]))
    return _joined(parts, 0, (0, max(p - 1, 0)), 0)


def cochain_terms(ctx: NecklaceContext, table, tuples: np.ndarray):
    """The cochain d of each row of an int64 array of sorted index tuples
    (n, p): arrays (source row, target tuple (t, p+1), coeff).  table(m)
    gives the cobracket of the necklaces of weight m in CSR form over them,
    (indptr, a, b, coeff) with a < b (``_delta_csr``); each
    factor is deleted and both halves of its cobracket inserted: the sign
    is (-1)^i of the factor (1-based) times the insertion sign of
    ``_insert``."""
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
    return _joined(parts, 0, (0, p + 1), 0)


def _act_pairs(ctx: NecklaceContext, k: int, m: int, ranks: np.ndarray, local: np.ndarray):
    """The action of the necklace offset(m) + local[q] on the word of
    length k of rank ranks[q], for each q: arrays (q, target rank, sign),
    the terms of ``action_table`` for those pairs only."""
    base = 2 * ctx.g
    nu, at = np.unique(local, return_inverse=True)
    rots = ctx.rotations(m, nu)[at]  # rotation a of pair q in [q, a]
    y = rots[:, :, 0] ^ 1  # the word letter that pairs with the first letter
    tail = rots[:, :, 1:] @ base ** np.arange(m - 2, -1, -1, dtype=np.int64)
    parts = []
    for pos in range(k):
        low = base ** (k - 1 - pos)
        q, a = np.nonzero(y == (ranks // low % base)[:, None])
        r = ranks[q]
        tgt = (r // (low * base) * base ** (m - 1) + tail[q, a]) * low + r % low
        parts.append((q, tgt, np.where(y[q, a] % 2 == 1, 1, -1)))
    return _joined(parts, 0, 0, 0)


def gamma_terms(ctx: NecklaceContext, k: int, ranks: np.ndarray, tuples: np.ndarray):
    """Gamma on (the word of length k and rank ranks[q]) (x) tuples[q] for
    each row q of an int64 array of sorted tuples (n, p), of any cells: each
    X_i acts on the word (``_act_pairs``) and is removed with the sign (-1)^i
    (1-based).  Arrays (q, target length, target rank, target tuple, sign)."""
    p = tuples.shape[1]
    parts = []
    for ii in range(p if k else 0):
        rest = np.delete(tuples, ii, axis=1)
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        for m, rows, local in ctx.weight_groups(tuples[:, ii]):
            j, tw, sign = _act_pairs(ctx, k, m, ranks[rows], local)
            parts.append((rows[j], np.full(len(j), k + m - 2), tw, rest[rows[j]], s0 * sign))
    return _joined(parts, 0, 0, 0, (0, max(p - 1, 0)), 0)


def sigma_terms(ctx: NecklaceContext, necks: np.ndarray, tuples: np.ndarray):
    """sigma(N_n)(t) = sum_i X_1 ^ ... ^ [N_n, X_i] ^ ... ^ X_p for each n =
    necks[j] and each row t of an int64 array of sorted tuples (r, p):
    arrays (pair j * r + row, target tuple, coeff).  Each bracket of a pair
    present (``NecklaceContext.brackets``) is inserted by ``_insert``,
    with the sign (-1)^{i-1} (1-based) of moving X_i to the front."""
    r, p = tuples.shape
    parts = []
    for ii in range(p):
        q, new, coeff = ctx.brackets(np.repeat(necks, r), np.tile(tuples[:, ii], len(necks)))
        new, sign, clash = _insert(np.delete(tuples, ii, axis=1)[q % r], new[:, None])
        keep = ~clash
        parts.append((q[keep], new[keep], ((-1) ** ii * sign * coeff)[keep]))
    return _joined(parts, 0, (0, p), 0)


def _delta_csr(ctx: NecklaceContext, m: int, local: np.ndarray | None = None) -> tuple:
    """``NecklaceContext.delta_table(m, local)`` in CSR form over the
    necklaces of weight m (``tensors._csr``): (indptr, a, b, coeff)."""
    return _csr([tuple(ctx.delta_table(m, local))], necklace_count(ctx.g, m), 2)


# -- operators on chain vectors ----------------------------------------------
#
# Each emits on the int64 tuples of the vector's support only, by the array
# emissions above, and sums the terms times the coefficients (``_image``):
# exact, whatever their type.  The cobracket and the comodule map are the
# context's tables of the necklaces and words present (``delta_table(m,
# local)``, ``mu_table(k, local)``), so their cost follows the support; the
# brackets are ``NecklaceContext.brackets``, which reads a whole-weight
# table only once the pairs asked of it add up to the table.


def _support_delta(ctx: NecklaceContext, tuples: np.ndarray):
    """The ``cochain_terms`` table for the factors of tuples: the
    ``_delta_csr`` of the necklaces present only."""
    present = np.unique(tuples)

    @lru_cache(maxsize=None)
    def table(m: int):
        return _delta_csr(ctx, m, present[ctx.weights(present) == m] - ctx.offset(m))

    return table


def _ranked(g: int, p: int, w: int, tuples: np.ndarray) -> np.ndarray:
    """``cell_positions`` of the tuples, none when there are none."""
    return cell_positions(g, p, w, tuples) if len(tuples) else np.zeros(0, dtype=np.int64)


def _image(cls, target, coeffs: list, parts: list):
    """The vector in target of the terms (q, target position, int coeff)
    of the parts, each times coeffs[q]."""
    q, pos, coeff = _joined(parts, 0, 0, 0)
    (pos, q), coeff = _summed((pos, q), coeff)
    acc: dict = {}
    for i, j, c in zip(pos.tolist(), q.tolist(), coeff.tolist()):
        acc[i] = acc.get(i, 0) + c * coeffs[j]
    return cls(target, acc)


def _support(x: "_CellVector") -> np.ndarray:
    return np.fromiter(x.coeffs, dtype=np.int64, count=len(x.coeffs))


def _blocks(layout: ModLayout, positions: np.ndarray):
    """Module positions by block: (k, which positions, word ranks, wedge
    positions in (p, w - k)) per word length k present."""
    offsets, dims = layout
    ks = np.searchsorted(offsets, positions, side="right") - 1
    for k in np.unique(ks).tolist():
        q = np.flatnonzero(ks == k)
        yield (k, q) + divmod(positions[q] - offsets[k], dims[k])


def _at(layout: ModLayout, k: int, ranks: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Module positions of (word of length k and rank, wedge position)."""
    return layout.offsets[k] + ranks * layout.wedge_dims[k] + pos if len(pos) else pos


def boundary(x: ChainVector) -> ChainVector:
    """Chevalley-Eilenberg boundary; lands in (p-1, w-2); zero on p = 1."""
    g, p, w = x.basis.g, x.basis.p, x.basis.w
    if p < 1:
        raise ValueError("boundary needs p >= 1")
    target = wedge_basis(g, p - 1, max(w - 2, 0))
    src, new, coeff = boundary_terms(algebra(g), wedge_cell(g, p, w)[_support(x)])
    return _image(ChainVector, target, list(x.coeffs.values()),
                  [(src, _ranked(g, p - 1, w - 2, new), coeff)])


def sigma_wedge(y: DerivationElem, x: ChainVector) -> ChainVector:
    """Diagonal action of a weight-homogeneous derivation on a wedge cell,
    emitted by ``sigma_terms`` on the vector's support."""
    ws = y.weight_support()
    if len(ws) > 1:
        raise ValueError("sigma_wedge needs a weight-homogeneous derivation")
    g, p, w = x.basis.g, x.basis.p, x.basis.w
    if y.g != g:
        raise GenusMismatch(f"genus {y.g} != {g}")
    target = wedge_basis(g, p, max(w + ws[0] - 2, 0) if ws else w)
    ctx = algebra(g)
    necks = np.array([ctx.index_of_word(nw) for nw in y.terms], dtype=np.int64)
    q, new, coeff = sigma_terms(ctx, necks, wedge_cell(g, p, w)[_support(x)])
    coeffs = [cy * cx for cy in y.terms.values() for cx in x.coeffs.values()]
    return _image(ChainVector, target, coeffs, [(q, _ranked(g, p, target.w, new), coeff)])


def cochain_d(x: ChainVector) -> ChainVector:
    """Cobracket-induced coboundary; lands in (p+1, w-2); 0 on scalars."""
    g, p, w = x.basis.g, x.basis.p, x.basis.w
    target = wedge_basis(g, p + 1, max(w - 2, 0))
    ctx, tuples = algebra(g), wedge_cell(g, p, w)[_support(x)]
    src, new, coeff = cochain_terms(ctx, _support_delta(ctx, tuples), tuples)
    return _image(ChainVector, target, list(x.coeffs.values()),
                  [(src, _ranked(g, p + 1, w - 2, new), coeff)])


def mod_boundary(x: ModChainVector) -> ModChainVector:
    """Module boundary Gamma + 1 (x) boundary; lands in (p-1, w-2)."""
    g, p, w = x.basis.g, x.basis.p, x.basis.w
    if p < 1:
        raise ValueError("module boundary needs p >= 1")
    target = mod_wedge_basis(g, p - 1, max(w - 2, 0))
    dst, ctx, parts = mod_layout(g, p - 1, max(w - 2, 0)), algebra(g), []
    for k, q, ranks, pos in _blocks(mod_layout(g, p, w), _support(x)):
        tuples = wedge_cell(g, p, w - k)[pos]
        src, new, coeff = boundary_terms(ctx, tuples)
        parts.append((q[src], _at(dst, k, ranks[src], _ranked(g, p - 1, w - k - 2, new)), coeff))
        j, tl, tw, rest, sign = gamma_terms(ctx, k, ranks, tuples)
        for length in np.unique(tl).tolist():
            at = np.flatnonzero(tl == length)
            pos = _ranked(g, p - 1, w - 2 - length, rest[at])
            parts.append((q[j[at]], _at(dst, length, tw[at], pos), sign[at]))
    return _image(ModChainVector, target, list(x.coeffs.values()), parts)


def mod_cochain_d(x: ModChainVector) -> ModChainVector:
    """Module coboundary mu(m)^xi - m (x) d xi, the minus constant in p (see
    ``mod_cochain_monomial`` in tests/oracles.py); lands in (p+1, w-2)."""
    g, p, w = x.basis.g, x.basis.p, x.basis.w
    target = mod_wedge_basis(g, p + 1, max(w - 2, 0))
    dst, ctx, parts = mod_layout(g, p + 1, max(w - 2, 0)), algebra(g), []
    for k, q, ranks, pos in _blocks(mod_layout(g, p, w), _support(x)):
        tuples = wedge_cell(g, p, w - k)[pos]
        src, new, coeff = cochain_terms(ctx, _support_delta(ctx, tuples), tuples)
        parts.append((q[src], _at(dst, k, ranks[src], _ranked(g, p + 1, w - k - 2, new)), -coeff))
        # mu(m) ^ xi: each term of mu(word) meets every row of that word
        words, inv = np.unique(ranks, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        indptr = np.searchsorted(inv[order], np.arange(len(words) + 1))
        for m, (sr, nl, tr, c) in ctx.mu_table(k, words).items():
            word_at = np.searchsorted(words, sr)
            mine = np.flatnonzero(words.take(word_at, mode="clip") == sr)  # other words are not read
            which, at = _gather(indptr, word_at[mine])
            which, rows = mine[which], order[at]
            new, sign, clash = _insert(tuples[rows], nl[which, None] + ctx.offset(m))
            keep = ~clash
            parts.append((q[rows[keep]],
                           _at(dst, k - 2 - m, tr[which[keep]], _ranked(g, p + 1, w - k + m, new[keep])),
                           (c[which] * sign)[keep]))
    return _image(ModChainVector, target, list(x.coeffs.values()), parts)


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


def assemble(op: str, g: int, p: int, w: int) -> SparseRationalMatrix:
    """Matrix of an operator out of the (p, w) cell, in the enumerated
    bases: the ``CellOperators`` matrix as dict columns.  Column j is the
    image of the j-th source monomial."""
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")
    ops = CellOperators(g, module=op.startswith("mod_"))
    return SparseRationalMatrix.from_int_csc(getattr(ops, op.removeprefix("mod_"))(p, w))


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
# iota_n removes n from a wedge tuple with the sign (-1)^i of its place i
# (1-based), M_n is the part of mu that splits off n, read from
# ``NecklaceContext.mu_table`` (computed for every word of a length at
# once, by rank arithmetic), and eps_n inserts n with the sign
# (-1)^{#(factors below n)} (``_insert``).  The word-side tables are shared by every
# cell; the wedge-side tables are small.  Their product over n is numpy
# index arithmetic, so no module monomial and no word is ever enumerated.


def action_table(ctx: NecklaceContext, k: int, m: int):
    """The action of the necklaces of weight m on the words of length k, as
    rank arrays (src, tgt, sign) of shape (necklaces, terms): row i is the
    necklace offset(m) + i.  Each row has the same terms, one per
    (position, rotation, word with the paired letter at that position), as
    ``NecklaceContext.act_word`` lists them.  Sized with ``CellTooLarge``
    first."""
    base = 2 * ctx.g
    CellTooLarge.check(
        f"the action table of the weight-{m} necklaces on the words of length {k}",
        necklace_count(ctx.g, m) * m * k * base ** (k - 1),
    )
    rots = ctx.rotations(m)  # rotation a in row a
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
    cochain d of the canonical structure out of each cell: of the wedge
    cells, or of the module cells when ``module`` is set.  They are the
    matrices of the monomial emitters, with explicit zeros where terms
    cancel, and of the right shape for any (p, w), but built from tables by
    numpy index arithmetic: a wedge cell is an int64 array of its tuples
    (``wedge_cell``), the wedge operators are the array emissions
    ``boundary_terms`` (from ``NecklaceContext.brackets``) and
    ``cochain_terms`` (from ``NecklaceContext.delta_table``), and the
    target tuples are ranked by ``cell_positions``.  The module coboundary
    reads mu from ``NecklaceContext.mu_table``.  A cell or table over the
    ``CellTooLarge`` budget raises before it is built."""

    def __init__(self, g: int, module: bool = False):
        self.g = g
        self.ctx = algebra(g)
        self.module = module
        self._wedge: dict = {}
        self._delta: dict = {}
        self._iota: dict = {}
        self._eps: dict = {}
        self._act: dict = {}

    def dim(self, p: int, w: int) -> int:
        """The dimension of the cell, counted without enumerating it."""
        if self.module:
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
        if self.module:
            r, c, v = self._module_coo(op, p, w, tp)
        else:
            r, c, v = self._wedge_coo(op, p, w)
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
        """``_delta_csr`` of every necklace of weight m, kept."""
        if m not in self._delta:
            self._delta[m] = _delta_csr(self.ctx, m)
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
                sign = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
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

    # -- module operators -------------------------------------------------------

    def _module_coo(self, op: str, p: int, w: int, tp: int):
        src, dst = mod_layout(self.g, p, w), mod_layout(self.g, tp, w - 2)
        parts = []

        def put(k_src, k_tgt, r, c, v):
            parts.append(tuple(map(np.ravel, (dst.offsets[k_tgt] + r, src.offsets[k_src] + c, v))))

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
                for m, (sr, nl, tr, c) in self.ctx.mu_table(k).items():
                    kt = k - 2 - m
                    if not dst.wedge_dims[kt]:
                        continue
                    e_tgt, e_sign = self._eps_table(p, v, m)
                    x = c[:, None] * e_sign[:, nl].T
                    keep = x != 0
                    put(k, kt, (tr[:, None] * dst.wedge_dims[kt] + e_tgt[:, nl].T)[keep],
                        (sr[:, None] * ds + np.arange(ds))[keep], x[keep])
        return _joined(parts, 0, 0, 0)
