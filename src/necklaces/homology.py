"""Weight-graded Lie algebra (co)homology and the coboundary operators
induced on it.

Every computation is per cell: H(p, w) = ker(boundary at (p, w)) modulo
im(boundary at (p+1, w+2)).  Kernel representatives are the canonical
kernel basis vectors (one per free column) that survive reduction
against a fixed echelon basis of the boundary image, so outputs are
deterministic.

The operator matrices are the int64 matrices of ``complexes.CellOperators``.
Their dict columns (``SparseRationalMatrix.from_int_csc``) are kept only
where a kernel or a matrix-vector product needs them.

A boundary rank, on the Lie complex and on the module complex alike, is
a sum of block ranks (``linalg.block_ranks``).  A necklace's multidegree,
the net a-minus-b letter count per symplectic pair (``words.multidegree``),
is kept by the bracket and by the action on words, so no boundary entry
joins two multidegrees of wedge tuples, or of (word, tuple) pairs counting
the word's letters too.  Because boundary . boundary = 0 block by block,
block L of the boundary at (p, w) has rank at most the rows of block L
minus the rank of block L of the boundary out of (p-1, w-2); the bound is
used only after the product of the two int64 boundaries has been
certified to be exactly zero under the ``product_bound_ok`` overflow
guard.  On the Lie complex the signed pair permutations (a_i -> b_i,
b_i -> -a_i, and the swaps of pairs) act on both cells; once the whole
boundary is checked, entry for entry, to commute with the signed cell maps
of each generator, one block per orbit is eliminated and its rank is
reused for the orbit.  If a check fails, every block is, as on a module
cell.

``homology()`` computes the dimension first.  When it is 0 no kernel and
no reducer are formed: class coordinates are [] and a vector that is not
a cycle is refused.  Otherwise ``kernel_basis`` runs over the cell's
boundary, and the representatives are reduced against the canonical
echelon form of the boundary above, one ``column_echelon_int`` pass
stopped at that boundary's rank, which is known by then.

The coboundary induced by the involutive cobracket maps H(p, w) to
H(p+1, w-2); before descending to homology the engine verifies the
anticommutation identity at the cells involved, as certified int64
products, and raises NotChainMap on failure (which would signal a wrong
operator table).

The alternating-sum consistency check along a diagonal s = w - 2p uses
rank-nullity telescoping: over any computed range a <= p <= b,

  sum (-1)^p dim C_p  =  sum (-1)^p dim H_p
                         + (-1)^a rank(boundary out of the bottom cell)
                         + (-1)^b rank(boundary into the top cell),

and the correction terms vanish when the diagonal is complete, giving the
textbook Euler identity.
"""

from functools import partial
from itertools import combinations

import numpy as np

from . import complexes as C
from .errors import NotChainMap
from .lie import algebra
from .linalg import (
    EchelonReducer,
    SparseRationalMatrix,
    block_ranks,
    certified_product,
    column_echelon_int,
    csc_is_zero,
    int_csc,
    kernel_basis,
    rank,
)
from .tensors import Coeff

Multidegree = tuple[int, ...]


class HomologySpace:
    """One homology cell: dimension plus canonical cycle representatives.
    A cell whose homology vanishes has no reducer (None); it is given the
    boundary matrix out of the cell instead, read when a class is asked
    for, since there every cycle is a boundary."""

    def __init__(self, g: int, p: int, w: int, module: bool, dim: int,
                 representatives: list, reducer: EchelonReducer | None, basis,
                 boundary=None):
        self.g, self.p, self.w = g, p, w
        self.module = module
        self.dim = dim
        self.representatives = representatives  # ChainVector / ModChainVector
        self._reducer = reducer
        self._boundary = boundary
        self.basis = basis

    def class_coordinates(self, coeffs: dict[int, Coeff]) -> list[Coeff]:
        """Coordinates of a cycle's class in the representative basis;
        raises ValueError on a vector that is not a cycle."""
        if self._reducer is None:
            if self._boundary().matvec(coeffs):
                raise ValueError("vector is not a cycle in this cell")
            return []
        rem, used = self._reducer.reduce(coeffs)
        if rem:
            raise ValueError("vector is not a cycle in this cell")
        out: list[Coeff] = [0] * self.dim
        for tag, c in used.items():
            kind, idx = tag
            if kind == "rep":
                out[idx] = c
        return out

    def __repr__(self) -> str:
        kind = "module " if self.module else ""
        return f"H_{{{self.p},{self.w}}}({kind}dim={self.dim})"


class InducedMap:
    """The coboundary on homology between two cells, in the representative
    bases."""

    def __init__(self, source: HomologySpace, target: HomologySpace,
                 matrix: SparseRationalMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self) -> str:
        return (
            f"InducedMap(H_{{{self.source.p},{self.source.w}}} -> "
            f"H_{{{self.target.p},{self.target.w}}})"
        )


class HomologyEngine:
    """Caches the operator matrices, the boundary ranks (multidegree block
    ranks) and the homology spaces per cell for a fixed genus, of the Lie
    complex or, with ``module``, of the module complex of the canonical
    structure.  Each boundary is block-ranked once.  On
    a cell whose homology does not vanish, ``homology()`` adds a
    ``kernel_basis`` pass over the cell's boundary and one echelon pass,
    stopped at the known rank, over the boundary above."""

    def __init__(self, g: int, module: bool = False):
        self.g = g
        self.module = module
        self._ops = C.CellOperators(g, module)
        self._int: dict[tuple[str, int, int], object] = {}
        self._columns: dict[tuple[str, int, int], SparseRationalMatrix] = {}
        self._ranks: dict[tuple[int, int], dict[Multidegree, int]] = {}
        self._hom: dict[tuple[int, int], HomologySpace] = {}
        self._anti_ok: dict[tuple[int, int], bool] = {}

    # -- cells ----------------------------------------------------------

    def cell_basis(self, p: int, w: int):
        if p < 0 or w < 0:
            return None
        return (C.mod_wedge_basis if self.module else C.wedge_basis)(self.g, p, w)

    def cell_dim(self, p: int, w: int) -> int:
        return self._ops.dim(p, w)

    def _operator(self, name: str, p: int, w: int):
        """The int64 matrix of "boundary" or "cochain_d" out of (p, w)."""
        key = (name, p, w)
        if key not in self._int:
            self._int[key] = getattr(self._ops, name)(p, w)
        return self._int[key]

    def _matrix(self, name: str, p: int, w: int) -> SparseRationalMatrix:
        key = (name, p, w)
        if key not in self._columns:
            self._columns[key] = SparseRationalMatrix.from_int_csc(self._operator(name, p, w))
        return self._columns[key]

    def boundary_matrix(self, p: int, w: int) -> SparseRationalMatrix:
        return self._matrix("boundary", p, w)

    def cochain_matrix(self, p: int, w: int) -> SparseRationalMatrix:
        return self._matrix("cochain_d", p, w)

    def _boundary_echelon(self, p: int, w: int) -> dict[int, dict[int, int]]:
        """``column_echelon_int`` of the boundary matrix at (p, w), stopped
        at its rank (``boundary_rank``): the same dict, and {} at rank 0.
        The dict columns are built for the pass and kept only if a kernel
        or a matrix-vector product has already asked for them."""
        bound = self.boundary_rank(p, w)
        if bound == 0:
            return {}
        matrix = self._columns.get(("boundary", p, w))
        if matrix is None:
            matrix = SparseRationalMatrix.from_int_csc(self._operator("boundary", p, w))
        return column_echelon_int(matrix, bound)

    def _product_vanishes(self, p: int, w: int) -> bool:
        """Whether the int64 product of the boundaries out of (p-1, w-2)
        and (p, w) is certified to be exactly zero (``product_bound_ok``)."""
        try:
            prod = certified_product(
                self._operator("boundary", p - 1, w - 2), self._operator("boundary", p, w)
            )
        except OverflowError:
            return False
        return csc_is_zero(prod)

    def boundary_rank(self, p: int, w: int) -> int:
        """The rank of the boundary at (p, w): the sum of its multidegree
        block ranks (``_block_ranks``)."""
        return sum(self._block_ranks(p, w).values())

    def _cell_labels(self, p: int, w: int, necks: np.ndarray) -> np.ndarray:
        """The multidegree label of each basis element of cell (p, w), in
        basis order, from the necklace labels ``necks``
        (``_necklace_labels``).  A wedge tuple's label is the sum over its
        necklaces.  A module element (word, tuple) adds the letters of its
        word, block by block of ``mod_layout``, the words of each block in
        ``product(range(2g), repeat=k)`` order."""
        def tuples(v: int) -> np.ndarray:
            return necks[C.wedge_cell(self.g, p, v)].sum(axis=1)

        if not self.module:
            return tuples(w)
        letters = necks[:2 * self.g]  # the weight-1 necklaces, in letter order
        dims = C.mod_layout(self.g, p, w).wedge_dims
        word, blocks = np.zeros(1, dtype=np.int64), [np.zeros(0, dtype=np.int64)]
        for k, d in enumerate(dims):
            if d:
                blocks.append((word[:, None] + tuples(w - k)).ravel())
            if any(dims[k + 1:]):  # the words of length k + 1
                word = (word[:, None] + letters).ravel()
        return np.concatenate(blocks)

    def _block_ranks(self, p: int, w: int) -> dict[Multidegree, int]:
        """{multidegree: rank} of the blocks of the boundary at (p, w).  No
        entry of a boundary joins two multidegrees (``_cell_labels``), so
        its rank is the sum of its block ranks: one ``block_ranks`` pass,
        over one block per orbit (``_orbit_reps``) on a Lie cell, and over
        every block on a module cell or when the orbits are not certified.
        Once the product of this boundary and the one below it is
        certified zero, block L is bounded by its rows minus the rank of
        block L below."""
        key = (p, w)
        if key in self._ranks:
            return self._ranks[key]
        ranks: dict[Multidegree, int] = {}
        if p >= 1 and self.cell_dim(p, w) and self.cell_dim(p - 1, w - 2):
            base = 2 * w + 1
            words = _necklace_words(self.g, w - p + 1)
            necks = _necklace_labels(words, base)
            rows = self._cell_labels(p - 1, w - 2, necks)
            cols = self._cell_labels(p, w, necks)
            m = self._operator("boundary", p, w)
            bounds = None
            if p >= 2 and self._product_vanishes(p, w):
                lower = self._block_ranks(p - 1, w - 2)
                labels, counts = np.unique(rows, return_counts=True)
                bounds = {x: n - lower.get(_multidegree(x, base, self.g), 0)
                          for x, n in zip(labels.tolist(), counts.tolist())}
            reps = None if self.module else self._orbit_reps(p, w, m, cols, words)
            if reps is None:
                found = block_ranks(m, rows, cols, bounds)
            else:
                keep = np.isin(cols, list(set(reps.values())))
                done = block_ranks(m[:, keep], rows, cols[keep], bounds)
                found = {x: done[rep] for x, rep in reps.items()}
            ranks = {_multidegree(x, base, self.g): r for x, r in found.items() if r}
        self._ranks[key] = ranks
        return ranks

    def _orbit_reps(self, p: int, w: int, m, cols: np.ndarray, words: list) -> dict[int, int] | None:
        """{label: the least label of its orbit} for the column labels of
        the boundary m at (p, w), under the maps of ``_pair_generators``;
        None unless every map is certified.  A generator's necklace map
        gives signed maps of the two cells (``_cell_map``); it is certified
        when both are bijections, m is equivariant under them entry for
        entry, and they carry the columns of each block onto the columns of
        one block, distinct blocks onto distinct blocks.  Block and image
        block then have the same rank, so one block per orbit is ranked."""
        labels, block = np.unique(cols, return_inverse=True)
        reps = list(range(len(labels)))

        def find(x):
            while reps[x] != x:
                x = reps[x]
            return x

        for image, sign in _pair_generators(self.g):
            nmap, nsign = _necklace_map(self.g, words, image, sign)
            tau, t = _cell_map(self.g, p, w, nmap, nsign)
            sigma, s = _cell_map(self.g, p - 1, w - 2, nmap, nsign)
            if tau is None or sigma is None:
                return None
            c = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
            moved = int_csc(*m.shape, sigma[m.indices], tau[c], s[m.indices] * t[c] * m.data)
            if not csc_is_zero(moved - m):
                return None
            to = np.zeros(len(labels), dtype=np.int64)
            to[block] = block[tau]
            if not np.array_equal(to[block], block[tau]) or len(np.unique(to)) < len(labels):
                return None
            for x, y in enumerate(to.tolist()):
                x, y = find(x), find(y)
                reps[max(x, y)] = min(x, y)
        return dict(zip(labels.tolist(), labels[[find(i) for i in range(len(labels))]].tolist()))

    # -- homology ---------------------------------------------------------

    def homology(self, p: int, w: int) -> HomologySpace:
        """H(p, w) with its representatives.  Where the homology vanishes
        this forms no kernel and no reducer: the space holds only the
        boundary out of the cell, to test that a vector is a cycle."""
        key = (p, w)
        if key in self._hom:
            return self._hom[key]
        basis = self.cell_basis(p, w)
        if self.homology_dim(p, w) == 0:
            space = HomologySpace(self.g, p, w, self.module, 0, [], None, basis,
                                  partial(self.boundary_matrix, p, w))
            self._hom[key] = space
            return space
        ker = (
            kernel_basis(self.boundary_matrix(p, w))
            if p >= 1
            else [{j: 1} for j in range(self.cell_dim(p, w))]
        )
        reducer = EchelonReducer()
        pivots = self._boundary_echelon(p + 1, w + 2)
        for lead in sorted(pivots):
            reducer.insert(pivots[lead], ("im", lead))
        nreps = 0
        for kvec in ker:
            if reducer.insert(dict(kvec), ("rep", nreps)):
                nreps += 1
        # representatives are the reducer's stored vectors, so that class
        # coordinates are taken against exactly this basis (insert reduces
        # each kernel vector against the members before it and normalizes
        # it, so a stored vector differs from its raw kernel vector)
        vec_cls = C.ModChainVector if self.module else C.ChainVector
        reps: list = [None] * nreps
        for tag, vec in reducer.members_with_tags(lambda tag: tag[0] == "rep"):
            reps[tag[1]] = vec_cls(basis, vec)
        space = HomologySpace(self.g, p, w, self.module, nreps, reps, reducer, basis)
        self._hom[key] = space
        return space

    def homology_dim(self, p: int, w: int) -> int:
        """Dimension only: nullity at the cell minus incoming boundary rank."""
        key = (p, w)
        if key in self._hom:
            return self._hom[key].dim
        dim_cell = self.cell_dim(p, w)
        if dim_cell == 0:
            return 0
        nullity = dim_cell - self.boundary_rank(p, w)
        return nullity - self.boundary_rank(p + 1, w + 2)

    # -- induced coboundary -------------------------------------------------

    def check_anticommutator(self, p: int, w: int) -> bool:
        """d.boundary + boundary.d = 0 out of cell (p, w)."""
        key = (p, w)
        if key not in self._anti_ok:
            op = self._operator
            total = certified_product(op("cochain_d", p - 1, w - 2), op("boundary", p, w))
            total = total + certified_product(op("boundary", p + 1, w - 2), op("cochain_d", p, w))
            self._anti_ok[key] = csc_is_zero(total)
        return self._anti_ok[key]

    def induced_d(self, p: int, w: int) -> InducedMap:
        """The map [u] -> [du] from H(p, w) to H(p+1, w-2)."""
        src = self.homology(p, w)
        tgt = self.homology(p + 1, w - 2)
        if not self.check_anticommutator(p, w) or not self.check_anticommutator(p + 1, w + 2):
            raise NotChainMap(
                f"anticommutation fails near cell (p={p}, w={w}); the coboundary "
                "does not descend to homology here"
            )
        cols = []
        for rep in src.representatives:
            image = self.cochain_matrix(p, w).matvec(rep.coeffs)
            if self.boundary_matrix(p + 1, w - 2).matvec(image):
                raise NotChainMap("image of a cycle is not a cycle")
            coords = tgt.class_coordinates(image)
            cols.append({i: c for i, c in enumerate(coords) if c != 0})
        matrix = SparseRationalMatrix(tgt.dim, src.dim, cols)
        return InducedMap(src, tgt, matrix)

    # -- reports ---------------------------------------------------------------

    def euler_check(self, s: int, p_range: tuple[int, int]) -> dict:
        """Rank-nullity telescoping along the diagonal w = s + 2p."""
        a, b = p_range
        cells = []
        alt_cell = 0
        alt_hom = 0
        for p in range(a, b + 1):
            w = s + 2 * p
            dim_c = self.cell_dim(p, w)
            dim_h = self.homology_dim(p, w)
            cells.append({"p": p, "w": w, "dim_cell": dim_c, "dim_homology": dim_h})
            sign = -1 if p % 2 else 1
            alt_cell += sign * dim_c
            alt_hom += sign * dim_h
        r_bottom = self.boundary_rank(a, s + 2 * a)
        r_top = self.boundary_rank(b + 1, s + 2 * (b + 1))
        sa = -1 if a % 2 else 1
        sb = -1 if b % 2 else 1
        ok = alt_cell == alt_hom + sa * r_bottom + sb * r_top
        return {
            "s": s,
            "p_range": [a, b],
            "cells": cells,
            "alternating_cell_sum": alt_cell,
            "alternating_homology_sum": alt_hom,
            "boundary_rank_bottom": r_bottom,
            "boundary_rank_top": r_top,
            "complete": r_bottom == 0 and r_top == 0,
            "ok": ok,
        }

    def diagonal_p_range(self, s: int, pmax: int, wmax: int | None = None) -> tuple[int, int] | None:
        """Smallest and largest p <= pmax (and w <= wmax if given) with a
        nonzero cell on the diagonal w = s + 2p."""
        ps = [
            p
            for p in range(0, pmax + 1)
            if s + 2 * p >= 0
            and (wmax is None or s + 2 * p <= wmax)
            and self.cell_dim(p, s + 2 * p) > 0
        ]
        if not ps:
            return None
        return (min(ps), max(ps))


def _necklace_words(g: int, top: int) -> list[np.ndarray]:
    """The letters of the basis necklaces of weights 1..top, one int64
    array (count, m) per weight m, in index order."""
    ctx = algebra(g)
    return [np.array(ctx.basis_words(m), dtype=np.int64).reshape(-1, m) for m in range(1, top + 1)]


def _necklace_labels(words: list[np.ndarray], base: int) -> np.ndarray:
    """The ``words.multidegree`` of each necklace of ``_necklace_words`` as
    one int, each letter a_i adding and b_i subtracting base**(i-1).  The
    label of a wedge tuple is the sum over its necklaces.  Each component
    of a tuple of weight at most w lies in [-w, w], so for base > 2w the
    label is faithful (``_multidegree`` reads it back)."""
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [((1 - 2 * (d & 1)) * base ** (d >> 1)).sum(axis=1) for d in words])


def _multidegree(label: int, base: int, g: int) -> Multidegree:
    """The multidegree of a label of ``_necklace_labels`` or of a cell
    label of ``HomologyEngine._cell_labels``."""
    half = base // 2
    label += half * sum(base**i for i in range(g))
    return tuple(label // base**i % base - half for i in range(g))


def _pair_generators(g: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Signed letter maps (image, sign), letter x to sign[x] * image[x],
    that generate the signed pair permutations: a_1 -> b_1, b_1 -> -a_1,
    and the swap of pairs i and i+1 for each i < g."""
    gens = []
    image, sign = np.arange(2 * g), np.ones(2 * g, dtype=np.int64)
    image[:2], sign[1] = (1, 0), -1
    gens.append((image, sign))
    for i in range(g - 1):
        image = np.arange(2 * g)
        image[2 * i:2 * i + 4] = (2 * i + 2, 2 * i + 3, 2 * i, 2 * i + 1)
        gens.append((image, np.ones(2 * g, dtype=np.int64)))
    return gens


def _necklace_map(g: int, words: list[np.ndarray], image: np.ndarray, sign: np.ndarray):
    """The signed map of the necklaces of ``_necklace_words`` induced by a
    signed letter map: (index, sign) arrays, necklace n going to nsign[n]
    times necklace nmap[n], the canonical rotation of its image word."""
    ctx = algebra(g)
    nmap, nsign = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for m, d in enumerate(words, start=1):
        nmap.append(ctx.necklace_of_rank(m)[image[d] @ (2 * g) ** np.arange(m - 1, -1, -1)])
        nsign.append(sign[d].prod(axis=1))
    return np.concatenate(nmap), np.concatenate(nsign)


def _cell_map(g: int, p: int, w: int, nmap: np.ndarray, nsign: np.ndarray):
    """The signed map of the wedge cell (p, w) induced by a signed map of
    necklaces (index nmap[n], sign nsign[n]): (position, sign) arrays over
    the cell, each image tuple sorted with the sign of its permutation.
    (None, None) if the map is not a bijection of the cell."""
    cell = C.wedge_cell(g, p, w)
    image = nmap[cell]
    inversions = sum((image[:, i] > image[:, j] for i, j in combinations(range(p), 2)),
                     np.zeros(len(cell), dtype=np.int64))
    sign = nsign[cell].prod(axis=1) * (1 - 2 * (inversions & 1))
    pos = C.cell_positions(g, p, w, np.sort(image, axis=1))
    if np.bincount(pos, minlength=len(cell)).max(initial=0) > 1:
        return None, None
    return pos, sign


def cohomology_of_homology(engine: HomologyEngine, p0: int, w0: int, steps: int) -> dict:
    """Dimensions of the cochain complex the induced coboundary puts on
    homology, along cells (p0 + k, w0 - 2k) for k = 0..steps.

    The maps beyond the two ends are treated as zero, so the first and
    last entries are kernel and cokernel dimensions of the computed
    segment.
    """
    spaces = [engine.homology(p0 + k, w0 - 2 * k) for k in range(steps + 1)]
    maps = [engine.induced_d(p0 + k, w0 - 2 * k) for k in range(steps)]
    for k in range(len(maps) - 1):
        comp = maps[k + 1].matrix @ maps[k].matrix
        if not comp.is_zero():
            raise NotChainMap(
                f"consecutive induced maps do not compose to zero at step {k}"
            )
    ranks = [rank(m.matrix) for m in maps]
    out_cells = []
    for k, space in enumerate(spaces):
        rank_out = ranks[k] if k < len(ranks) else 0
        rank_in = ranks[k - 1] if k >= 1 else 0
        out_cells.append(
            {
                "p": space.p,
                "w": space.w,
                "dim_homology": space.dim,
                "dim_cohomology": space.dim - rank_out - rank_in,
            }
        )
    return {
        "g": engine.g,
        "module": engine.module,
        "start": {"p": p0, "w": w0},
        "steps": steps,
        "cells": out_cells,
        "induced_ranks": ranks,
    }


def homology_report(
    engine: HomologyEngine,
    p_range: tuple[int, int],
    w_range: tuple[int, int],
    with_induced: bool = True,
) -> dict:
    """JSON-ready homology table over a rectangle of cells, with induced
    coboundary ranks and per-diagonal Euler checks."""
    p0, p1 = p_range
    w0, w1 = w_range
    # size every cell the table eliminates before computing any of them, so
    # that a range with a cell over the budget fails at once (CellTooLarge)
    for p in range(p0, p1 + 1):
        for w in range(w0, w1 + 1):
            if engine.cell_dim(p, w):
                engine.cell_dim(p + 1, w + 2)
    cells = []
    for p in range(p0, p1 + 1):
        for w in range(w0, w1 + 1):
            dim_cell = engine.cell_dim(p, w)
            if dim_cell == 0 and not (p == 0 and w == 0):
                continue
            cells.append(
                {
                    "p": p,
                    "w": w,
                    "dim_cell": dim_cell,
                    "dim": engine.homology_dim(p, w),
                }
            )
    induced = []
    if with_induced:
        for p in range(p0, p1 + 1):
            for w in range(w0, w1 + 1):
                if engine.cell_dim(p, w) == 0:
                    continue
                if w - 2 < 0 or engine.cell_dim(p + 1, w - 2) == 0:
                    continue
                m = engine.induced_d(p, w)
                induced.append(
                    {
                        "source": {"p": p, "w": w},
                        "target": {"p": p + 1, "w": w - 2},
                        "dim_source": m.source.dim,
                        "dim_target": m.target.dim,
                        "rank": rank(m.matrix),
                        "matrix": m.matrix.to_json_dict(),
                    }
                )
    euler = []
    seen = set()
    for p in range(p0, p1 + 1):
        for w in range(w0, w1 + 1):
            s = w - 2 * p
            if s in seen:
                continue
            seen.add(s)
            rng = engine.diagonal_p_range(s, p1, w1)
            if rng is None:
                continue
            euler.append(engine.euler_check(s, rng))
    euler.sort(key=lambda e: e["s"])
    return {
        "g": engine.g,
        "module": engine.module,
        "delta": "alg",
        "mu": "alg" if engine.module else None,
        "p_range": [p0, p1],
        "w_range": [w0, w1],
        "cells": cells,
        "induced": induced,
        "euler_checks": euler,
    }
