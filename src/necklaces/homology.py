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

The echelon pass over each boundary matrix runs once (``homology()`` runs
``kernel_basis`` over it as well) and stops once its rank is proven.
Because boundary . boundary = 0, the rank of the boundary at (p, w) is at
most the nullity of the boundary out of (p-1, w-2), so the echelon pass
stops when its pivot count reaches that nullity; the later columns would
all reduce to zero.  The bound is used only after the product of the two
int64 boundaries has been certified to be exactly zero under the
``product_bound_ok`` overflow guard.  If the product cannot be certified,
or it is not zero, the pass stops only at the row count.  Either way the
echelon form is the same.

The coboundary induced by an involutive cobracket maps H(p, w) to
H(p+1, w-2); before descending to homology the engine verifies the
anticommutation identity at the cells involved, as certified int64
products, and raises NotChainMap on failure (which would signal a
non-involutive handle).

The alternating-sum consistency check along a diagonal s = w - 2p uses
rank-nullity telescoping: over any computed range a <= p <= b,

  sum (-1)^p dim C_p  =  sum (-1)^p dim H_p
                         + (-1)^a rank(boundary out of the bottom cell)
                         + (-1)^b rank(boundary into the top cell),

and the correction terms vanish when the diagonal is complete, giving the
textbook Euler identity.
"""

from . import complexes as C
from .errors import NotChainMap
from .linalg import (
    EchelonReducer,
    SparseRationalMatrix,
    certified_product,
    column_echelon_int,
    csc_is_zero,
    kernel_basis,
    rank,
)
from .tensors import Coeff


class HomologySpace:
    """One homology cell: dimension plus canonical cycle representatives."""

    def __init__(self, g: int, p: int, w: int, module: bool, dim: int,
                 representatives: list, reducer: EchelonReducer, basis):
        self.g, self.p, self.w = g, p, w
        self.module = module
        self.dim = dim
        self.representatives = representatives  # ChainVector / ModChainVector
        self._reducer = reducer
        self.basis = basis

    def class_coordinates(self, coeffs: dict[int, Coeff]) -> list[Coeff]:
        """Coordinates of a cycle's class in the representative basis."""
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
    """Caches the operator matrices, the column echelon forms of the
    boundaries and the homology spaces per cell for a fixed genus,
    cobracket handle and comodule handle.  The echelon pass over a boundary
    matrix runs at most once; ``homology()`` adds a ``kernel_basis`` pass."""

    def __init__(self, g: int, delta=None, mu=None, module: bool = False):
        self.g = g
        self.module = module
        self.delta = delta if delta is not None else C.AlgCobracket(g)
        self.mu = mu if mu is not None else (C.AlgComodule(g) if module else None)
        self._ops = C.CellOperators(g, self.delta, self.mu if module else None)
        self._int: dict[tuple[str, int, int], object] = {}
        self._columns: dict[tuple[str, int, int], SparseRationalMatrix] = {}
        self._echelon: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
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
        at the rank bound of ``_rank_bound`` (the same dict)."""
        key = (p, w)
        if key not in self._echelon:
            if p < 1 or self.cell_dim(p, w) == 0 or self.cell_dim(p - 1, w - 2) == 0:
                self._echelon[key] = {}
            else:
                bound = self._rank_bound(p, w)
                matrix = self._columns.get(("boundary", p, w))
                if matrix is None:  # not kept: only the echelon form is
                    matrix = SparseRationalMatrix.from_int_csc(self._operator("boundary", p, w))
                self._echelon[key] = column_echelon_int(matrix, bound)
        return self._echelon[key]

    def _rank_bound(self, p: int, w: int) -> int | None:
        """The nullity of the boundary out of (p-1, w-2), which bounds the
        rank of the boundary at (p, w) once their int64 product is
        certified to be exactly zero.  None (no bound beyond the row count)
        when the lower boundary is zero, the product cannot be certified,
        or it is not zero."""
        lower = len(self._boundary_echelon(p - 1, w - 2))
        if lower == 0:
            return None
        try:
            prod = certified_product(
                self._operator("boundary", p - 1, w - 2), self._operator("boundary", p, w)
            )
        except OverflowError:
            return None
        if not csc_is_zero(prod):
            return None
        return self.cell_dim(p - 1, w - 2) - lower

    def boundary_rank(self, p: int, w: int) -> int:
        return len(self._boundary_echelon(p, w))

    # -- homology ---------------------------------------------------------

    def homology(self, p: int, w: int) -> HomologySpace:
        key = (p, w)
        if key in self._hom:
            return self._hom[key]
        basis = self.cell_basis(p, w)
        dim_cell = self.cell_dim(p, w)
        if dim_cell == 0:
            space = HomologySpace(self.g, p, w, self.module, 0, [], EchelonReducer(), basis)
            self._hom[key] = space
            return space
        ker = (
            kernel_basis(self.boundary_matrix(p, w))
            if p >= 1
            else [{j: 1} for j in range(dim_cell)]
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
                f"anticommutation fails near cell (p={p}, w={w}); the handle "
                "does not descend to homology here"
            )
        dmat = self.cochain_matrix(p, w)
        bnd_tgt = self.boundary_matrix(p + 1, w - 2)
        cols = []
        for rep in src.representatives:
            image = dmat.matvec(rep.coeffs)
            if bnd_tgt.matvec(image):
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
        "delta": engine.delta.name,
        "mu": engine.mu.name if engine.mu is not None else None,
        "p_range": [p0, p1],
        "w_range": [w0, w1],
        "cells": cells,
        "induced": induced,
        "euler_checks": euler,
    }
