"""Exact sparse linear algebra over the rationals.

Matrices are stored column-major as dicts {row: coeff} with int or
Fraction entries.  Every elimination is fraction-free: integer column
steps with gcd normalization (``_reduce_int``).  Rank and image reduce
the columns themselves; the image and the reduced row echelon form
back-eliminate those pivots.  That pass never changes a stored pivot, so
it stops as soon as the pivot count reaches the row count, or a rank bound
the caller has proven, and returns the same pivots in the same order.
The kernel and ``solve_columns`` share one
pass in which each column carries its expression over the columns, so a
column that reduces to zero gives a relation; the solver pins free
variables to 0.  Each forms one Fraction per nonzero entry at the end.
``EchelonReducer`` (homology classes) stores primitive integer vectors
and reduces by the same steps, carrying one rational scale per step.
Because all our matrices decompose into blocks with disjoint row/column
supports (the multidegree grading), sparse elimination never mixes
blocks, which keeps fill-in local.  ``block_ranks`` takes that split as
int labels on the rows and columns of an int64 matrix and ranks each
block by its own echelon pass, sparsest column first and stopped at a
per-block bound (the grading split and sparsity order of Dumas,
Elbaz-Vincent, Giorgi and Urbańska, PASCO 2007); the homology engine
ranks every boundary this way, Lie and module, and on the Lie complex
only one block per certified orbit of the signed pair permutations.

No floating point is used anywhere; numpy/scipy enter only through
``int_csc`` as an exact int64 engine for large matrix products, with the
overflow bound checked before trusting a result (``certified_product``).
Coefficients enter int64 only through ``int_values``, and int64 matrices
become dict columns only through ``SparseRationalMatrix.from_int_csc``.
"""

from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as _sp

from .tensors import _INT64_SAFE, Coeff, axpy, coeff_str, parse_coeff

Vec = dict[int, Coeff]


class SparseRationalMatrix:
    """Immutable sparse matrix with exact rational entries, column-major."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Sequence[Vec] | None = None):
        self.rows = rows
        self.cols = cols
        if columns is None:
            columns = [dict() for _ in range(cols)]
        if len(columns) != cols:
            raise ValueError("column count mismatch")
        self.columns = [
            {r: v for r, v in col.items() if v != 0} for col in columns
        ]
        for col in self.columns:
            for r in col:
                if not 0 <= r < rows:
                    raise ValueError(f"row index {r} out of range")

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int, Coeff]]):
        columns: list[Vec] = [dict() for _ in range(cols)]
        for i, j, v in entries:
            columns[j][i] = columns[j].get(i, 0) + v
        return cls(rows, cols, columns)

    @classmethod
    def _built(cls, rows: int, cols: int, columns: list[Vec]) -> "SparseRationalMatrix":
        """A matrix of columns built in this module, which hold no zero
        entry and no row out of range (``axpy`` deletes the keys it zeroes),
        so ``__init__``'s filter and range check are skipped."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.columns = rows, cols, columns
        return out

    @classmethod
    def from_int_csc(cls, m) -> "SparseRationalMatrix":
        """An int64 csc matrix (``int_csc``) as dict columns with int
        values, its explicit zeros dropped; m is not changed.  The columns
        share one int object per row as their keys, which saves memory."""
        keep = m.data != 0
        counts = np.diff(np.concatenate(([0], np.cumsum(keep)))[m.indptr]).tolist()
        rows = list(range(m.shape[0]))
        entries = zip(map(rows.__getitem__, m.indices[keep].tolist()), m.data[keep].tolist())
        return cls._built(*m.shape, [dict(islice(entries, n)) for n in counts])

    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)

    def is_zero(self) -> bool:
        return all(not c for c in self.columns)

    def entry(self, i: int, j: int) -> Coeff:
        return self.columns[j].get(i, 0)

    def column(self, j: int) -> Vec:
        return dict(self.columns[j])

    def entries(self) -> list[tuple[int, int, Coeff]]:
        out = [(i, j, v) for j, col in enumerate(self.columns) for i, v in col.items()]
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    def matvec(self, vec: Vec) -> Vec:
        out: Vec = {}
        for j, c in vec.items():
            axpy(out, c, self.columns[j].items())
        return out

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return self._built(self.rows, other.cols, [self.matvec(col) for col in other.columns])

    def __add__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self.columns, other.columns):
            c = dict(a)
            axpy(c, 1, b.items())
            cols.append(c)
        return self._built(self.rows, self.cols, cols)

    def __neg__(self) -> "SparseRationalMatrix":
        return self._built(self.rows, self.cols, [{r: -v for r, v in c.items()} for c in self.columns])

    def __sub__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseRationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.columns, other.columns))
        )

    def transpose(self) -> "SparseRationalMatrix":
        cols: list[Vec] = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                cols[i][j] = v
        return self._built(self.cols, self.rows, cols)

    def __repr__(self) -> str:
        return f"SparseRationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- export ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, coeff_str(v)] for i, j, v in self.entries()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparseRationalMatrix":
        return cls.from_entries(
            int(data["rows"]),
            int(data["cols"]),
            ((int(i), int(j), parse_coeff(v)) for i, j, v in data["entries"]),
        )

    def to_matrixmarket(self) -> str:
        """MatrixMarket-style coordinate text with exact rational values."""
        lines = [
            "%%MatrixMarket matrix coordinate rational general",
            f"{self.rows} {self.cols} {self.nnz()}",
        ]
        for i, j, v in self.entries():
            lines.append(f"{i + 1} {j + 1} {coeff_str(v)}")
        return "\n".join(lines) + "\n"


# -- integer fast path for big products -----------------------------------

def int_values(values) -> np.ndarray:
    """The values as an int64 array.  Raises TypeError on a value that is
    not an int (the cast would truncate a Fraction or a float) and
    OverflowError on one of 2**31 or more in absolute value."""
    arr = np.asarray(values)
    big = arr.dtype.kind == "O" and arr.size and all(type(x) is int for x in arr.flat)  # beyond int64
    if arr.size and arr.dtype.kind != "i" and not big:
        raise TypeError(f"the int64 fast path takes int values only, got {arr.dtype} values")
    if big or arr.size and not -(2**31) < arr.min() <= arr.max() < 2**31:
        raise OverflowError("entries too large for the int64 fast path")
    return arr.astype(np.int64, copy=False)


def int_csc(rows: int, cols: int, r: list, c: list, v: list):
    """Exact int64 CSC matrix; the values are checked by ``int_values``."""
    return _sp.coo_matrix(
        (int_values(v), (np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64))),
        shape=(rows, cols),
    ).tocsc()


def product_bound_ok(a, b) -> bool:
    """Certify that computing a @ b in int64 cannot overflow: every entry of
    the product is a sum of at most max_col_nnz(b) terms bounded by
    max|a| * max|b|."""
    if a.nnz == 0 or b.nnz == 0:
        return True
    amax = int(np.abs(a.data).max())
    bmax = int(np.abs(b.data).max())
    col_nnz = int(np.diff(b.indptr).max()) if b.shape[1] else 0
    return amax * bmax * max(col_nnz, 1) < _INT64_SAFE // 4


def certified_product(a, b):
    """a @ b in int64, once product_bound_ok has certified that no entry
    can overflow; raises OverflowError otherwise."""
    if not product_bound_ok(a, b):
        raise OverflowError("int64 product bound exceeded; the product cannot be certified")
    return a @ b


def csc_is_zero(m) -> bool:
    """Whether an int64 product is zero; drops m's explicit zeros."""
    m.eliminate_zeros()
    return m.nnz == 0


# -- exact elimination ------------------------------------------------------


def common_denominator(values: Iterable[Coeff]) -> int:
    """The lcm of the denominators of int and Fraction values; 1 if all
    are whole (or there are none)."""
    denom = 1
    for v in values:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    return denom


def _int_scale_column(col: Vec) -> tuple[dict[int, int], int, int]:
    """Scale a rational column to a primitive integer vector: returns
    (vec, num, den) with col == vec * num / den (num is 0 iff col is 0)."""
    denom = common_denominator(col.values())
    out = {}
    g = 0
    for r, v in col.items():
        iv = int(v * denom)
        if iv:
            out[r] = iv
            g = gcd(g, iv)
    if g > 1:
        out = {r: iv // g for r, iv in out.items()}
    return out, g, denom


def _reduce_int(col: dict[int, int], pivots: dict[int, dict[int, int]],
                steps: list | None = None) -> dict[int, int]:
    """Reduce an integer vector against stored vectors with distinct leads
    (smallest keys) by fraction-free steps a*col - b*piv, a and b the lead
    entries, each divided by the gcd g of its entries.  Every step raises the
    lead, so this ends with col empty or with a lead that is not stored.
    If ``steps`` is a list, each step appends (lead, a, b, g) to it."""
    while col:
        lead = min(col)
        piv = pivots.get(lead)
        if piv is None:
            break
        a, b = piv[lead], col[lead]
        new: dict[int, int] = {}
        for r, v in col.items():
            new[r] = a * v
        for r, v in piv.items():
            nv = new.get(r, 0) - b * v
            if nv:
                new[r] = nv
            elif r in new:
                del new[r]
        g = 0
        for v in new.values():
            g = gcd(g, v)
            if g == 1:
                break
        col = new if g <= 1 else {r: v // g for r, v in new.items()}
        if steps is not None:
            steps.append((lead, a, b, max(g, 1)))
    return col


def column_echelon_int(matrix: SparseRationalMatrix, bound: int | None = None) -> dict[int, dict[int, int]]:
    """Fraction-free column echelon form of the column space.

    Returns {lead row: primitive integer vector with positive lead}.  The
    set of lead rows determines the rank; the vectors span the image.
    Deterministic given the column order.  Stored pivots are never changed,
    so once the rank is reached every later column reduces to zero: the
    pass stops when the pivot count reaches ``min(bound, rows)``, with the
    same dict in the same order.  ``bound`` must be a proven upper bound on
    the rank (None: the row count).
    """
    stop = matrix.rows if bound is None else min(bound, matrix.rows)
    return _echelon_pass((_int_scale_column(col)[0] for col in matrix.columns), stop)


def _echelon_pass(columns: Iterable[dict[int, int]], stop: int) -> dict[int, dict[int, int]]:
    """The pass of ``column_echelon_int`` over integer columns, left to
    right: each is reduced by ``_reduce_int`` and, if a remainder survives,
    stored under its lead with a positive lead entry.  Stops once the pivot
    count reaches ``stop``, without reading another column."""
    pivots: dict[int, dict[int, int]] = {}
    if stop <= 0:
        return pivots
    for col in columns:
        col = _reduce_int(col, pivots)
        if col:
            lead = min(col)
            pivots[lead] = col if col[lead] > 0 else {r: -v for r, v in col.items()}
            if len(pivots) >= stop:
                break
    return pivots


def block_ranks(m, row_labels, col_labels, bounds: Mapping[int, int] | None = None) -> dict[int, int]:
    """The rank of each label block of an int64 CSC matrix whose nonzero
    entries stay in their blocks: block L holds the rows and the columns
    labelled L, and an entry between two labels raises ValueError.  Each
    block is one ``_echelon_pass`` over its own columns, made primitive, in
    ascending nnz order (ties in column order), which stops at the block's
    row count or at ``bounds[L]``, a proven upper bound on its rank where
    one is given.  Returns {L: rank} for every label of a column."""
    row_labels, col_labels = np.asarray(row_labels), np.asarray(col_labels)
    keep = m.data != 0
    rows, vals = m.indices[keep], m.data[keep]
    nnz = np.bincount(np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))[keep], minlength=m.shape[1])
    if np.any(row_labels[rows] != np.repeat(col_labels, nnz)):
        raise ValueError("a nonzero entry lies between two label blocks")
    start = np.cumsum(nnz) - nnz
    # each column primitive: divided by the gcd of its entries
    div = np.gcd.reduceat(np.abs(vals), start[nnz > 0]) if len(vals) else vals
    vals = vals // np.repeat(div, nnz[nnz > 0])
    order = np.lexsort((nnz, col_labels))
    labels, firsts = np.unique(col_labels[order], return_index=True)
    row_count = dict(zip(*(a.tolist() for a in np.unique(row_labels, return_counts=True))))
    bounds = bounds or {}
    out: dict[int, int] = {}
    for label, cols in zip(labels.tolist(), np.split(order, firsts[1:])):
        n = nnz[cols]
        at = np.repeat(start[cols] - np.cumsum(n) + n, n) + np.arange(n.sum())
        entries = zip(rows[at].tolist(), vals[at].tolist())
        stop = min(row_count.get(label, 0), bounds.get(label, m.shape[0]))
        out[label] = len(_echelon_pass((dict(islice(entries, k)) for k in n.tolist()), stop))
    return out


def rank(matrix: SparseRationalMatrix) -> int:
    return len(column_echelon_int(matrix))


def nullity(matrix: SparseRationalMatrix) -> int:
    return matrix.cols - rank(matrix)


def rref(matrix: SparseRationalMatrix) -> tuple[list[int], list[Vec]]:
    """Reduced row echelon form: (pivot column indices, rows of the RREF
    as sparse dicts), zero rows dropped, rows in ascending pivot column.
    The rows are the reduced echelon basis of the row space."""
    rows = image_basis(matrix.transpose())
    return [min(row) for row in rows], rows


def _dependencies(
    columns: Sequence[Vec], pivots: dict[int, dict[int, int]] | None = None
) -> Iterator[tuple[int, Callable[[], Vec]]]:
    """One fraction-free pass over the columns, left to right.  Each column
    is scaled to a primitive integer vector (``_int_scale_column``) that
    carries a unit coordinate past the last row, so ``_reduce_int`` keeps
    its expression over the columns.  Yields (j, relation) for each column
    j whose row part reduces to zero; ``relation()`` is the kernel vector
    with 1 at j, supported on j and the independent columns before it.
    The pass stores its pivots, keyed by lead row, in ``pivots`` if given;
    their row parts are scalar multiples of the ``column_echelon_int``
    pivots, with the same leads."""
    base = 1 + max((r for vec in columns for r in vec), default=-1)
    if pivots is None:
        pivots = {}
    scales: list[tuple[int, int]] = []
    for j, col0 in enumerate(columns):
        col, num, den = _int_scale_column(col0)
        scales.append((num, den))
        col[base + j] = 1
        col = _reduce_int(col, pivots)
        lead = min(col)
        if lead < base:
            pivots[lead] = col
        else:
            yield j, partial(_relation_vector, col, base, scales)


def _relation_vector(rel: dict[int, int], base: int, scales: list[tuple[int, int]]) -> Vec:
    """A relation sum_k e_k * P_k = 0 from ``_dependencies`` (e_k at base + k,
    columns[k] = P_k * num_k / den_k) as the kernel vector x with x_j = 1
    for the largest k = j: x_k = e_k*den_k*num_j / (num_k*e_j*den_j), all
    Fractions, keyed j first and then the other k ascending."""
    keys = sorted(rel)
    j = keys.pop() - base
    num_j, den_j = scales[j]
    c = rel[base + j] * den_j
    vec: Vec = {j: Fraction(1)}
    for key in keys:
        num, den = scales[key - base]
        vec[key - base] = Fraction(rel[key] * den * num_j, num * c)
    return vec


def kernel_basis(matrix: SparseRationalMatrix) -> list[Vec]:
    """Canonical kernel basis: one vector per free column (a column that
    depends on those before it), 1 in the free coordinate and 0 in the
    other free ones, listed in ascending free-column order."""
    return [relation() for _, relation in _dependencies(matrix.columns)]


def image_basis(matrix: SparseRationalMatrix) -> list[Vec]:
    """Reduced echelon basis of the column space (lead coefficient 1,
    eliminated above and below), sorted by lead row.  The pivots of
    ``column_echelon_int`` are back-eliminated in ascending lead order by
    fraction-free steps, in place; one Fraction per entry at the end."""
    pivots = column_echelon_int(matrix)
    done: list[tuple[int, dict[int, int]]] = []
    for lead in sorted(pivots):
        vec = pivots[lead]
        a = vec[lead]
        for _, other in done:
            b = other.get(lead)
            if b:
                # other := a*other - b*vec, keys kept in place, then primitive
                for r in other:
                    other[r] *= a
                axpy(other, -b, vec.items())
                g = 0
                for v in other.values():
                    g = gcd(g, v)
                if g > 1:
                    for r in other:
                        other[r] //= g
        done.append((lead, vec))
    return [{r: Fraction(v, vec[lead]) for r, v in vec.items()} for lead, vec in done]


class EchelonReducer:
    """Maintains tagged vectors in echelon form (distinct lead indices) and
    reduces vectors against them.  Members are stored as primitive integer
    vectors and reduced by ``_reduce_int`` steps; a member is handed out
    scaled to lead 1, and a reduction carries its rational scale, one
    Fraction per step, so the remainder and the coefficients used are the
    exact values of elimination over the rationals."""

    def __init__(self):
        self._by_lead: dict[int, dict[int, int]] = {}
        self._tags: dict[int, object] = {}

    def members_with_tags(self, keep: Callable[[object], bool] | None = None) -> list[tuple[object, Vec]]:
        """(tag, member scaled to lead 1) in ascending lead order, for the
        members whose tag passes ``keep`` (all if None); only those are
        formed as Fractions."""
        out = []
        for lead in sorted(self._by_lead):
            tag = self._tags[lead]
            if keep is None or keep(tag):
                vec = self._by_lead[lead]
                a = vec[lead]
                out.append((tag, {r: Fraction(v, a) for r, v in vec.items()}))
        return out

    def reduce(self, vec: Vec) -> tuple[Vec, dict]:
        """Fully reduce vec; returns (remainder, {tag: coefficient used}),
        remainder and coefficients as Fractions.  With vec = s * col, a
        step col' = (a*col - b*piv) / g uses the coefficient s*b on the
        member piv / a and leaves vec - s*b*piv/a = (s*g/a) * col'."""
        col, num, den = _int_scale_column(vec)
        steps: list = []
        col = _reduce_int(col, self._by_lead, steps)
        scale = Fraction(num, den)
        used: dict = {}
        tags = self._tags
        for lead, a, b, g in steps:
            tag = tags[lead]
            used[tag] = used.get(tag, 0) + scale * b
            scale = scale * g / a
        return {r: scale * v for r, v in col.items()}, used

    def insert(self, vec: Vec, tag) -> bool:
        """Reduce and, if a nonzero remainder survives, store it under the
        tag.  Returns True iff the vector extended the span.  Stored members
        are never changed, so each tag keeps naming the vector it was
        inserted with, reduced against the members before it."""
        col = _reduce_int(_int_scale_column(vec)[0], self._by_lead)
        if not col:
            return False
        lead = min(col)
        self._by_lead[lead] = col
        self._tags[lead] = tag
        return True


def solve_columns(columns: Sequence[Vec], target: Vec) -> list[Coeff] | None:
    """The exact solution x of sum_j x_j * columns[j] = target whose free
    variables (the columns that reduce to zero, left to right) are 0; None
    if inconsistent.  This x is unique, so it does not depend on the
    elimination order.  Nonzero entries are Fractions, the rest int 0.
    It is the relation of the target, appended as the last column, in the
    fraction-free pass of ``kernel_basis``."""
    n = len(columns)
    for j, relation in _dependencies([*columns, target]):
        if j == n:
            x: list[Coeff] = [0] * n
            for k, v in relation().items():
                if k != n:
                    x[k] = -v
            return x
    return None
