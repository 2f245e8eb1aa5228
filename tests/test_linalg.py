import random
from fractions import Fraction

import numpy as np
import pytest

from necklaces.linalg import (
    EchelonReducer,
    SparseRationalMatrix,
    column_echelon_int,
    image_basis,
    int_csc,
    kernel_basis,
    nullity,
    rank,
    rref,
    solve_columns,
)
from oracles import (
    exact,
    oracle_image_basis,
    oracle_kernel_basis,
    oracle_rref,
    oracle_solve_columns,
)


def rand_matrix(rng, rows, cols, density=0.2, fractions=False):
    cols_data = []
    for _ in range(cols):
        col = {}
        for r in range(rows):
            if rng.random() < density:
                v = rng.randint(-4, 4)
                if v:
                    col[r] = Fraction(v, rng.randint(1, 3)) if fractions else v
        cols_data.append(col)
    return SparseRationalMatrix(rows, cols, cols_data)


def dense(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


class TestBasics:
    def test_zero_matrix(self):
        m = SparseRationalMatrix(3, 4)
        assert rank(m) == 0
        assert nullity(m) == 4
        assert len(kernel_basis(m)) == 4
        assert image_basis(m) == []

    def test_identity(self):
        m = SparseRationalMatrix.from_entries(3, 3, [(i, i, 1) for i in range(3)])
        assert rank(m) == 3
        assert kernel_basis(m) == []
        assert len(image_basis(m)) == 3

    def test_matvec_matmul(self):
        rng = random.Random(1)
        a = rand_matrix(rng, 5, 4)
        b = rand_matrix(rng, 4, 3)
        ab = a @ b
        for j in range(3):
            assert ab.column(j) == a.matvec(b.column(j))

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(2)
        for _ in range(10):
            m = rand_matrix(rng, 20, 30, density=0.15, fractions=True)
            assert rank(m) == rank(m.transpose())

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(10):
            m = rand_matrix(rng, 12, 18, density=0.25)
            assert rank(m) + nullity(m) == m.cols


class TestKernelImage:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(4)
        for _ in range(10):
            m = rand_matrix(rng, 10, 14, density=0.3, fractions=True)
            for v in kernel_basis(m):
                assert m.matvec(v) == {}

    def test_kernel_dimension(self):
        rng = random.Random(5)
        for _ in range(10):
            m = rand_matrix(rng, 8, 12, density=0.3)
            assert len(kernel_basis(m)) == nullity(m)

    def test_image_spans_columns(self):
        rng = random.Random(6)
        for _ in range(8):
            m = rand_matrix(rng, 9, 7, density=0.4)
            red = EchelonReducer()
            for i, vec in enumerate(image_basis(m)):
                red.insert(vec, i)
            for col in m.columns:
                rem, _ = red.reduce(col)
                assert rem == {}

    def test_echelon_leads_distinct(self):
        rng = random.Random(7)
        m = rand_matrix(rng, 10, 15, density=0.3)
        piv = column_echelon_int(m)
        for lead, vec in piv.items():
            assert min(vec) == lead
            assert vec[lead] > 0


class TestRref:
    def test_rref_identity_part(self):
        rng = random.Random(8)
        for _ in range(6):
            m = rand_matrix(rng, 6, 9, density=0.4, fractions=True)
            pivots, rows = rref(m)
            for k, (p, row) in enumerate(zip(pivots, rows)):
                assert row[p] == 1
                for p2 in pivots:
                    if p2 != p:
                        assert p2 not in row

    def test_rref_row_space_preserved(self):
        # every original row must reduce to zero against the RREF rows
        rng = random.Random(9)
        m = rand_matrix(rng, 6, 9, density=0.4)
        pivots, rows = rref(m)
        red = EchelonReducer()
        for i, row in enumerate(rows):
            red.insert(row, i)
        mt = m.transpose()
        for j in range(mt.cols):
            rem, _ = red.reduce(mt.column(j))
            assert rem == {}


class TestFractionOracles:
    def test_kernel_image_rref_match_fraction_oracles(self):
        rng = random.Random(13)
        seen = {"empty": 0, "zero": 0, "duplicate": 0, "deficient": 0, "fractions": 0}
        for _ in range(1500):
            rows, cols = rng.randint(0, 10), rng.randint(0, 10)
            fractions = rng.random() < 0.5
            m = rand_matrix(rng, rows, cols, density=rng.choice([0.0, 0.1, 0.3, 0.6]),
                            fractions=fractions)
            columns = [dict(c) for c in m.columns]
            if columns and rng.random() < 0.3:
                columns.insert(rng.randint(0, len(columns)), dict(rng.choice(columns)))
                seen["duplicate"] += 1
            if rng.random() < 0.2:
                columns.insert(rng.randint(0, len(columns)), {})
            m = SparseRationalMatrix(rows, len(columns), columns)
            seen["empty"] += rows == 0 or m.cols == 0
            seen["zero"] += m.is_zero() and rows > 0 and m.cols > 0
            seen["deficient"] += 0 < rank(m) < min(rows, m.cols)
            seen["fractions"] += fractions
            assert exact(kernel_basis(m)) == exact(oracle_kernel_basis(m))
            assert exact(image_basis(m)) == exact(oracle_image_basis(m))
            # the RREF rows are image_basis of the transpose: the same
            # values and types as the old loop, keys in that function's order
            pivots, rows_got = rref(m)
            want_pivots, rows_want = oracle_rref(m)
            assert pivots == want_pivots
            assert [sorted(r) for r in exact(rows_got)] == [sorted(r) for r in exact(rows_want)]
        assert min(seen.values()) > 40, seen


class TestSolve:
    def test_solve_consistent(self):
        rng = random.Random(10)
        for _ in range(10):
            m = rand_matrix(rng, 8, 6, density=0.5)
            x = {j: rng.randint(-3, 3) for j in range(6)}
            b = m.matvec(x)
            sol = solve_columns(m.columns, b)
            assert sol is not None
            got = {}
            for j, c in enumerate(sol):
                for r, v in m.columns[j].items():
                    got[r] = got.get(r, 0) + c * v
            assert {r: v for r, v in got.items() if v != 0} == b

    def test_solve_inconsistent(self):
        m = SparseRationalMatrix.from_entries(2, 1, [(0, 0, 1)])
        assert solve_columns(m.columns, {1: 1}) is None

    def test_solve_matches_fraction_oracle(self):
        # equal values, equal types (Fraction or int 0) and None together
        rng = random.Random(12)
        seen = {"consistent": 0, "zero": 0, "random": 0, "none": 0, "deficient": 0}
        for _ in range(600):
            rows = rng.randint(0, 9)
            m = rand_matrix(rng, rows, rng.randint(0, 9), density=rng.choice([0.1, 0.3, 0.6]),
                            fractions=rng.random() < 0.5)
            columns = [dict(c) for c in m.columns]
            if columns and rng.random() < 0.3:  # duplicate column
                columns.insert(rng.randint(0, len(columns)), dict(rng.choice(columns)))
            if rng.random() < 0.3:  # empty column
                columns.insert(rng.randint(0, len(columns)), {})
            m = SparseRationalMatrix(rows, len(columns), columns)
            seen["deficient"] += rank(m) < m.cols
            kind = rng.choice(["consistent", "consistent", "zero", "random"])
            seen[kind] += 1
            if kind == "zero":
                target = {}
            elif kind == "consistent":
                target = m.matvec({j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                   for j in range(m.cols)})
            else:  # rational, usually outside the column space
                target = {r: Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 5))
                          for r in range(rows + 1) if rng.random() < 0.4}
            got = solve_columns(columns, target)
            want = oracle_solve_columns(columns, target)
            if want is None:
                seen["none"] += 1
                assert got is None
                continue
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
        assert min(seen.values()) > 50, seen


class TestSerialization:
    def test_json_roundtrip(self):
        rng = random.Random(11)
        m = rand_matrix(rng, 5, 7, density=0.4, fractions=True)
        assert SparseRationalMatrix.from_json_dict(m.to_json_dict()) == m

    def test_json_shape(self):
        m = SparseRationalMatrix.from_entries(2, 2, [(0, 1, Fraction(3, 2))])
        assert m.to_json_dict() == {"rows": 2, "cols": 2, "entries": [[0, 1, "3/2"]]}

    def test_matrixmarket(self):
        m = SparseRationalMatrix.from_entries(2, 2, [(0, 1, Fraction(3, 2)), (1, 0, -1)])
        text = m.to_matrixmarket()
        lines = text.strip().split("\n")
        assert lines[0].startswith("%%MatrixMarket")
        assert lines[1] == "2 2 2"
        assert "1 2 3/2" in lines and "2 1 -1" in lines


class TestIntCsc:
    def test_exact_ints_pass(self):
        m = int_csc(2, 3, [0, 1, 1], [0, 2, 2], [3, -2**31 + 1, 1])
        assert m.dtype.kind == "i" and m.toarray().tolist() == [[3, 0, 0], [0, 0, -2**31 + 2]]
        assert int_csc(2, 2, [], [], []).nnz == 0
        # an empty object array, as a Fraction handle table with no rows
        # gives, holds nothing too large
        assert int_csc(2, 2, [], [], np.zeros(0, dtype=object)).nnz == 0

    @pytest.mark.parametrize(
        "values, error",
        [
            ([Fraction(1, 2), 3], TypeError),  # the int64 cast would give [0 3]
            ([Fraction(2), 3], TypeError),
            ([0.5, 3], TypeError),
            ([2.0, 3], TypeError),
            ([2**31, 3], OverflowError),
            ([-(2**31), 3], OverflowError),
            ([2**70, 3], OverflowError),
        ],
    )
    def test_refuses_what_int64_would_change(self, values, error):
        with pytest.raises(error):
            int_csc(2, 2, [0, 1], [0, 1], values)
