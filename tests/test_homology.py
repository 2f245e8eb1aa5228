import random
from fractions import Fraction

import numpy as np
import pytest

from necklaces import complexes, homology, linalg
from necklaces import words as W
from necklaces.errors import NotChainMap
from necklaces.homology import HomologyEngine, cohomology_of_homology, homology_report
from necklaces.lie import algebra, necklace_count
from necklaces.tensors import axpy
from necklaces.linalg import (
    EchelonReducer,
    SparseRationalMatrix,
    _dependencies,
    column_echelon_int,
    kernel_basis,
)
from oracles import OracleEchelonReducer, exact, oracle_column_echelon_int, oracle_kernel_basis


def boundary_cells(eng: HomologyEngine, w_max: int, p_max: int | None = None):
    """Every (p, w) with p >= 1, w <= w_max (and p <= p_max) whose boundary
    matrix has rows and columns."""
    return [
        (p, w)
        for w in range(1, w_max + 1)
        for p in range(1, (w if p_max is None else min(w, p_max)) + 1)
        if eng.cell_dim(p, w) and eng.cell_dim(p - 1, w - 2)
    ]


def exact_pivots(pivots: dict) -> list:
    """Echelon pivots as their leads in dict order, each with its vector in
    the ``exact`` form."""
    return [(lead, exact([vec])) for lead, vec in pivots.items()]


def _broken_delta(eng: HomologyEngine, coeff) -> HomologyEngine:
    """The genus-1 engine with the cobracket table of every weight-4
    necklace replaced by coeff N(a1) ^ N(b1)."""
    ctx, table = algebra(1), eng._ops._delta_table
    count = necklace_count(1, 4)
    broken = (np.arange(count + 1, dtype=np.int64),
              np.full(count, ctx.index_of_word((0,)), dtype=np.int64),
              np.full(count, ctx.index_of_word((1,)), dtype=np.int64),
              np.array([coeff] * count))
    eng._ops._delta_table = lambda m: broken if m == 4 else table(m)
    return eng


class TestLieHomology:
    def test_ground_field(self):
        for g in (1, 2):
            eng = HomologyEngine(g)
            assert eng.homology(0, 0).dim == 1

    def test_weight_one_vanishes(self):
        # weight-1 letters are brackets, e.g. 2 N(a1) = [N(a1 a1), N(b1)]
        for g in (1, 2):
            eng = HomologyEngine(g)
            assert eng.homology_dim(1, 1) == 0

    def test_g1_table_frozen(self):
        # values fixed by the exact rank computation (this engine is the
        # oracle; there is no external ground truth for these cells)
        eng = HomologyEngine(1)
        nonzero = {}
        for p in range(0, 5):
            for w in range(0, 9):
                d = eng.homology_dim(p, w)
                if d:
                    nonzero[(p, w)] = d
        assert nonzero == {(0, 0): 1, (2, 2): 1, (3, 6): 1, (3, 8): 1}

    def test_representatives_are_cycles(self):
        eng = HomologyEngine(1)
        for (p, w) in [(2, 2), (3, 6), (3, 8)]:
            h = eng.homology(p, w)
            bmat = eng.boundary_matrix(p, w)
            for rep in h.representatives:
                assert bmat.matvec(rep.coeffs) == {}

    def test_rank_nullity_every_cell(self):
        for g in (1, 2):
            eng = HomologyEngine(g)
            for p in range(1, 4):
                for w in range(p, 7):
                    mat = eng.boundary_matrix(p, w)
                    r = eng.boundary_rank(p, w)
                    assert r + len(kernel_basis(mat)) == mat.cols

    def test_euler_complete_diagonal(self):
        eng = HomologyEngine(1)
        chk = eng.euler_check(-2, (2, 5))
        assert chk["complete"] and chk["ok"]
        assert chk["alternating_cell_sum"] == chk["alternating_homology_sum"]

    def test_euler_truncated_diagonals(self):
        for g in (1, 2):
            eng = HomologyEngine(g)
            for s in range(-2, 5):
                rng = eng.diagonal_p_range(s, 3, 6)
                if rng is None:
                    continue
                assert eng.euler_check(s, rng)["ok"]


class TestInducedMaps:
    def test_low_weight_zero_map(self):
        eng = HomologyEngine(1)
        for (p, w) in [(1, 2), (1, 3), (2, 3)]:
            m = eng.induced_d(p, w)
            assert m.matrix.is_zero()

    def test_composition_zero(self):
        eng = HomologyEngine(1)
        m1 = eng.induced_d(1, 8)
        m2 = eng.induced_d(2, 6)
        assert (m2.matrix @ m1.matrix).is_zero()

    def test_class_coordinates_boundary_invariance(self):
        eng = HomologyEngine(1)
        h = eng.homology(3, 6)
        assert h.dim == 1
        rep = h.representatives[0]
        coords = h.class_coordinates(rep.coeffs)
        assert coords == [1]
        # perturb by a boundary from (4, 8) and check the class is unchanged
        bmat = eng.boundary_matrix(4, 8)
        rng = random.Random(99)
        pert = {}
        for _ in range(4):
            j = rng.randrange(bmat.cols)
            for r, v in bmat.columns[j].items():
                pert[r] = pert.get(r, 0) + v
        moved = dict(rep.coeffs)
        for r, v in pert.items():
            moved[r] = moved.get(r, 0) + v
        assert h.class_coordinates(moved) == [1]

    def test_induced_well_defined_under_perturbation(self):
        eng = HomologyEngine(1)
        src = eng.homology(3, 6)
        m = eng.induced_d(3, 6)
        dmat = eng.cochain_matrix(3, 6)
        bmat = eng.boundary_matrix(4, 8)
        tgt = eng.homology(4, 4)
        rep = src.representatives[0]
        pert = bmat.column(0)
        moved = dict(rep.coeffs)
        for r, v in pert.items():
            moved[r] = moved.get(r, 0) + v
        img = dmat.matvec(moved)
        assert tgt.class_coordinates(img) == tgt.class_coordinates(
            dmat.matvec(rep.coeffs)
        )

    def test_not_chain_map_on_bad_handle(self):
        # the anticommutation check refuses to descend to homology
        eng = _broken_delta(HomologyEngine(1), 1)
        with pytest.raises(NotChainMap):
            eng.induced_d(1, 4)


class TestModuleHomology:
    def test_unit_word_is_a_boundary(self):
        # Gamma(b1 (x) N(a1)) = -(N(a1).b1) = -1, so H(0,0; T) = 0: the
        # incoming rank computation overrides naive expectations
        eng = HomologyEngine(1, module=True)
        assert eng.cell_dim(0, 0) == 1
        assert eng.boundary_rank(1, 2) >= 1
        assert eng.homology_dim(0, 0) == 0

    def test_g1_module_table_frozen(self):
        eng = HomologyEngine(1, module=True)
        nonzero = {}
        for p in range(0, 4):
            for w in range(0, 7):
                d = eng.homology_dim(p, w)
                if d:
                    nonzero[(p, w)] = d
        assert nonzero == {(2, 2): 1, (2, 4): 1, (2, 6): 1}

    def test_module_euler(self):
        eng = HomologyEngine(1, module=True)
        for s in range(-4, 4):
            rng = eng.diagonal_p_range(s, 3, 6)
            if rng is None:
                continue
            assert eng.euler_check(s, rng)["ok"]

    def test_module_induced_composition(self):
        eng = HomologyEngine(1, module=True)
        m1 = eng.induced_d(0, 6)
        m2 = eng.induced_d(1, 4)
        assert (m2.matrix @ m1.matrix).is_zero()


class TestCohomologyOfHomology:
    def test_zero_maps_give_homology_dims(self):
        eng = HomologyEngine(1)
        rep = cohomology_of_homology(eng, 1, 8, 2)
        for cell in rep["cells"]:
            assert cell["dim_cohomology"] == cell["dim_homology"]

    def test_g2_low_weight_table(self):
        eng = HomologyEngine(2)
        rep = cohomology_of_homology(eng, 0, 4, 2)
        assert rep["induced_ranks"] == [0, 0]
        dims = {(c["p"], c["w"]): c["dim_cohomology"] for c in rep["cells"]}
        assert dims == {(0, 4): 0, (1, 2): 0, (2, 0): 0}


class TestReport:
    def test_report_structure(self):
        eng = HomologyEngine(1)
        rep = homology_report(eng, (0, 3), (0, 6), with_induced=True)
        assert set(rep) >= {"cells", "induced", "euler_checks"}
        assert all(e["ok"] for e in rep["euler_checks"])
        for item in rep["induced"]:
            assert item["rank"] <= min(item["dim_source"], item["dim_target"])


class TestElimination:
    @pytest.mark.parametrize("g, w_max", [(1, 8), (2, 7)])
    def test_kernel_basis_matches_fraction_oracle(self, g, w_max):
        # values, coefficient types and key order on every boundary cell
        eng = HomologyEngine(g)
        cells = 0
        for w in range(1, w_max + 1):
            for p in range(1, w + 1):
                if eng.cell_dim(p, w) == 0:
                    continue
                mat = eng.boundary_matrix(p, w)
                got, want = kernel_basis(mat), oracle_kernel_basis(mat)
                assert exact(got) == exact(want), (p, w)
                cells += 1
        assert cells >= 10

    @pytest.mark.parametrize("module", [False, True])
    def test_each_boundary_matrix_eliminated_once(self, module, monkeypatch):
        # every elimination, an echelon pass or a block pass, is tagged with
        # the cell the engine is working on: neither runs twice on a cell,
        # and on each cell the block pass comes before any echelon pass
        # (a cell whose echelon homology() needs gets both, in that order)
        eng = HomologyEngine(1, module=module)
        cell, seen = [], []

        def on_cell(method):
            def wrapped(p, w):
                cell.append((p, w))
                try:
                    return method(p, w)
                finally:
                    cell.pop()
            return wrapped

        def counting(kind, original):
            def wrapped(matrix, *args):
                seen.append((kind, cell[-1], matrix))  # kept alive, so ids stay distinct
                return original(matrix, *args)
            return wrapped

        monkeypatch.setattr(eng, "_boundary_echelon", on_cell(eng._boundary_echelon))
        monkeypatch.setattr(eng, "_block_ranks", on_cell(eng._block_ranks))
        monkeypatch.setattr(homology, "column_echelon_int", counting("echelon", column_echelon_int))
        monkeypatch.setattr(homology, "block_ranks", counting("blocks", linalg.block_ranks))
        homology_report(eng, (0, 3), (0, 6))
        for p in range(0, 4):
            for w in range(0, 7):
                eng.homology(p, w)
                eng.boundary_rank(p, w)
        passes = [(kind, at) for kind, at, _ in seen]
        ids = [id(m) for _, _, m in seen]
        assert len(seen) >= 5 and len(set(passes)) == len(passes) and len(set(ids)) == len(ids)
        for kind, at in passes:
            if kind == "echelon":
                assert ("blocks", at) in passes[:passes.index((kind, at))], at
        assert {kind for kind, _ in passes} == {"echelon", "blocks"}

    @pytest.mark.parametrize(
        "g, module, w_max", [(1, False, 8), (2, False, 7), (1, True, 8), (2, True, 6)]
    )
    def test_bounded_echelon_matches_full_pass(self, g, module, w_max, monkeypatch):
        # the engine's echelon, stopped at the boundary's rank, is the full
        # left-to-right pass: same leads, vectors, values and order; a
        # boundary of rank 0 makes no echelon pass
        bounds = []

        def recording(matrix, bound=None):
            bounds.append((matrix.rows, bound))
            return column_echelon_int(matrix, bound)

        monkeypatch.setattr(homology, "column_echelon_int", recording)
        eng = HomologyEngine(g, module=module)
        cells = boundary_cells(eng, w_max)
        stopped = []
        for p, w in cells:
            bounds.clear()
            got = eng._boundary_echelon(p, w)
            want = oracle_column_echelon_int(eng.boundary_matrix(p, w))
            assert exact_pivots(got) == exact_pivots(want), (p, w)
            assert [b for _, b in bounds] == ([len(want)] if want else []), (p, w)
            stopped += [b < rows for rows, b in bounds]
        assert len(cells) >= 8 and len(stopped) >= 6
        # the rank is below the row count on some cells, so the exit is exercised
        assert any(stopped)

    @pytest.mark.parametrize("broken", ["nonzero_product", "uncertified"])
    def test_rank_bound_falls_back_to_the_full_pass(self, broken, monkeypatch):
        # lower boundary (2, 6), upper (3, 8) at g = 1: the certified block
        # bounds sum to the rank, and with a lower boundary of larger rank
        # they would sum below it, so only the certificate keeps them from
        # truncating the ranks and so the echelon
        p, w = 3, 8
        reference = HomologyEngine(1)
        want = column_echelon_int(reference.boundary_matrix(p, w))
        lower = reference._operator("boundary", p - 1, w - 2)
        seen = []

        def spy(m, rows, cols, bounds=None):
            seen.append(bounds)
            return linalg.block_ranks(m, rows, cols, bounds)

        monkeypatch.setattr(homology, "block_ranks", spy)
        assert reference.boundary_rank(p, w) == len(want)
        assert sum(seen[-1].values()) == len(want) < reference.cell_dim(p - 1, w - 2)
        eng = HomologyEngine(1)
        if broken == "nonzero_product":
            # the int64 lower operator, which the certificate and the lower
            # block ranks both read, plus 1 at (j mod rows, j) in every column j
            rows, cols = lower.shape
            patched = lower + linalg.int_csc(rows, cols, [j % rows for j in range(cols)], range(cols), [1] * cols)
            assert not linalg.csc_is_zero(patched @ reference._operator("boundary", p, w))
            assert rows - linalg.rank(SparseRationalMatrix.from_int_csc(patched)) < len(want)
            real = eng._operator
            monkeypatch.setattr(
                eng, "_operator",
                lambda name, q, v: patched if (name, q, v) == ("boundary", p - 1, w - 2) else real(name, q, v),
            )
        else:
            monkeypatch.setattr(linalg, "product_bound_ok", lambda a, b: False)
        bounds = []

        def recording(matrix, bound=None):
            bounds.append(bound)
            return column_echelon_int(matrix, bound)

        monkeypatch.setattr(homology, "column_echelon_int", recording)
        seen.clear()
        got = eng._boundary_echelon(p, w)
        assert seen == [None] and bounds == [len(want)]
        assert exact_pivots(got) == exact_pivots(want)
        assert eng.boundary_rank(p, w) == len(want)

    def test_fraction_coefficient_raises(self):
        # a table coefficient that is not an int is refused on the way into
        # int64, where the cast would have truncated 1/2 to 0
        eng = _broken_delta(HomologyEngine(1), Fraction(1, 2))
        assert eng.homology_dim(1, 4) >= 0  # boundaries do not read the cobracket
        with pytest.raises(TypeError):
            eng.cochain_matrix(1, 4)
        with pytest.raises(TypeError):
            eng.induced_d(1, 4)

    @pytest.mark.parametrize("g, w_max", [(1, 8), (2, 6)])
    def test_dependency_pivots_are_scaled_echelon_pivots(self, g, w_max):
        # the kernel pass and the echelon pass find the same pivots: the row
        # part of each _dependencies pivot has the lead and the keys of the
        # column_echelon_int pivot, and is a scalar multiple of it
        eng = HomologyEngine(g)
        cells = boundary_cells(eng, w_max)
        for p, w in cells:
            mat = eng.boundary_matrix(p, w)
            echelon = column_echelon_int(mat)
            pivots: dict = {}
            for _ in _dependencies(mat.columns, pivots):
                pass
            base = mat.rows
            assert sorted(pivots) == sorted(echelon), (p, w)
            for lead, vec in pivots.items():
                row = {r: v for r, v in vec.items() if r < base}
                ref = echelon[lead]
                assert set(row) == set(ref) and min(row) == lead, (p, w, lead)
                ratio = Fraction(row[lead], ref[lead])
                assert all(Fraction(v, ref[r]) == ratio for r, v in row.items()), (p, w, lead)
        assert len(cells) >= 10


def _reducer_pair(eng: HomologyEngine, p: int, w: int):
    """The engine's integer reducer and the Fraction oracle, filled as
    ``HomologyEngine.homology`` fills them; returns both, the insert flags
    of each and the kernel vectors."""
    dim = eng.cell_dim(p, w)
    ker = kernel_basis(eng.boundary_matrix(p, w)) if p >= 1 else [{j: 1} for j in range(dim)]
    pivots = eng._boundary_echelon(p + 1, w + 2)
    reducers = (EchelonReducer(), OracleEchelonReducer())
    flags: tuple = ([], [])
    for red, fl in zip(reducers, flags):
        for lead in sorted(pivots):
            fl.append(red.insert(pivots[lead], ("im", lead)))
        nreps = 0
        for kvec in ker:
            ok = red.insert(dict(kvec), ("rep", nreps))
            fl.append(ok)
            nreps += ok
    return reducers, flags, ker


def _exact_used(used: dict) -> list:
    return [(tag, type(c), c) for tag, c in used.items()]


class TestIntegerReducer:
    @pytest.mark.parametrize("g, module, p_max, w_max", [(2, False, 3, 6), (1, True, 2, 6)])
    def test_matches_fraction_oracle(self, g, module, p_max, w_max):
        # insert flags, stored members, and the remainders and coefficients
        # of random cycles and non-cycles: values, types and key order
        rng = random.Random(8 + g)
        eng = HomologyEngine(g, module=module)
        cells = [
            (p, w) for p in range(0, p_max + 1) for w in range(0, w_max + 1) if eng.cell_dim(p, w)
        ]
        reduced = 0
        for p, w in cells:
            (red, oracle), (flags, oracle_flags), ker = _reducer_pair(eng, p, w)
            assert flags == oracle_flags, (p, w)
            members, oracle_members = red.members_with_tags(), oracle.members_with_tags()
            assert [t for t, _ in members] == [t for t, _ in oracle_members], (p, w)
            assert exact(v for _, v in members) == exact(v for _, v in oracle_members), (p, w)
            reps = red.members_with_tags(lambda tag: tag[0] == "rep")
            oracle_reps = [(t, v) for t, v in oracle_members if t[0] == "rep"]
            assert [t for t, _ in reps] == [t for t, _ in oracle_reps], (p, w)
            assert exact(v for _, v in reps) == exact(v for _, v in oracle_reps), (p, w)
            image = eng.boundary_matrix(p + 1, w + 2)
            dim = eng.cell_dim(p, w)
            for trial in range(6):
                vec: dict = {}
                for kvec in rng.sample(ker, min(len(ker), 3)):
                    c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2, 3]))
                    axpy(vec, c, kvec.items())
                for _ in range(3 if image.cols else 0):
                    axpy(vec, rng.choice([-2, 1, 3]), image.columns[rng.randrange(image.cols)].items())
                if trial % 3 == 2:  # a non-cycle: the remainder is not zero
                    vec[rng.randrange(dim)] = rng.choice([-1, Fraction(1, 2), 5])
                got, want = red.reduce(vec), oracle.reduce(vec)
                assert exact([got[0]]) == exact([want[0]]), (p, w, trial)
                assert _exact_used(got[1]) == _exact_used(want[1]), (p, w, trial)
                reduced += bool(want[1])
        assert len(cells) >= 10 and reduced >= 30


def _labelled_boundary(eng: HomologyEngine, p: int, w: int):
    """The int64 boundary at (p, w) with the engine's multidegree labels of
    its rows and columns."""
    necks = homology._necklace_labels(homology._necklace_words(eng.g, w - p + 1), 2 * w + 1)
    return eng._operator("boundary", p, w), eng._cell_labels(p - 1, w - 2, necks), eng._cell_labels(p, w, necks)


def _flipped_generators(g: int, generators=homology._pair_generators):
    """The pair generators with the sign of the letter a_1 flipped in the
    first: a_1 -> -b_1, b_1 -> -a_1, which reverses the pairing."""
    gens = generators(g)
    image, sign = gens[0]
    sign = sign.copy()
    sign[0] = -sign[0]
    return [(image, sign)] + gens[1:]


class TestBlockRanks:
    @pytest.mark.parametrize(
        "g, module, w_max", [(1, False, 8), (2, False, 7), (1, True, 8), (2, True, 6)]
    )
    def test_block_ranks_match_the_full_pass(self, g, module, w_max):
        # per block: the engine's ranks (one block per orbit on a Lie cell,
        # sparsest column first, bounded), every block in ascending nnz
        # order, and every block in column order; their sum is the oracle's
        # rank
        eng = HomologyEngine(g, module=module)
        cells = boundary_cells(eng, w_max)
        for p, w in cells:
            m, rows, cols = _labelled_boundary(eng, p, w)
            every = linalg.block_ranks(m, rows, cols)
            in_order = {}
            for label in np.unique(cols).tolist():
                block = SparseRationalMatrix.from_int_csc(m[:, cols == label])
                in_order[label] = len(column_echelon_int(block))
            assert every == in_order, (p, w)
            base = 2 * w + 1
            decoded = {homology._multidegree(x, base, g): r for x, r in every.items() if r}
            assert eng._block_ranks(p, w) == decoded, (p, w)
            want = len(oracle_column_echelon_int(SparseRationalMatrix.from_int_csc(m)))
            assert eng.boundary_rank(p, w) == sum(every.values()) == want, (p, w)
        assert len(cells) >= 10

    def test_labels_are_the_multidegrees_of_the_tuples(self):
        # a module element (word, tuple) counts the word's letters too
        for g, module, p, w in [(2, False, 3, 7), (1, True, 3, 8), (2, True, 2, 6)]:
            ctx, eng = algebra(g), HomologyEngine(g, module=module)
            _, _, cols = _labelled_boundary(eng, p, w)
            basis = eng.cell_basis(p, w)
            for i in range(0, len(cols), 97):
                word, t = basis.monomial(i) if module else ((), basis.monomial(i))
                degs = [W.multidegree(word, g)] + [W.multidegree(ctx.word_at(n), g) for n in t]
                assert homology._multidegree(cols[i].item(), 2 * w + 1, g) == tuple(map(sum, zip(*degs)))
        # module labels that leave out the word's letters join blocks
        g, p, w = 2, 2, 6
        m, _, cols = _labelled_boundary(HomologyEngine(g, module=True), p, w)
        necks = homology._necklace_labels(homology._necklace_words(g, w - p + 1), 2 * w + 1)

        def tuples_only(q, v):
            return np.concatenate([np.tile(necks[complexes.wedge_cell(g, q, v - k)].sum(axis=1), (2 * g) ** k)
                                   for k in range(v + 1)])

        assert len(tuples_only(p, w)) == len(cols)
        with pytest.raises(ValueError, match="between two label blocks"):
            linalg.block_ranks(m, tuples_only(p - 1, w - 2), tuples_only(p, w))

    def test_an_entry_between_blocks_raises(self):
        m = linalg.int_csc(2, 4, [0, 1, 1, 0], [0, 1, 2, 3], [2, 4, 6, 0])  # an explicit zero at (0, 3)
        assert linalg.block_ranks(m, [5, 6], [5, 6, 6, 6]) == {5: 1, 6: 1}
        assert linalg.block_ranks(m, [5, 6], [5, 6, 6, 6], {6: 0}) == {5: 1, 6: 0}
        with pytest.raises(ValueError):
            linalg.block_ranks(m, [5, 6], [6, 6, 6, 6])

    def test_orbits_reuse_certified_blocks(self, monkeypatch):
        # one block per orbit is eliminated, and its rank is the rank of
        # every block of the orbit
        eng = HomologyEngine(2)
        ranked = []

        def spy(m, rows, cols, bounds=None):
            ranked.append(set(np.unique(cols).tolist()))
            return linalg.block_ranks(m, rows, cols, bounds)

        monkeypatch.setattr(homology, "block_ranks", spy)
        m, rows, cols = _labelled_boundary(eng, 3, 7)
        eng.boundary_rank(2, 5)
        ranked.clear()
        assert eng.boundary_rank(3, 7) == len(column_echelon_int(SparseRationalMatrix.from_int_csc(m)))
        (done,) = ranked
        assert len(done) < len(np.unique(cols)) / 3
        reps = eng._orbit_reps(3, 7, m, cols, homology._necklace_words(2, 5))
        assert set(reps.values()) == done

    @pytest.mark.parametrize("p, w", [(2, 6), (3, 7), (4, 8)])
    def test_a_flipped_generator_sign_fails_the_check(self, p, w, monkeypatch):
        # a_1 -> -b_1 reverses the pairing, so the boundary is not
        # equivariant under it: no orbit is certified, every block is
        # eliminated, and the ranks are those of the full pass
        eng = HomologyEngine(2)
        m, rows, cols = _labelled_boundary(eng, p, w)
        words = homology._necklace_words(2, w - p + 1)
        assert eng._orbit_reps(p, w, m, cols, words) is not None
        monkeypatch.setattr(homology, "_pair_generators", _flipped_generators)
        assert eng._orbit_reps(p, w, m, cols, words) is None
        ranked = []

        def spy(m, rows, cols, bounds=None):
            ranked.append(set(np.unique(cols).tolist()))
            return linalg.block_ranks(m, rows, cols, bounds)

        monkeypatch.setattr(homology, "block_ranks", spy)
        eng.boundary_rank(p - 1, w - 2)
        ranked.clear()
        want = linalg.block_ranks(m, rows, cols)
        assert eng.boundary_rank(p, w) == sum(want.values())
        assert ranked == [set(np.unique(cols).tolist())]
        base = 2 * w + 1
        assert eng._block_ranks(p, w) == {homology._multidegree(x, base, 2): r for x, r in want.items() if r}

    def test_certified_bounds_are_used(self, monkeypatch):
        eng = HomologyEngine(1)
        seen = []

        def spy(m, rows, cols, bounds=None):
            seen.append((rows, bounds))
            return linalg.block_ranks(m, rows, cols, bounds)

        monkeypatch.setattr(homology, "block_ranks", spy)
        assert eng.boundary_rank(3, 8) == len(column_echelon_int(eng.boundary_matrix(3, 8)))
        rows, bounds = seen[-1]
        labels, counts = np.unique(rows, return_counts=True)
        assert bounds is not None and any(bounds[x] < n for x, n in zip(labels.tolist(), counts.tolist()))

    @pytest.mark.parametrize("broken", ["nonzero_product", "uncertified"])
    def test_block_bounds_need_the_certificate(self, broken, monkeypatch):
        # as in test_rank_bound_falls_back_to_the_full_pass: a lower
        # boundary of larger rank, or a product that cannot be certified,
        # leaves every block unbounded, and the ranks still hold
        p, w = 3, 8
        want = len(column_echelon_int(HomologyEngine(1).boundary_matrix(p, w)))
        eng = HomologyEngine(1)
        if broken == "nonzero_product":
            lower = eng._operator("boundary", p - 1, w - 2)
            rows, cols = lower.shape
            patched = lower + linalg.int_csc(rows, cols, [j % rows for j in range(cols)], range(cols), [1] * cols)
            real = eng._operator
            monkeypatch.setattr(
                eng, "_operator",
                lambda name, q, v: patched if (name, q, v) == ("boundary", p - 1, w - 2) else real(name, q, v),
            )
        else:
            monkeypatch.setattr(linalg, "product_bound_ok", lambda a, b: False)
        seen = []

        def spy(m, rows, cols, bounds=None):
            seen.append(bounds)
            return linalg.block_ranks(m, rows, cols, bounds)

        monkeypatch.setattr(homology, "block_ranks", spy)
        assert eng.boundary_rank(p, w) == want
        assert seen and seen[-1] is None


class TestVanishingCells:
    @pytest.mark.parametrize("p, w", [(2, 6), (3, 6)])
    def test_class_coordinates_test_the_cycle(self, p, w):
        eng = HomologyEngine(2)
        h = eng.homology(p, w)
        assert h.dim == 0 and h.representatives == []
        upper = eng.boundary_matrix(p + 1, w + 2)
        for j in range(0, upper.cols, max(1, upper.cols // 5)):
            assert h.class_coordinates(upper.column(j)) == []
        bnd = eng.boundary_matrix(p, w)
        j = next(j for j in range(bnd.cols) if bnd.columns[j])
        with pytest.raises(ValueError):
            h.class_coordinates({j: Fraction(1, 2)})

    @pytest.mark.parametrize("module", [False, True])
    def test_no_kernel_or_reducer_on_a_vanishing_cell(self, module, monkeypatch):
        calls = []

        def spying(name, original):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(homology, "kernel_basis", spying("kernel", kernel_basis))
        monkeypatch.setattr(EchelonReducer, "insert", spying("insert", EchelonReducer.insert))
        eng = HomologyEngine(1, module=module)
        vanishing, carrying = ((2, 4), (2, 2)) if not module else ((1, 4), (2, 4))
        assert eng.homology(*vanishing).dim == 0 and calls == []
        assert eng.homology(*carrying).dim == 1 and "insert" in calls

    def test_a_map_that_splits_a_block_is_refused(self, monkeypatch):
        # a_1 <-> a_2 with the b-letters fixed is a bijection of necklaces
        # under which the zero boundary out of (1, 2) is equivariant, but it
        # sends the tuples of one multidegree to several: not certified
        eng = HomologyEngine(2)
        m, rows, cols = _labelled_boundary(eng, 1, 2)
        assert m.count_nonzero() == 0
        image = np.array([2, 1, 0, 3])
        monkeypatch.setattr(homology, "_pair_generators", lambda g: [(image, np.ones(4, dtype=np.int64))])
        assert eng._orbit_reps(1, 2, m, cols, homology._necklace_words(2, 2)) is None
