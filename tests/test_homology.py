import random

import pytest

from necklaces import homology
from necklaces.errors import NotChainMap
from necklaces.homology import HomologyEngine, cohomology_of_homology, homology_report
from necklaces.lie import algebra
from necklaces.linalg import column_echelon_int, kernel_basis
from oracles import exact, oracle_kernel_basis


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
        class BrokenDelta:
            g = 1
            name = "broken"
            max_weight = None

            def __init__(self):
                self._ctx = algebra(1)
                self._a = self._ctx.index_of_word((0,))
                self._b = self._ctx.index_of_word((1,))

            def wedge_terms(self, idx):
                if self._ctx.weight_of(idx) == 4:
                    return ((self._a, self._b, 1),)
                return ()

        eng = HomologyEngine(1, delta=BrokenDelta())
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
        seen = []

        def counting(matrix):
            seen.append(matrix)  # kept alive, so ids stay distinct
            return column_echelon_int(matrix)

        monkeypatch.setattr(homology, "column_echelon_int", counting)
        eng = HomologyEngine(1, module=module)
        homology_report(eng, (0, 3), (0, 6))
        for p in range(0, 4):
            for w in range(0, 7):
                eng.homology(p, w)
                eng.boundary_rank(p, w)
        ids = [id(m) for m in seen]
        assert len(seen) >= 5 and len(set(ids)) == len(ids)
