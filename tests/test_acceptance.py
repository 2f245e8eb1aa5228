"""Acceptance gate: every criterion is exact (tolerance zero).

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its runtime.  Stated runtime expectations are printed for
reference; the assertions are on the mathematics only.
"""

import random
import subprocess
import sys
import time

import pytest

from necklaces import (
    BiDerivationElem,
    DerivationElem,
    Tensor,
    mu_alg,
    schedler_delta,
)
from necklaces.deform import (
    DeformationElement,
    homotopy_check,
    mod_homotopy_check,
    n_space_basis,
    piece_induces_zero,
    assemble_sigma_piece,
    assemble_mod_piece,
    DeformedCobracket,
    DeformedComodule,
    verify_deformation_invariance,
)
from necklaces.expansion import (
    Expansion,
    compare_expansions,
    symplectic_expansion,
    symplectic_lie_derivations,
)
from necklaces.homology import HomologyEngine
from necklaces.lie import exp_derivation
from necklaces.linalg import kernel_basis
from necklaces.tensors import TruncatedSeries
from necklaces.verify import (
    bialgebra_suite,
    bracket_oracle_sweep,
    matrix_identity_suite,
)

SEED = 20240

_engines: dict = {}


def _engine(g: int, module: bool = False) -> HomologyEngine:
    key = (g, module)
    if key not in _engines:
        _engines[key] = HomologyEngine(g, module=module)
    return _engines[key]


def _report(num: int, label: str, t0: float, budget: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {label} [{time.time() - t0:.1f}s, budget {budget}]")


@pytest.mark.slow
def test_criterion_1_bialgebra_axioms():
    t0 = time.time()
    for g in (1, 2):
        rep = bialgebra_suite(g, 8, SEED, samples=200)
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert not bad, f"g={g}: {bad}"
    _report(1, "bialgebra axioms on basis necklaces to weight 8 + 200 random "
               "pairs/triples, g in {1,2}", t0, "<60s")


def test_criterion_2_ce_matrix_identities():
    t0 = time.time()
    for g in (1, 2):
        rep = matrix_identity_suite(g, 3, 8, module=False)
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert not bad, f"g={g}: {bad}"
    _report(2, "dd=0, boundary^2=0, anticommutator=0 on all Lie cells "
               "p<=3, w<=8, g in {1,2}", t0, "<120s")


def test_criterion_3_module_matrix_identities():
    t0 = time.time()
    for g in (1, 2):
        rep = matrix_identity_suite(g, 3, 8, module=True)
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert not bad, f"g={g}: {bad}"
    _report(3, "the three module identities on all module cells p<=3, w<=8, "
               "g in {1,2}", t0, "<180s")


def test_criterion_4_bracket_oracle():
    t0 = time.time()
    for g in (1, 2):
        rep = bracket_oracle_sweep(g, 9)
        assert rep["ok"], rep
    _report(4, "closed-form bracket = commutator of actions on all pairs "
               "with weight sum <= 9; omega annihilated", t0, "exact, unbounded")


def test_criterion_5_splitting_values():
    t0 = time.time()
    assert schedler_delta(DerivationElem.necklace(1, (0, 1))).is_zero()
    got = schedler_delta(DerivationElem.necklace(2, (0, 2, 1, 3)))
    expected = BiDerivationElem(
        2,
        {
            ((2,), (3,)): 1,   # N(a2) (x) N(b2)
            ((3,), (2,)): -1,
            ((1,), (0,)): 1,   # N(b1) (x) N(a1)
            ((0,), (1,)): -1,
        },
    )
    assert got == expected
    assert mu_alg(Tensor.word(1, (0, 0, 1))).terms == {((), (0,)): 1}
    _report(5, "cobracket and comodule splitting small cases match the "
               "frozen values", t0, "exact")


def _homology_consistency(g: int, pmax: int, wmax: int) -> None:
    eng = _engine(g)
    # rank-nullity on every boundary matrix in range
    for p in range(1, pmax + 1):
        for w in range(p, wmax + 1):
            mat = eng.boundary_matrix(p, w)
            if mat.cols == 0:
                continue
            assert eng.boundary_rank(p, w) + len(kernel_basis(mat)) == mat.cols
    # Euler telescoping on every computed diagonal
    seen = set()
    for p in range(0, pmax + 1):
        for w in range(0, wmax + 1):
            s = w - 2 * p
            if s in seen:
                continue
            seen.add(s)
            rng = eng.diagonal_p_range(s, pmax, wmax)
            if rng is None:
                continue
            chk = eng.euler_check(s, rng)
            assert chk["ok"], chk
    # induced maps compose to zero across consecutive cells
    for p in range(0, pmax - 1):
        for w in range(4, wmax + 1):
            if eng.cell_dim(p, w) == 0 or eng.cell_dim(p + 2, w - 4) == 0:
                continue
            m1 = eng.induced_d(p, w)
            m2 = eng.induced_d(p + 1, w - 2)
            assert (m2.matrix @ m1.matrix).is_zero(), (g, p, w)


@pytest.mark.slow
def test_criterion_6_homology_consistency():
    t0 = time.time()
    _homology_consistency(1, 4, 8)
    _homology_consistency(2, 3, 7)
    _report(6, "rank-nullity, Euler telescoping per diagonal, and zero "
               "compositions of induced maps (g=1: p<=4, w<=8; g=2: p<=3, w<=7)",
            t0, "<5min")


@pytest.mark.slow
def test_criterion_7_deformation_invariance():
    t0 = time.time()
    lie_engines = {1: _engine(1), 2: _engine(2)}
    mod_engines = {1: _engine(1, module=True), 2: _engine(2, module=True)}

    # genus-2 module homology vanishes on all cells p<=2, w<=6 (computed
    # once); agreement of induced maps there is then exact for dimension
    # reasons, and the per-element content is the homotopy identity.
    for p in range(0, 3):
        for w in range(0, 7):
            assert mod_engines[2].homology_dim(p, w) == 0

    explicit_budget = 120_000  # max dim of the boundary source cell used
    for g in (1, 2):
        lie_cells = [
            (p, w)
            for p in range(0, 3)
            for w in range(0, 7)
            if lie_engines[g].cell_dim(p, w) > 0
        ]
        mod_cells = [(p, w) for p in range(0, 3) for w in range(0, 7)]
        for wA in (2, 3, 4):
            for chain in n_space_basis(g, wA):
                a = DeformationElement(chain)
                b = DeformationElement(chain.scale(-1))
                for (p, w) in lie_cells:
                    # Eq.-style homotopy identity at matrix level: this is
                    # exactly the statement that the deformed-minus-base
                    # coboundary is the boundary commutator with E_A, hence
                    # induces zero on every homology class of the cell.
                    assert homotopy_check(a, p, w), (g, wA, p, w)
                    tgt_w = w + wA - 2
                    src_dim = lie_engines[g].cell_dim(p + 2, tgt_w + 2)
                    if (
                        lie_engines[g].homology_dim(p, w) > 0
                        and src_dim <= explicit_budget
                        and tgt_w <= 8
                    ):
                        piece = assemble_sigma_piece(a, p, w)
                        assert piece_induces_zero(
                            lie_engines[g], piece, p, w, tgt_w
                        ), (g, wA, p, w)
                if g == 2:
                    # module side certified by the vanishing dims above;
                    # exercise the module homotopy identity on small cells
                    for (p, w) in [(0, 2), (1, 3), (1, 4)]:
                        assert mod_homotopy_check(a, b, p, w), (g, wA, p, w)
                else:
                    mu_h = DeformedComodule(g, [b])
                    delta_h = DeformedCobracket(g, [a])
                    for (p, w) in mod_cells:
                        if mod_engines[g].cell_dim(p, w) == 0:
                            continue
                        assert mod_homotopy_check(a, b, p, w), (g, wA, p, w)
                        tgt_w = w + wA - 2
                        if (
                            mod_engines[g].homology_dim(p, w) > 0
                            and mod_engines[g].cell_dim(p + 2, tgt_w + 2)
                            <= explicit_budget
                        ):
                            piece = assemble_mod_piece(mu_h, delta_h, 0, p, w)
                            assert piece_induces_zero(
                                mod_engines[g], piece, p, w, tgt_w
                            ), (g, wA, p, w)

    # full precondition-checked comparison on representative elements
    engines = {("lie", 1): _engine(1), ("mod", 1): _engine(1, module=True),
               ("lie", 2): _engine(2), ("mod", 2): _engine(2, module=True)}
    for g in (1, 2):
        a = n_space_basis(g, 2)[0]
        rep = verify_deformation_invariance(
            a, a.scale(-1),
            lie_cells=[(1, 3), (2, 4)],
            mod_cells=[(1, 3)],
            check_weight=4,
            engines=engines,
            require_cojacobi=False,
        )
        assert rep["ok"], rep
    _report(7, "homotopy identity at matrix level and deformed = undeformed "
               "induced maps for every kernel element of weight <= 4, "
               "cells p<=2, w<=6, g in {1,2}", t0, "<5min")


def test_criterion_8_symplectic_expansions():
    t0 = time.time()
    for g, cutoff in ((1, 5), (2, 4)):
        theta = symplectic_expansion(g, cutoff)
        assert theta.check_normalization()
        assert theta.check_grouplike()
        assert theta.check_boundary()
    # round trip of a seeded random weight-3 perturbation (genus 2: the
    # weight-3 change-of-expansion space is zero at genus 1)
    rng = random.Random(SEED)
    g, cutoff = 2, 4
    theta = symplectic_expansion(g, cutoff)
    pool = symplectic_lie_derivations(g, 3)
    assert pool
    v = DerivationElem.zero(g)
    for u0 in pool:
        v = v + u0.scale(rng.choice([-2, -1, 1, 2]))
    assert not v.is_zero() and v.min_weight() == 3
    pert = Expansion(
        g,
        cutoff,
        {
            l: TruncatedSeries(exp_derivation(v, theta.series[l].tensor, cutoff), cutoff)
            for l in range(2 * g)
        },
    )
    assert pert.is_symplectic()
    recovered = compare_expansions(theta, pert)
    assert recovered == v.truncate(cutoff + 1)
    _report(8, "solver output exact at (g=1,D=5) and (g=2,D=4); weight-3 "
               "perturbation round-trips exactly", t0, "<3min")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ["expand", "--g", "1", "--degree", "4"],
        ["homology", "--g", "1", "--p", "0..3", "--w", "0..6"],
        ["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "4",
         "--seed", "11", "--samples", "10"],
        ["cobracket", "--g", "2", "N(a1 a2 b1 b2)"],
        ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--check-lemma31"],
    ]
    for idx, cmd in enumerate(commands):
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"c{idx}_{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "necklaces.cli", *cmd, "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], cmd
    _report(9, "CLI re-runs with identical arguments and seed are "
               "byte-identical (fresh interpreters)", t0, "exact")
