import random
from fractions import Fraction

import pytest

from necklaces.complexes import ChainVector, wedge_basis
from necklaces.deform import (
    DeformationElement,
    DeformedCobracket,
    DeformedComodule,
    ExpAdCobracket,
    check_cojacobi,
    check_coskew,
    deform_delta,
    exp_ad_conjugate,
    homotopy_check,
    mod_homotopy_check,
    n_space_basis,
    nabla_contract_chain,
    verify_deformation_invariance,
)
from necklaces.errors import ConditionFailed, MinWeightTooLow, NotInN
from necklaces.lie import DerivationElem, algebra
from oracles import oracle_homotopy_check, oracle_mod_homotopy_check, oracle_sigma_of

A1, B1, A2, B2 = 0, 1, 2, 3


class TestNSpace:
    def test_weight2_g1(self):
        basis = n_space_basis(1, 2)
        assert len(basis) == 1
        # the only wedge of weight-1 letters, up to scale
        ((tup, c),) = basis[0].terms()
        ctx = algebra(1)
        assert {ctx.word_at(k) for k in tup} == {(A1,), (B1,)}

    def test_all_outputs_in_kernel(self):
        for g in (1, 2):
            for w in (2, 3, 4):
                for v in n_space_basis(g, w):
                    assert nabla_contract_chain(v).is_zero()

    def test_kernel_dimension_matches_engine(self):
        from necklaces.linalg import nullity
        from necklaces.complexes import assemble

        for g in (1, 2):
            for w in (2, 3, 4):
                assert len(n_space_basis(g, w)) == nullity(assemble("boundary", g, 2, w))


class TestDeformedCobracket:
    def test_zero_deformation_is_base(self):
        h = DeformedCobracket(1, [])
        ctx = algebra(1)
        for m in (4, 5):
            for nw in ctx.basis_words(m):
                assert h.delta_word(nw) == {
                    (a, b): c for a, b, c in ctx.delta_word(nw)
                }

    def test_not_in_n_rejected(self):
        basis = wedge_basis(2, 2, 4)
        ctx = algebra(2)
        found = None
        for i in range(basis.dim()):
            cand = ChainVector(basis, {i: 1})
            if not nabla_contract_chain(cand).is_zero():
                found = cand
                break
        assert found is not None
        with pytest.raises(NotInN):
            deform_delta(found)

    def test_coskew_automatic(self):
        for g in (1, 2):
            for A in n_space_basis(g, 3)[:3]:
                h = DeformedCobracket(g, [A])
                assert check_coskew(h, 5)

    def test_cojacobi_not_automatic(self):
        # the coboundary deformation needs an extra condition for coJacobi;
        # record one failing and one passing case
        fails = [
            i
            for i, A in enumerate(n_space_basis(1, 3))
            if not check_cojacobi(DeformedCobracket(1, [A]), 6)
        ]
        assert fails, "expected some weight-3 deformation to break coJacobi"
        assert check_cojacobi(DeformedCobracket(1, [n_space_basis(1, 2)[0]]), 6)

    def test_deform_delta_guard(self):
        bad = n_space_basis(1, 3)[1]
        with pytest.raises(ConditionFailed):
            deform_delta(bad, require_cojacobi_weight=6)


class TestHomotopyIdentity:
    def test_kernel_elements(self):
        for g in (1, 2):
            for w in (2, 3):
                for A in n_space_basis(g, w)[:2]:
                    for (p, wc) in [(0, 0), (1, 2), (1, 3), (2, 4)]:
                        assert homotopy_check(A, p, wc)

    def test_non_kernel_needs_nabla_term(self):
        basis = wedge_basis(2, 2, 4)
        cand = None
        for i in range(basis.dim()):
            v = ChainVector(basis, {i: 1})
            if not nabla_contract_chain(v).is_zero():
                cand = DeformationElement(v)
                break
        assert cand is not None and not cand.in_n
        for (p, wc) in [(1, 2), (1, 3), (2, 4)]:
            assert homotopy_check(cand, p, wc)

    def test_p0_both_sides_zero(self):
        A = DeformationElement(n_space_basis(1, 2)[0])
        from necklaces.deform import assemble_sigma_piece

        assert assemble_sigma_piece(A, 0, 0).is_zero()
        assert homotopy_check(A, 0, 0)

    def test_module_homotopy_sign(self):
        A = DeformationElement(n_space_basis(1, 3)[0])
        negA = DeformationElement(n_space_basis(1, 3)[0].scale(-1))
        assert mod_homotopy_check(A, negA, 1, 2)
        assert not mod_homotopy_check(A, A, 1, 2)

    def test_module_homotopy_takes_chain_vectors(self):
        A = n_space_basis(1, 3)[0]
        assert mod_homotopy_check(A, A.scale(-1), 1, 2)
        assert not mod_homotopy_check(A, A, 1, 2)


def _random_two_vector(rng, g, w, in_kernel):
    """Three terms with coefficients +-1..3 over 1..6: a combination of
    kernel basis vectors, or of wedge monomials (generically not in the
    kernel)."""
    if in_kernel:
        gens = n_space_basis(g, w)
    else:
        basis = wedge_basis(g, 2, w)
        gens = [ChainVector(basis, {i: 1}) for i in range(basis.dim())]
    out = None
    for v in rng.sample(gens, min(3, len(gens))):
        term = v.scale(Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.randint(1, 6)))
        out = term if out is None else out + term
    return out


class TestIntegerScaledChecks:
    """The checks compare columns for L*A (and L*B) in int; the oracles
    are the Fraction paths they replaced, run on A and B themselves."""

    LIE_CELLS = [(0, 0), (1, 2), (1, 3), (2, 4)]
    MOD_CELLS = [(0, 2), (1, 2), (1, 3)]

    def test_homotopy_check_matches_oracle(self):
        rng = random.Random(4)
        outside = 0
        for g, w_a in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
            for in_kernel in (True, False):
                for _ in range(2):
                    a = DeformationElement(_random_two_vector(rng, g, w_a, in_kernel))
                    outside += not a.in_n
                    for p, w in self.LIE_CELLS:
                        # true for every A; off the kernel only with E_{nabla A}
                        assert homotopy_check(a, p, w) is oracle_homotopy_check(a, p, w) is True
        assert outside >= 6

    def test_mod_homotopy_check_matches_oracle(self):
        # both sides are jointly linear in (A, B) and agree at B = -A, so
        # (A, B) passes iff (0, A + B) does: (A, A) and (A, -A/2) pass or
        # fail together
        rng = random.Random(5)
        failing = 0
        for g, w_a in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            for _ in range(2):
                a = _random_two_vector(rng, g, w_a, True)
                b = _random_two_vector(rng, g, w_a, True)
                for p, w in self.MOD_CELLS:
                    got = {}
                    for name, x, y in [
                        ("-A", a, a.scale(-1)),
                        ("A", a, a),
                        ("-A/3", a.scale(Fraction(1, 3)), a.scale(Fraction(-1, 3))),
                        ("-A/2", a, a.scale(Fraction(-1, 2))),
                        ("B", a, b),
                    ]:
                        dx, dy = DeformationElement(x), DeformationElement(y)
                        got[name] = mod_homotopy_check(dx, dy, p, w)
                        assert got[name] is oracle_mod_homotopy_check(dx, dy, p, w)
                    assert got["-A"] is got["-A/3"] is True
                    # one L for A and B together: scaling each to its own
                    # primitive vector would turn (A, -A/2) into (A', -A')
                    assert got["-A/2"] is got["A"]
                    failing += not got["A"]
        assert failing >= 8

    def test_callers_element_unchanged(self):
        rng = random.Random(6)
        chain = _random_two_vector(rng, 2, 3, True)
        a = DeformationElement(chain)
        b = DeformationElement(chain.scale(Fraction(-1, 2)))
        assert any(type(c) is Fraction and c.denominator > 1 for c in chain.coeffs.values())

        def state():
            return [
                (dict(d.chain.coeffs), [type(c) for c in d.chain.coeffs.values()],
                 d.to_json_dict(), d.in_n)
                for d in (a, b)
            ]

        before = state()
        assert homotopy_check(a, 1, 3)
        assert not mod_homotopy_check(a, b, 1, 2)
        assert state() == before
        # A's own sigma values are those of L*A divided by L
        ctx = algebra(2)
        for x in range(ctx.offset(4)):
            assert a.sigma_of(x) == oracle_sigma_of(a, x)


class TestInvariance:
    def test_invariance_all_w2_and_w3(self):
        engines = {}
        for g in (1, 2):
            for w in (2, 3):
                for A in n_space_basis(g, w):
                    rep = verify_deformation_invariance(
                        A,
                        A.scale(-1),
                        lie_cells=[(0, 0), (1, 3), (1, 4), (2, 4)],
                        mod_cells=[(0, 2), (0, 4), (1, 3)],
                        check_weight=4,
                        engines=engines,
                        require_cojacobi=False,
                    )
                    assert rep["ok"], rep

    def test_condition_iii_enforced(self):
        A = n_space_basis(1, 3)[0]
        with pytest.raises(ConditionFailed):
            verify_deformation_invariance(
                A, A, lie_cells=[(1, 3)], check_weight=4, require_cojacobi=False
            )

    def test_not_in_n_raises(self):
        basis = wedge_basis(2, 2, 4)
        for i in range(basis.dim()):
            v = ChainVector(basis, {i: 1})
            if not nabla_contract_chain(v).is_zero():
                with pytest.raises(NotInN):
                    verify_deformation_invariance(v, v.scale(-1), lie_cells=[(1, 2)])
                break

    def test_nontrivial_module_cells(self):
        # genus-1 module homology is nonzero at (2, w) for w = 2, 4, 6;
        # check invariance where the classes actually live
        engines = {}
        for A in n_space_basis(1, 2) + n_space_basis(1, 4)[:3]:
            rep = verify_deformation_invariance(
                A,
                A.scale(-1),
                lie_cells=[(2, 2), (3, 6)],
                mod_cells=[(2, 2), (2, 4)],
                check_weight=4,
                engines=engines,
                require_cojacobi=False,
            )
            assert rep["ok"], rep


class TestExpAd:
    def test_min_weight_guard(self):
        u = DerivationElem.necklace(1, (A1, B1))  # weight 2
        with pytest.raises(MinWeightTooLow):
            ExpAdCobracket(u, 6)

    def test_zero_conjugator_is_identity(self):
        delta_h, mu_h, A_eq = exp_ad_conjugate(DerivationElem.zero(2), 6)
        assert A_eq == []
        ctx = algebra(2)
        nw = ctx.basis_words(4)[7]
        assert delta_h.delta_word(nw) == {
            (a, b): c for a, b, c in ctx.delta_word(nw)
        }

    def test_coboundary_formula(self):
        # (e^{ad u} delta - delta)(Z) = sigma(Z)(A) below the trusted weight
        from fractions import Fraction

        g = 2
        ctx = algebra(g)
        u = DerivationElem.necklace(g, (A1, A2, B1, B2))
        cutoff = 8
        delta_h, mu_h, A_eq = exp_ad_conjugate(u, cutoff)
        assert [a.weight for a in A_eq] == [2, 4, 6, 8]
        assert all(a.in_n for a in A_eq)
        out_bound = cutoff - 2
        for m in (1, 2, 3, 4):
            for zw in ctx.basis_words(m)[:4]:
                conj = delta_h.delta_word(zw)
                diff = dict(conj)
                for (a, b, c) in ctx.delta_word(zw):
                    diff[(a, b)] = diff.get((a, b), 0) - c
                diff = {k: Fraction(v) for k, v in diff.items() if v != 0}
                expect: dict = {}
                zidx = ctx.index_of_word(zw)
                for a in A_eq:
                    for x, y, c in a.sigma_of(zidx):
                        key = (ctx.word_at(x), ctx.word_at(y))
                        expect[key] = expect.get(key, 0) + c
                expect = {
                    k: Fraction(v)
                    for k, v in expect.items()
                    if v != 0 and len(k[0]) + len(k[1]) <= out_bound
                }
                assert diff == expect

    def test_comodule_formula(self):
        from fractions import Fraction

        g = 2
        rng = random.Random(11)
        u = DerivationElem.necklace(g, (A1, A2, B1, B2))
        cutoff = 8
        out_bound = cutoff - 2
        delta_h, mu_h, A_eq = exp_ad_conjugate(u, cutoff)
        # mu difference equals the module coboundary of -A_eq
        mu_ref = DeformedComodule(g, [DeformationElement(a.chain.scale(-1)) for a in A_eq])
        for k in range(0, 5):
            for _ in range(4):
                word = tuple(rng.randrange(2 * g) for _ in range(k))
                conj = {
                    key: Fraction(v) for key, v in mu_h.mu_word(word).items() if v
                }
                ref = {
                    key: Fraction(v)
                    for key, v in mu_ref.mu_word(word).items()
                    if v and len(key[0]) + len(key[1]) <= out_bound
                }
                assert conj == ref

    def test_induced_maps_below_cutoff(self):
        g = 1
        ctx = algebra(g)
        u = DerivationElem(g, {ctx.basis_words(4)[1]: 1})
        cutoff = 8
        delta_h, mu_h, A_eq = exp_ad_conjugate(u, cutoff)
        engines = {}
        out_bound = cutoff - 2
        for (p, w) in [(1, 2), (2, 2), (1, 3)]:
            comps = [a for a in A_eq if w + a.weight - 2 <= out_bound]
            if not comps:
                continue
            rep = verify_deformation_invariance(
                comps,
                [DeformationElement(a.chain.scale(-1)) for a in comps],
                lie_cells=[(p, w)],
                mod_cells=[(p, w)],
                check_weight=3,
                engines=engines,
                require_cojacobi=False,
            )
            assert rep["ok"], rep


class TestSerialization:
    def test_deformation_roundtrip(self):
        for A in n_space_basis(2, 3)[:4]:
            d = DeformationElement(A)
            d2 = DeformationElement.from_json_dict(d.to_json_dict())
            assert d2.chain == d.chain and d2.weight == d.weight
