import random
from itertools import product

import pytest

from necklaces import (
    BiDerivationElem,
    DerivationElem,
    Necklace,
    NotCyclic,
    Tensor,
    bracket,
    cyclicize,
    derivation_apply,
    derivation_tensor,
    mu_alg,
    necklace_basis,
    necklace_count,
    necklace_normal_form,
    omega,
    schedler_delta,
    sigma_bar,
)
from necklaces import words as W
from necklaces.lie import NecklaceContext, algebra
from necklaces.verify import (
    bialgebra_suite,
    bimodule_suite,
    cojacobi_defect,
    commutator_action_mismatch,
    nabla_contract,
    random_derivation,
    random_tensor,
)

from oracles import oracle_mu, oracle_necklace_action, oracle_schedler

A1, B1, A2, B2 = 0, 1, 2, 3


def N(g, *letters):
    return DerivationElem.necklace(g, tuple(letters))


class TestBasis:
    def test_g1_m2(self):
        basis = necklace_basis(1, 2)
        assert [n.word for n in basis] == [(A1, A1), (A1, B1), (B1, B1)]
        assert len(basis) == 3  # = dim sp_2

    def test_g2_m2(self):
        assert len(necklace_basis(2, 2)) == 10  # = dim sp_4 = 2g^2+g

    def test_g1_m6(self):
        assert len(necklace_basis(1, 6)) == 14

    def test_counting_formula(self):
        for g in (1, 2):
            for m in range(1, 9):
                assert len(necklace_basis(g, m)) == necklace_count(g, m)

    def test_index_roundtrip(self):
        ctx = algebra(2)
        for m in (1, 2, 3, 4):
            for w in ctx.basis_words(m):
                assert ctx.word_at(ctx.index_of_word(w)) == w

    def test_canonical_rotation_is_the_minimal_rotation(self):
        # exhaustive over 4 letters, lengths 1..8 (87,380 words)
        for m in range(1, 9):
            for word in product(range(4), repeat=m):
                assert W.canonical_rotation(word) == min(W.rotations(word))

    def test_offset_counts_lower_weights(self):
        ctx = NecklaceContext(2)
        for m in range(1, 8):
            assert ctx.offset(m) == sum(necklace_count(2, j) for j in range(1, m))

    def test_canonical_minimal(self):
        assert Necklace((B1, A1)).word == (A1, B1)
        assert Necklace((B2, A1, B1)).word == (A1, B1, B2)


class TestNormalForm:
    def test_cyclicize_to_basis(self):
        t = cyclicize(Tensor.word(1, (A1, B1)))
        assert necklace_normal_form(t) == N(1, A1, B1)

    def test_periodic_multiplicity(self):
        t = Tensor.word(1, (A1, A1), 2)  # = cyclicize(a1 a1)
        assert necklace_normal_form(t) == N(1, A1, A1)

    def test_not_cyclic(self):
        with pytest.raises(NotCyclic):
            necklace_normal_form(Tensor.word(1, (A1, B1)))

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for g in (1, 2):
            for _ in range(20):
                u = random_derivation(rng, g, 5, 4)
                assert necklace_normal_form(derivation_tensor(u)) == u


class TestDerivationAction:
    def test_two_term_rotation(self):
        assert derivation_apply(N(1, A1, B1), Tensor.letter(1, A1)) == Tensor.word(
            1, (A1,), -1
        )

    def test_weight_one(self):
        assert derivation_apply(N(1, A1), Tensor.letter(1, B1)) == Tensor.unit(1)

    def test_annihilates_omega(self):
        rng = random.Random(17)
        for g in (1, 2):
            om = omega(g)
            for _ in range(25):
                u = random_derivation(rng, g, 6, 3)
                assert derivation_apply(u, om).is_zero()

    def test_annihilates_omega_basis_weight7(self):
        om = omega(1)
        for m in range(1, 8):
            for n in necklace_basis(1, m):
                assert derivation_apply(DerivationElem(1, {n.word: 1}), om).is_zero()

    def test_oracle_on_words(self):
        rng = random.Random(23)
        for g in (1, 2):
            ctx = algebra(g)
            for _ in range(30):
                m = rng.randint(1, 5)
                basis = ctx.basis_words(m)
                w = basis[rng.randrange(len(basis))]
                k = rng.randint(0, 4)
                target = tuple(rng.randrange(2 * g) for _ in range(k))
                got = derivation_apply(
                    DerivationElem(g, {w: 1}), Tensor.word(g, target)
                )
                assert got.terms == oracle_necklace_action(w, target)

    def test_leibniz(self):
        rng = random.Random(29)
        for _ in range(15):
            u = random_derivation(rng, 2, 4, 2)
            x = random_tensor(rng, 2, 3, 3)
            y = random_tensor(rng, 2, 3, 3)
            assert derivation_apply(u, x * y) == derivation_apply(u, x) * y + x * derivation_apply(u, y)

    def test_sigma_bar(self):
        assert sigma_bar(Tensor.letter(1, A1), N(1, A1, B1)) == Tensor.letter(1, A1)
        rng = random.Random(37)
        for _ in range(10):
            u = random_derivation(rng, 1, 4, 2)
            assert sigma_bar(Tensor.unit(1), u).is_zero()


class TestBracket:
    def test_hand_example(self):
        assert bracket(N(1, A1, A1), N(1, B1)) == N(1, A1).scale(2)

    def test_weight_zero_output_dies(self):
        assert bracket(N(1, A1), N(1, B1)).is_zero()

    def test_self_bracket_zero(self):
        rng = random.Random(41)
        for g in (1, 2):
            for _ in range(10):
                u = random_derivation(rng, g, 6)
                assert bracket(u, u).is_zero()

    def test_skew_and_jacobi_random(self):
        rng = random.Random(43)
        for g in (1, 2):
            for _ in range(15):
                u, v, w = (random_derivation(rng, g, 6) for _ in range(3))
                assert (bracket(u, v) + bracket(v, u)).is_zero()
                jac = (
                    bracket(bracket(u, v), w)
                    + bracket(bracket(v, w), u)
                    + bracket(bracket(w, u), v)
                )
                assert jac.is_zero()

    def test_commutator_oracle_random(self):
        rng = random.Random(47)
        for g in (1, 2):
            for _ in range(20):
                u = random_derivation(rng, g, 6)
                v = random_derivation(rng, g, 6)
                assert not commutator_action_mismatch(u, v)

    def test_commutator_oracle_basis_small(self):
        for g in (1, 2):
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    for x in necklace_basis(g, m):
                        for y in necklace_basis(g, n):
                            u = DerivationElem(g, {x.word: 1})
                            v = DerivationElem(g, {y.word: 1})
                            assert not commutator_action_mismatch(u, v)


class TestSchedlerDelta:
    def test_vanishes_below_weight_4(self):
        assert schedler_delta(N(1, A1, B1)).is_zero()
        for g in (1, 2):
            for m in (1, 2, 3):
                for n in necklace_basis(g, m):
                    assert schedler_delta(DerivationElem(g, {n.word: 1})).is_zero()

    def test_g2_four_term_value(self):
        got = schedler_delta(N(2, A1, A2, B1, B2))
        expected = BiDerivationElem(
            2,
            {
                ((A2,), (B2,)): 1,
                ((B2,), (A2,)): -1,
                ((B1,), (A1,)): 1,
                ((A1,), (B1,)): -1,
            },
        )
        assert got == expected

    def test_g1_cancellation(self):
        assert schedler_delta(N(1, A1, A1, B1, B1)).is_zero()

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(53)
        for g in (1, 2):
            ctx = algebra(g)
            for _ in range(40):
                m = rng.randint(1, 7)
                basis = ctx.basis_words(m)
                w = basis[rng.randrange(len(basis))]
                got = schedler_delta(DerivationElem(g, {w: 1}))
                assert got.terms == oracle_schedler(w)

    def test_rotation_representative_independence(self):
        rng = random.Random(59)
        for g in (1, 2):
            ctx = algebra(g)
            for _ in range(40):
                m = rng.randint(4, 7)
                basis = ctx.basis_words(m)
                w = basis[rng.randrange(len(basis))]
                r = rng.randrange(m)
                rotated = w[r:] + w[:r]
                assert oracle_schedler(rotated) == oracle_schedler(w)

    def test_coskew_and_cojacobi_basis(self):
        for g in (1, 2):
            for m in range(1, 7):
                for n in necklace_basis(g, m):
                    u = DerivationElem(g, {n.word: 1})
                    d = schedler_delta(u)
                    assert (d + d.swap()).is_zero()
                    assert not cojacobi_defect(u)

    def test_involutivity_basis(self):
        for g in (1, 2):
            for m in range(1, 7):
                for n in necklace_basis(g, m):
                    u = DerivationElem(g, {n.word: 1})
                    assert nabla_contract(schedler_delta(u)).is_zero()

    def test_g1_low_weight_vanishing_report(self):
        # cobracket tests need g >= 2 for nonzero values at low weight;
        # record the observed vanishing range for g = 1.
        smallest = None
        for m in range(1, 7):
            for n in necklace_basis(1, m):
                if not schedler_delta(DerivationElem(1, {n.word: 1})).is_zero():
                    smallest = m
                    break
            if smallest:
                break
        assert smallest is None  # no nonzero value up to weight 6 at g=1


class TestMu:
    def test_adjacent_pair_dies(self):
        assert mu_alg(Tensor.word(1, (A1, B1))).is_zero()

    def test_three_letter(self):
        got = mu_alg(Tensor.word(1, (A1, A1, B1)))
        assert got.terms == {((), (A1,)): 1}

    def test_four_letter(self):
        got = mu_alg(Tensor.word(1, (A1, B1, A1, B1)))
        assert got.terms == {((), (A1, B1)): 1}

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(61)
        for g in (1, 2):
            for _ in range(60):
                m = rng.randint(0, 7)
                w = tuple(rng.randrange(2 * g) for _ in range(m))
                assert mu_alg(Tensor.word(g, w)).terms == oracle_mu(w)


class TestSuites:
    def test_bialgebra_suite_small(self):
        for g in (1, 2):
            rep = bialgebra_suite(g, 5, seed=2024, samples=10)
            assert rep["ok"], rep

    def test_bimodule_suite_small(self):
        for g in (1, 2):
            rep = bimodule_suite(g, 5, seed=2024, samples=10)
            assert rep["ok"], rep


class TestJson:
    def test_derivation_roundtrip(self):
        rng = random.Random(67)
        for _ in range(10):
            u = random_derivation(rng, 2, 5)
            assert DerivationElem.from_json_dict(u.to_json_dict()) == u

    def test_shapes(self):
        u = N(1, A1, B1)
        assert u.to_json_dict() == {
            "g": 1,
            "terms": [{"necklace": "a1 b1", "coeff": "1"}],
        }
        d = schedler_delta(N(2, A1, A2, B1, B2))
        js = d.to_json_dict()
        assert set(js["terms"][0]) == {"left", "right", "coeff"}
        m = mu_alg(Tensor.word(1, (A1, A1, B1)))
        js = m.to_json_dict()
        assert js["terms"] == [{"word": "", "necklace": "a1", "coeff": "1"}]
