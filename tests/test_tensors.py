import random
from fractions import Fraction

import pytest

from necklaces import tensors
from necklaces import (
    CellTooLarge,
    Expansion,
    GenusMismatch,
    PrecisionError,
    Tensor,
    TruncatedSeries,
    concat_mul,
    coproduct,
    cyclicize,
    exp_series,
    inverse_series,
    is_grouplike,
    is_lie_element,
    log_series,
    omega,
    pairing,
)
from necklaces.words import Letter, parse_word, word_name
from oracles import (
    exact,
    oracle_evaluate,
    oracle_exp_series,
    oracle_inverse_series,
    oracle_log_series,
    left_bracketing,
    oracle_coproduct,
    oracle_is_grouplike,
    oracle_is_lie_element,
    oracle_left_bracketing,
    oracle_outer_square,
    oracle_series_mul,
    outer_square,
)

A1, B1, A2, B2 = 0, 1, 2, 3


def T(g, *terms):
    return Tensor(g, {w: c for w, c in terms})


def rand_tensor(rng, g, max_w=4, nterms=4):
    terms = {}
    for _ in range(nterms):
        m = rng.randint(0, max_w)
        w = tuple(rng.randrange(2 * g) for _ in range(m))
        terms[w] = terms.get(w, 0) + rng.choice([-2, -1, 1, 2])
    return Tensor(g, terms)


class TestConcat:
    def test_basis_concatenation(self):
        assert Tensor.letter(1, A1) * Tensor.letter(1, B1) == T(1, ((A1, B1), 1))

    def test_unit_law(self):
        rng = random.Random(7)
        one = Tensor.unit(2)
        for _ in range(10):
            t = rand_tensor(rng, 2)
            assert one * t == t
            assert t * one == t

    def test_bilinear_expansion(self):
        x = T(1, ((A1,), 1), ((B1,), 1))
        y = T(1, ((A1,), 1), ((B1,), -1))
        expected = T(1, ((A1, A1), 1), ((A1, B1), -1), ((B1, A1), 1), ((B1, B1), -1))
        assert x * y == expected

    def test_associative(self):
        rng = random.Random(11)
        for _ in range(15):
            x, y, z = (rand_tensor(rng, 2, 3, 3) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            concat_mul(Tensor.letter(1, A1), Tensor.letter(2, A2))


class TestPairing:
    def test_values(self):
        assert pairing(A1, B1) == 1
        assert pairing(B1, A1) == -1
        assert pairing(A1, B2) == 0
        assert pairing(Letter("a", 1), Letter("b", 1)) == 1

    def test_antisymmetric(self):
        for g in (1, 2, 3):
            for x in range(2 * g):
                for y in range(2 * g):
                    assert pairing(x, y) == -pairing(y, x)

    def test_pairing_matrix_determinant_one(self):
        # block-diagonal with 2x2 blocks [[0,1],[-1,0]], determinant 1
        for g in (1, 2, 3):
            n = 2 * g
            m = [[Fraction(pairing(i, j)) for j in range(n)] for i in range(n)]
            det = Fraction(1)
            for col in range(n):
                piv = next(r for r in range(col, n) if m[r][col] != 0)
                if piv != col:
                    m[col], m[piv] = m[piv], m[col]
                    det = -det
                det *= m[col][col]
                inv = 1 / m[col][col]
                for r in range(col + 1, n):
                    f = m[r][col] * inv
                    if f:
                        for cc in range(col, n):
                            m[r][cc] -= f * m[col][cc]
            assert det == 1


class TestOmegaCyclicize:
    def test_omega_g1(self):
        assert omega(1) == T(1, ((A1, B1), 1), ((B1, A1), -1))

    def test_omega_g2(self):
        assert omega(2) == T(
            2, ((A1, B1), 1), ((B1, A1), -1), ((A2, B2), 1), ((B2, A2), -1)
        )

    def test_omega_weight(self):
        for g in (1, 2, 3):
            assert omega(g).weight_support() == [2]

    def test_cyclicize_examples(self):
        assert cyclicize(T(1, ((A1, B1), 1))) == T(1, ((A1, B1), 1), ((B1, A1), 1))
        assert cyclicize(Tensor.unit(1)).is_zero()
        assert cyclicize(T(1, ((A1, A1), 1))) == T(1, ((A1, A1), 2))

    def test_cyclicize_squared_is_weight_times(self):
        rng = random.Random(3)
        for g in (1, 2):
            for m in range(1, 6):
                t = Tensor(
                    g,
                    {
                        tuple(rng.randrange(2 * g) for _ in range(m)): rng.choice([1, 2, -1])
                        for _ in range(4)
                    },
                )
                assert cyclicize(cyclicize(t)) == cyclicize(t).scale(m)


class TestSeries:
    def test_exp_zero(self):
        z = TruncatedSeries(Tensor.zero(1), 4)
        assert exp_series(z) == TruncatedSeries.unit(1, 4)

    def test_log_exp_omega(self):
        for d in (2, 3, 4, 5):
            s = TruncatedSeries(omega(1), d)
            assert log_series(exp_series(s)) == s

    def test_exp_omega_d4(self):
        s = TruncatedSeries(omega(1), 4)
        w = omega(1)
        expected = Tensor.unit(1) + w + (w * w).scale(Fraction(1, 2))
        assert exp_series(s) == TruncatedSeries(expected, 4)

    def test_exp_log_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(8):
            t = rand_tensor(rng, 2, 4, 4)
            t = t - t.component(0)  # kill weight 0
            s = TruncatedSeries(t, 5)
            assert log_series(exp_series(s)) == s
            u = TruncatedSeries.unit(2, 5) + s
            assert exp_series(log_series(u)) == u

    def test_exp_precondition(self):
        with pytest.raises(PrecisionError):
            exp_series(TruncatedSeries.unit(1, 3))
        with pytest.raises(PrecisionError):
            log_series(TruncatedSeries(Tensor.zero(1), 3))

    def test_inverse(self):
        rng = random.Random(9)
        for _ in range(6):
            t = rand_tensor(rng, 1, 4, 3)
            s = TruncatedSeries.unit(1, 5) + TruncatedSeries(t - t.component(0), 5)
            assert s * inverse_series(s) == TruncatedSeries.unit(1, 5)

    def test_mixed_cutoffs_use_min(self):
        a = TruncatedSeries(omega(1), 5)
        b = TruncatedSeries(omega(1), 3)
        assert (a * b).cutoff == 3


class TestCoproduct:
    def test_letter(self):
        s = TruncatedSeries(Tensor.letter(1, A1), 3)
        cp = coproduct(s)
        assert cp.terms == {((A1,), ()): 1, ((), (A1,)): 1}

    def test_unit(self):
        cp = coproduct(TruncatedSeries.unit(1, 2))
        assert cp.terms == {((), ()): 1}

    def test_word_a1b1(self):
        cp = coproduct(TruncatedSeries(T(1, ((A1, B1), 1)), 4))
        assert cp.terms == {
            ((A1, B1), ()): 1,
            ((A1,), (B1,)): 1,
            ((B1,), (A1,)): 1,
            ((), (A1, B1)): 1,
        }

    def test_grouplike_examples(self):
        assert is_grouplike(exp_series(TruncatedSeries(Tensor.letter(1, A1), 5)))
        assert not is_grouplike(
            TruncatedSeries(Tensor.unit(1) + T(1, ((A1, B1), 1)), 4)
        )
        assert is_grouplike(TruncatedSeries.unit(1, 4))

    def test_exp_of_primitive_grouplike(self):
        rng = random.Random(13)
        for g in (1, 2):
            for d in (3, 4, 5, 6):
                p = Tensor(
                    g,
                    {(rng.randrange(2 * g),): rng.choice([-2, -1, 1, 2]) for _ in range(3)},
                )
                assert is_grouplike(exp_series(TruncatedSeries(p, d)))


class TestLieElements:
    def test_letters_are_lie(self):
        assert is_lie_element(Tensor.letter(2, A2))

    def test_omega_is_lie(self):
        for g in (1, 2):
            assert is_lie_element(omega(g))

    def test_products_are_not(self):
        assert not is_lie_element(T(1, ((A1, A1), 1)))

    def test_brackets_are_lie(self):
        x = Tensor.letter(1, A1)
        y = Tensor.letter(1, B1)
        b = x * y - y * x
        assert is_lie_element(b)
        assert is_lie_element(b * x - x * b + y.scale(3))


def rand_coeff(rng, fractions):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.choice([1, 2, 3, 5])) if fractions else num


def rand_series(rng, g, cutoff, fractions):
    """A random series over weights 0..cutoff + 2 (the constructor drops
    what lies over the cutoff); now and then the unit or the zero series."""
    kind = rng.random()
    if kind < 0.05:
        return TruncatedSeries.unit(g, cutoff)
    if kind < 0.1:
        return TruncatedSeries(Tensor.zero(g), cutoff)
    terms = {}
    for _ in range(rng.randint(1, 10)):
        w = tuple(rng.randrange(2 * g) for _ in range(rng.randint(0, cutoff + 2)))
        terms[w] = rand_coeff(rng, fractions)
    return TruncatedSeries(Tensor(g, terms), cutoff)


def mixed_series(rng, g, cutoff, int_share):
    """A random series over weights 0..3 whose coefficients are ints with
    probability int_share and Fractions otherwise, half of those whole; a
    third of the numerators, and of the denominators, exceed 2**62."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        w = tuple(rng.randrange(2 * g) for _ in range(rng.randint(0, 3)))
        num = rng.choice([-3, -2, -1, 1, 2, 3]) * (2**63 + rng.randrange(5) if rng.random() < 1 / 3 else 1)
        if rng.random() < int_share:
            terms[w] = num
        elif rng.random() < 0.5:
            terms[w] = Fraction(num)
        else:
            terms[w] = Fraction(num, rng.choice([2, 3, 7]) * (2**64 + 1 if rng.random() < 1 / 3 else 1))
    return TruncatedSeries(Tensor(g, terms), cutoff)


class TestAgainstReferencePaths:
    """The weight-bounded product and outer square, the doubling coproduct
    and the dict-level Dynkin map against the paths they replaced: the same
    terms, in the same order, with coefficients of the same type."""

    def test_series_product(self):
        rng = random.Random(31)
        for _ in range(600):
            g = rng.choice([1, 2])
            fractions = rng.random() < 0.5
            x = rand_series(rng, g, rng.randint(0, 7), fractions)
            y = rand_series(rng, g, rng.randint(0, 7), fractions)
            got, want = x * y, oracle_series_mul(x, y)
            assert got.cutoff == want.cutoff
            assert exact([got.tensor.terms]) == exact([want.tensor.terms])

    def test_series_product_of_mixed_types(self):
        # ints, whole Fractions and Fractions in one series, some past 2**62
        # in numerator or denominator; the two factors mix the types in
        # different shares, and the unit and zero series come in too
        rng = random.Random(37)
        seen = set()
        for _ in range(400):
            g, d = rng.choice([1, 2]), rng.randint(0, 5)
            x, y = (mixed_series(rng, g, d, rng.random()) for _ in range(2))
            unit, zero = TruncatedSeries.unit(g, d), TruncatedSeries(Tensor.zero(g), d)
            for pair in ((x, y), (y, x), (unit, y), (x, unit), (zero, x), (y, zero)):
                got, want = pair[0] * pair[1], oracle_series_mul(*pair)
                assert got.cutoff == want.cutoff
                assert exact([got.tensor.terms]) == exact([want.tensor.terms])
                seen.update(
                    (type(c), c.denominator == 1, abs(c.numerator) > 2**62, c.denominator > 2**62)
                    for c in got.tensor.terms.values()
                )
        assert {
            (int, True, False, False), (int, True, True, False),
            (Fraction, True, False, False), (Fraction, True, True, False),
            (Fraction, False, True, True),
        } <= seen

    def test_series_product_of_exponentials(self):
        # dense operands: every weight up to the cutoff is present
        rng = random.Random(32)
        for g in (1, 2):
            for d in range(8 - 2 * g):
                p = Tensor(g, {(l,): rand_coeff(rng, True) for l in range(2 * g)})
                x = exp_series(TruncatedSeries(p, d))
                y = inverse_series(x)
                assert exact([(x * y).tensor.terms]) == exact(
                    [oracle_series_mul(x, y).tensor.terms]
                )

    def test_coproduct(self):
        rng = random.Random(33)
        for _ in range(200):
            g = rng.choice([1, 2])
            s = rand_series(rng, g, rng.randint(0, 7), rng.random() < 0.5)
            got, want = coproduct(s), oracle_coproduct(s)
            assert exact([got.terms]) == exact([want.terms])

    def test_outer_square(self):
        rng = random.Random(35)
        for _ in range(200):
            g = rng.choice([1, 2])
            s = rand_series(rng, g, rng.randint(0, 7), rng.random() < 0.5)
            got, want = outer_square(s), oracle_outer_square(s)
            assert got.g == want.g
            assert exact([got.terms]) == exact([want.terms])

    def test_left_bracketing(self):
        rng = random.Random(34)
        for _ in range(200):
            g = rng.choice([1, 2])
            t = rand_series(rng, g, rng.randint(0, 7), rng.random() < 0.5).tensor
            got, want = left_bracketing(t), oracle_left_bracketing(t)
            assert got.g == want.g
            assert exact([got.terms]) == exact([want.terms])


class TestSeriesKernel:
    """exp_series, log_series, inverse_series and Expansion.evaluate, on
    the one numerator kernel, against the power loops and the product
    chain that they replaced (tests/oracles.py)."""

    def test_matches_the_reference_paths(self):
        # seeded: the same values and cutoffs, and the same refusals, on
        # mixed_series (ints, whole Fractions and Fractions past 2**62),
        # rand_series, dense series with every letter and the zero and
        # unit series, at g = 1, 2, 3 and every cutoff 0..8
        seed = 2026
        print(f"seed {seed}")
        rng = random.Random(seed)
        pairs = ((exp_series, oracle_exp_series), (log_series, oracle_log_series),
                 (inverse_series, oracle_inverse_series))
        for g in (1, 2, 3):
            for d in range(9):
                unit, zero = TruncatedSeries.unit(g, d), TruncatedSeries(Tensor.zero(g), d)
                bases = [zero, unit]
                bases += [mixed_series(rng, g, d, rng.random()) for _ in range(3)]
                bases += [rand_series(rng, g, d, rng.random() < 0.5) for _ in range(3)]
                if (2 * g) ** d <= 4096:  # every word of weight <= d appears in the powers
                    bases.append(TruncatedSeries(Tensor(g, {
                        (l,): rand_coeff(rng, True) for l in range(2 * g)}), d))
                for case, base in enumerate(bases):
                    where = f"seed {seed}, g={g}, D={d}, case {case}: {base!r}"
                    low = TruncatedSeries(base.tensor - base.tensor.component(0), d)
                    one = unit + low
                    for (fn, oracle), arg, bad in zip(pairs, (low, one, one), (one, low, one + unit)):
                        got, want = fn(arg), oracle(arg)
                        assert got.cutoff == want.cutoff == d, f"{fn.__name__}, {where}"
                        assert got == want, f"{fn.__name__}, {where}"
                        with pytest.raises(PrecisionError) as refused:
                            fn(bad)
                        with pytest.raises(PrecisionError) as oracle_refused:
                            oracle(bad)
                        assert str(refused.value) == str(oracle_refused.value), where
                    assert inverse_series(one) * one == unit, where
                    assert log_series(exp_series(low)) == low, where
                if d:  # an expansion of these series, evaluated on random group words
                    theta = Expansion(g, d, {l: unit + TruncatedSeries(
                        b.tensor - b.tensor.component(0), d) for l, b in enumerate(rng.choices(bases, k=2 * g))})
                    for _ in range(4):
                        word = tuple(rng.choice([1, -1]) * rng.randint(1, 2 * g)
                                     for _ in range(rng.randint(0, 6)))
                        got, want = theta.evaluate(word), oracle_evaluate(theta, word)
                        where = f"seed {seed}, g={g}, D={d}, word {word}"
                        assert got.cutoff == want.cutoff == d and got == want, where


def rand_lie(rng, g, fractions):
    """A random Lie element of weights 1..4: letters and brackets of them."""
    letters = [Tensor.letter(g, l) for l in range(2 * g)]
    out = Tensor.zero(g)
    for _ in range(rng.randint(1, 4)):
        x = rng.choice(letters)
        for _ in range(rng.randint(0, 3)):
            y = rng.choice(letters)
            x = x * y - y * x
        out = out + x.scale(rand_coeff(rng, fractions))
    return out


HUGE = Fraction(2**70 + 1, 3)


class TestCertificateVerdicts:
    """is_grouplike and is_lie_element on integer word arrays give the
    verdicts of the Fraction paths: coproduct(s) == outer_square(s), and
    left_bracketing(t) == m*t on every weight m."""

    def test_random_series(self):
        rng = random.Random(36)
        for _ in range(300):
            g = rng.choice([1, 2, 3])
            s = rand_series(rng, g, rng.randint(0, 8), rng.random() < 0.5)
            assert is_grouplike(s) == oracle_is_grouplike(s)
            assert is_lie_element(s.tensor) == oracle_is_lie_element(s.tensor)

    def test_exponentials_of_lie_elements(self):
        rng = random.Random(37)
        for _ in range(40):
            g = rng.choice([1, 2, 3])
            fractions = rng.random() < 0.5
            x = rand_lie(rng, g, fractions)
            s = exp_series(TruncatedSeries(x, rng.randint(0, 8)))
            assert is_grouplike(s) and oracle_is_grouplike(s)
            assert is_lie_element(x) and oracle_is_lie_element(x)
            word = tuple(rng.randrange(2 * g) for _ in range(rng.randint(1, 4)))
            bent = TruncatedSeries(s.tensor + Tensor.word(g, word, rand_coeff(rng, fractions)), s.cutoff)
            assert is_grouplike(bent) == oracle_is_grouplike(bent)
            y = x + Tensor.word(g, word, rand_coeff(rng, fractions))
            assert is_lie_element(y) == oracle_is_lie_element(y)

    def test_zero_and_scalar(self):
        for d in (0, 3):
            zero = TruncatedSeries(Tensor.zero(2), d)
            two = TruncatedSeries(Tensor(2, {(): 2}), d)
            assert is_grouplike(zero) and oracle_is_grouplike(zero)
            assert not is_grouplike(two) and not oracle_is_grouplike(two)
        assert is_lie_element(Tensor.zero(2))
        assert not is_lie_element(Tensor(2, {(): 2}))

    def test_huge_coefficients_take_exact_ints(self, monkeypatch):
        dtypes = []
        values = tensors._exact

        def recorded(vals):
            out = values(vals)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(tensors, "_exact", recorded)
        a, b = Tensor.letter(1, A1), Tensor.letter(1, B1)
        s = exp_series(TruncatedSeries(a.scale(HUGE) + b, 4))
        assert is_grouplike(s) and oracle_is_grouplike(s)
        bent = TruncatedSeries(s.tensor + T(1, ((A1, B1), 1)), 4)
        assert not is_grouplike(bent) and not oracle_is_grouplike(bent)
        x = (a * b - b * a).scale(HUGE) + a.scale(HUGE * HUGE)
        assert is_lie_element(x) and oracle_is_lie_element(x)
        y = x + T(1, ((A1, A1, B1), HUGE))
        assert not is_lie_element(y) and not oracle_is_lie_element(y)
        assert object in dtypes

    def test_words_longer_than_a_rank(self):
        # (2g)^16 = 2^64 at g=8: weight-16 words are keyed by their letters
        a1, b8 = Tensor.letter(8, 0), Tensor.letter(8, 15)
        s = exp_series(TruncatedSeries(b8, 16))
        assert is_grouplike(s) and oracle_is_grouplike(s)
        bent = TruncatedSeries(s.tensor + Tensor.word(8, (15,) * 16, Fraction(1, 7)), 16)
        assert not is_grouplike(bent) and not oracle_is_grouplike(bent)
        ad = b8
        for _ in range(15):
            ad = a1 * ad - ad * a1
        assert len(ad.terms) == 16
        assert is_lie_element(ad) and oracle_is_lie_element(ad)
        assert not is_lie_element(ad + Tensor.word(8, (0,) * 15 + (15,), 1))
        assert not is_lie_element(ad + Tensor.word(8, (15, 0) * 8, 1))

    def test_tables_are_sized_first(self, monkeypatch):
        s = exp_series(TruncatedSeries(Tensor.letter(1, A1) + Tensor.letter(1, B1), 6))
        monkeypatch.setattr(CellTooLarge, "BUDGET", 64)
        with pytest.raises(CellTooLarge, match="split table of weight 6"):
            is_grouplike(s)
        with pytest.raises(CellTooLarge, match="Dynkin table of weight 6"):
            is_lie_element(s.tensor.component(6))


class TestJsonAndInvariants:
    def test_roundtrip(self):
        rng = random.Random(21)
        for _ in range(10):
            t = rand_tensor(rng, 2).scale(Fraction(3, 2))
            assert Tensor.from_json_dict(t.to_json_dict()) == t

    def test_json_shape(self):
        t = T(2, ((A1, B2, A1), Fraction(3, 2)))
        assert t.to_json_dict() == {
            "g": 2,
            "terms": [{"word": "a1 b2 a1", "coeff": "3/2"}],
        }

    def test_no_zero_terms_stored(self):
        t = T(1, ((A1,), 1)) - T(1, ((A1,), 1))
        assert t.terms == {}

    def test_word_names(self):
        assert word_name((A1, B2, A1)) == "a1 b2 a1"
        assert parse_word("a1 b2 a1") == (A1, B2, A1)
        assert parse_word("") == ()
