import random
from fractions import Fraction

import pytest

import numpy as np

from necklaces import deform as D
from necklaces.complexes import (
    AlgCobracket, AlgComodule, ChainVector, action_table, mod_layout, wedge_basis,
)
from necklaces.deform import (
    DeformationElement,
    assemble_sigma_piece,
    DeformedCobracket,
    DeformedComodule,
    ExpAdCobracket,
    check_coaction,
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
from necklaces.errors import CellTooLarge, ConditionFailed, GenusMismatch, MinWeightTooLow, NotInN
from necklaces.lie import DerivationElem, NecklaceContext, algebra, necklace_count
from necklaces.tensors import _joined, _product, _summed
from oracles import (
    oracle_homotopy_check,
    oracle_mod_homotopy_check,
    oracle_mod_piece,
    oracle_sigma_of,
    oracle_sigma_piece,
)

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

    def test_word_level_checks_read_the_handles(self):
        # every handle gives its value on words (delta_word, mu_word), and
        # the checks read it: the canonical handles pass, and handles whose
        # values are doubled fail the coaction square, which is linear in
        # delta and not homogeneous in mu
        assert check_cojacobi(AlgCobracket(1), 6) and check_coskew(AlgCobracket(1), 6)
        delta, mu = AlgCobracket(2), AlgComodule(2)
        assert check_coaction(delta, mu, 6)
        assert check_coaction(DeformedCobracket(2, []), DeformedComodule(2, []), 6)

        class Doubled:
            def __init__(self, handle, name):
                self.g, self._value = handle.g, getattr(handle, name)
                setattr(self, name, self._doubled)

            def _doubled(self, key):
                return {k: 2 * c for k, c in self._value(key).items()}

        assert not check_coaction(delta, Doubled(mu, "mu_word"), 6)
        assert not check_coaction(Doubled(delta, "delta_word"), mu, 6)

    def test_coaction_handles_of_two_genera_are_refused(self):
        # the words are those of the handles' genus: a genus-2 cobracket
        # with a genus-3 comodule is refused, not checked on words in
        # letters that one of them does not have
        for delta, mu in ((AlgCobracket(2), AlgComodule(3)), (AlgCobracket(1), AlgComodule(2))):
            with pytest.raises(GenusMismatch, match="genus"):
                check_coaction(delta, mu, 4)

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


def _weight9():
    """N(a1) ^ N(a1 b1 a1 b1 a1 b1 a1 a2) at g = 2: off the kernel, and its
    weight-8 necklace makes a whole-weight bracket table of weights 3 and 8
    too large to build."""
    ctx = algebra(2)
    long = ctx.index_of_word((0, 1, 0, 1, 0, 1, 0, 2))
    chain = ChainVector.from_terms(wedge_basis(2, 2, 9), [((ctx.index_of_word((0,)), long), 1)])
    return DeformationElement(chain)


def _flipped(a: DeformationElement, m: int) -> DeformationElement:
    """A with the sign of one entry of the weight-m sigma table of L*A
    flipped."""
    indptr, x, y, c = a.sigma_csr(m)
    c = c.copy()
    c[len(c) // 2] *= -1
    a._sigma[m] = (indptr, x, y, c)
    return a


def _sigma_row(a: DeformationElement, table, n: int) -> tuple:
    """Row n of a CSR sigma table of L*A, divided by L: ((x, y, coeff),
    ...), as ``sigma_of`` gives it."""
    indptr, x, y, c = table
    lo, hi = indptr[n], indptr[n + 1]
    return tuple(zip(x[lo:hi].tolist(), y[lo:hi].tolist(),
                     (Fraction(v, a._denominator) for v in c[lo:hi].tolist())))


class TestArrayChecks:
    """The array identity checks against the per-monomial oracles, on
    seeded elements: kernel and non-kernel A, Fraction coefficients, and
    module pairs that pass and fail."""

    LIE_CELLS = TestIntegerScaledChecks.LIE_CELLS + [(2, 5)]
    MOD_CELLS = TestIntegerScaledChecks.MOD_CELLS

    @pytest.mark.parametrize("g, w_a", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_lie_matches_oracle(self, g, w_a):
        rng = random.Random(100 * g + w_a)
        for in_kernel in (True, False):
            a = DeformationElement(_random_two_vector(rng, g, w_a, in_kernel))
            for p, w in self.LIE_CELLS:
                assert homotopy_check(a, p, w) is oracle_homotopy_check(a, p, w) is True

    @pytest.mark.parametrize("g, w_a", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_module_matches_oracle(self, g, w_a):
        rng = random.Random(200 * g + w_a)
        a = _random_two_vector(rng, g, w_a, True)
        b = _random_two_vector(rng, g, w_a, rng.random() < 0.5)
        verdicts = []
        for p, w in self.MOD_CELLS:
            for y in (a.scale(-1), a, a.scale(Fraction(-1, 2)), b):
                dx, dy = DeformationElement(a), DeformationElement(y)
                got = mod_homotopy_check(dx, dy, p, w)
                assert got is oracle_mod_homotopy_check(dx, dy, p, w)
                verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_sigma_table_fault_is_caught(self):
        rng = random.Random(7)
        for g, w_a in [(1, 3), (2, 3)]:
            chain = _random_two_vector(rng, g, w_a, True)
            a = DeformationElement(chain)
            # A and -A have one L: _cleared leaves them as they are, so the
            # checks read the flipped table
            plus = a
            minus = DeformationElement(chain.scale(-1))
            assert homotopy_check(plus, 1, 2) and mod_homotopy_check(plus, minus, 1, 2)
            bad = _flipped(DeformationElement(chain), 2)
            assert not homotopy_check(bad, 1, 2)
            assert not mod_homotopy_check(bad, minus, 1, 2)

    @pytest.mark.parametrize("scale", [Fraction(2**40, 3), Fraction(2**70, 7)])
    def test_large_coefficients_are_exact(self, scale):
        # L*A has entries near 2**40 (sums past 2**62 need Python ints) or
        # past int64 altogether: the verdicts must still be the oracle's
        rng = random.Random(8)
        chain = _random_two_vector(rng, 2, 3, False).scale(scale)
        a = DeformationElement(chain)
        assert any(abs(c) > 2**39 for c in a.coeffs.tolist())
        for p, w in [(1, 3), (2, 4)]:
            assert homotopy_check(a, p, w) is oracle_homotopy_check(a, p, w) is True
        kernel = DeformationElement(_random_two_vector(rng, 2, 3, True).scale(scale))
        for b, want in [(kernel.chain.scale(-1), True), (kernel.chain, False)]:
            b = DeformationElement(b)
            got = mod_homotopy_check(kernel, b, 1, 3)
            assert got is oracle_mod_homotopy_check(kernel, b, 1, 3) is want
        assert not homotopy_check(_flipped(kernel, 2), 1, 2)

    def test_exact_arithmetic_falls_back_to_python_ints(self):
        big = np.array([2**40, -(2**40)], dtype=np.int64)
        assert _product(big, np.array([2**30, 3])).dtype == object
        # the products switch to Python ints at 2**62
        below = _product(np.array([2**31 - 1]), np.array([-(2**31)]))
        assert below.dtype == np.int64 and below.tolist() == [-(2**62) + 2**31]
        past = _product(np.array([[2**31], [3]]), np.array([2**31, -1]))
        assert past.dtype == object and past.tolist() == [[2**62, -(2**31)], [3 * 2**31, -3]]
        # eight terms of 2**60 sum past int64 on one key
        (_,), sums = _summed((np.zeros(8, dtype=np.int64),), np.full(8, 2**60, dtype=np.int64))
        assert sums.dtype == object and sums.tolist() == [2**63]
        (_,), sums = _summed((np.arange(3),), np.array([1, -2, 3]))
        assert sums.dtype == np.int64 and sums.tolist() == [1, -2, 3]
        # packed keys (small radices) and lexsort (a radix product past
        # 2**62, or a negative column) sum as the plain dict sum, in order
        rng = np.random.default_rng(15)
        for highs in [(5, 7, 3), (9,), (2**40, 2**21, 3), (2**21, 2**21, 2**21), (-4, 6)]:
            pool = np.stack([rng.integers(min(h, 0), abs(h), 40) for h in highs], axis=1)
            rows = pool[rng.integers(0, 40, 400)]
            for coeff in (rng.integers(-3, 4, 400), np.array([2**70, -(2**70), 1, 0] * 100, dtype=object)):
                keys, sums = _summed(tuple(rows.T), coeff)
                acc: dict = {}
                for row, c in zip(map(tuple, rows.tolist()), coeff.tolist()):
                    acc[row] = acc.get(row, 0) + c
                want = sorted((row, c) for row, c in acc.items() if c)
                assert list(zip(zip(*(k.tolist() for k in keys)), sums.tolist())) == want
                assert sums.dtype == coeff.dtype
        keys, sums = _summed((np.zeros(0, dtype=np.int64),) * 2, np.zeros(0, dtype=np.int64))
        assert [k.shape for k in keys] == [(0,), (0,)] and sums.shape == (0,)
        # no part: empty columns of the given shapes
        empty = _joined([], 0, (0, 3), 0)
        assert [(e.shape, e.dtype) for e in empty] == [((0,), np.int64), ((0, 3), np.int64), ((0,), np.int64)]

    def test_plain_brackets_over_the_budget_come_from_the_pairs(self, monkeypatch):
        # with the budget between the module cell (2, 4) (397 entries) and
        # the bracket table of weights 2 and 2 (400), the pairs of a tuple's
        # own necklaces are bracketed as pairs present instead of refused
        a = DeformationElement(n_space_basis(2, 2)[0])
        pairs = [(DeformationElement(a.chain.scale(s)), s == -1) for s in (-1, 1)]
        lie_want = [oracle_homotopy_check(a, p, w) for p, w in [(1, 3), (2, 4)]]
        mod_want = [oracle_mod_homotopy_check(a, b, 2, 4) for b, _ in pairs]
        assert lie_want == [True, True] and mod_want == [ok for _, ok in pairs]
        # and so are the pairs that hold one of A's necklaces: on the cells
        # (1, 2), whose tuples have one factor, a bracket of weights 2 and 2
        # is one of the weight-2 necklace of A with the cell's necklace
        a3 = DeformationElement(n_space_basis(2, 3)[0])
        b3 = [DeformationElement(a3.chain.scale(s)) for s in (-1, 1)]
        want3 = [oracle_homotopy_check(a3, 1, 2)] + [oracle_mod_homotopy_check(a3, b, 1, 2) for b in b3]
        assert want3[:2] == [True, True] and a3.weight == 3
        budget = mod_layout(2, 2, 4).dim
        assert necklace_count(2, 2) ** 2 * 4 > budget
        ctx = algebra(2)
        monkeypatch.setattr(CellTooLarge, "BUDGET", budget)
        monkeypatch.setattr(ctx, "_bracket_table_memo", {})
        monkeypatch.setattr(ctx, "_bracket_asked", {})
        with pytest.raises(CellTooLarge, match="bracket table of weights 2 and 2"):
            ctx.bracket_table(2, 2)
        assert [homotopy_check(a, p, w) for p, w in [(1, 3), (2, 4)]] == lie_want
        assert [mod_homotopy_check(a, b, 2, 4) for b, _ in pairs] == mod_want
        brackets, seen = ctx.brackets, set()

        def spy(i, j):
            seen.update(zip(ctx.weights(i).tolist(), ctx.weights(j).tolist()))
            return brackets(i, j)

        monkeypatch.setattr(ctx, "brackets", spy)
        assert homotopy_check(a3, 1, 2) is want3[0] and (2, 2) in seen
        seen.clear()
        assert [mod_homotopy_check(a3, b, 1, 2) for b in b3] == want3[1:] and (2, 2) in seen
        assert (2, 2) not in ctx._bracket_table_memo

    def test_a_wrong_plain_bracket_is_caught(self, monkeypatch):
        # one bracket term with its sign flipped, on the first call that
        # returns a term: both checks read every bracket from
        # NecklaceContext.brackets, so both fail on a cell that reads that
        # term
        a = DeformationElement(n_space_basis(2, 3)[0])
        b = DeformationElement(a.chain.scale(-1))
        cases = [(homotopy_check, (a, 2, 4)), (mod_homotopy_check, (a, b, 1, 2))]
        assert all(check(*args) for check, args in cases)
        ctx = algebra(2)
        brackets = ctx.brackets
        for check, args in cases:
            flipped = []

            def wrong(i, j):
                q, target, coeff = brackets(i, j)
                if len(coeff) and not flipped:
                    coeff = coeff.copy()
                    coeff[0] *= -1
                    flipped.append(True)
                return q, target, coeff

            monkeypatch.setattr(ctx, "brackets", wrong)
            assert check(*args) is False and flipped

    def test_a_few_rows_build_no_whole_bracket_table(self, monkeypatch):
        # a weight-4 A with a weight-3 necklace on the cell (1, 6): the
        # check brackets A's weight-3 necklaces with the weight-6 ones of
        # the cell, a share of the 16,800 pairs of weights 3 and 6 that
        # never adds up to the whole table, so that table is not built
        ctx = algebra(2)
        monkeypatch.setattr(ctx, "_bracket_table_memo", {})
        monkeypatch.setattr(ctx, "_bracket_asked", {}, raising=False)
        a = next(x for x in n_space_basis(2, 4)
                 if any(ctx.weight_of(i) == 3 for t, _ in x.terms() for i in t))
        assert homotopy_check(a, 1, 6)
        assert (3, 6) not in ctx._bracket_table_memo

    @pytest.mark.parametrize("g", [1, 2])
    def test_sigma_piece_matches_emitter(self, g):
        rng = random.Random(9 + g)
        cells = [(p, w) for p in range(3) for w in range(7) if wedge_basis(g, p, w).dim()]
        for w_a in (2, 3, 4):
            a = DeformationElement(_random_two_vector(rng, g, w_a, True))
            for p, w in cells:
                if w + w_a - 2 > 8:
                    continue
                got, want = assemble_sigma_piece(a, p, w), oracle_sigma_piece(a, p, w)
                assert (got.rows, got.cols, got.columns) == (want.rows, want.cols, want.columns)

    @pytest.mark.parametrize("g", [1, 2])
    def test_mod_piece_matches_emitter(self, g):
        # criterion 7's module cells, with mu deformed by B and delta by A or
        # not at all
        rng = random.Random(19 + g)
        cells = [(p, w) for p in range(3) for w in range(7 if g == 1 else 5)]
        for w_a in (2, 3, 4):
            a = _random_two_vector(rng, g, w_a, True)
            b = _random_two_vector(rng, g, w_a, False)
            mu_h = DeformedComodule(g, [b])
            for delta_h in (DeformedCobracket(g, [a]), DeformedCobracket(g, [])):
                for p, w in cells:
                    got = D.assemble_mod_piece(mu_h, delta_h, 0, p, w)
                    want = oracle_mod_piece(mu_h, delta_h, 0, p, w)
                    assert (got.rows, got.cols, got.columns) == (want.rows, want.cols, want.columns)

    def test_no_whole_weight_table_for_a_long_necklace(self):
        # whole-weight tables for the weight-8 necklace would be over the
        # budget: brackets with the weight-3 necklaces, and the action on
        # words of length 4
        a = _weight9()
        assert not a.in_n
        with pytest.raises(CellTooLarge):
            algebra(2).bracket_table(3, 8)
        with pytest.raises(CellTooLarge):
            action_table(algebra(2), 4, 8)
        for p, w in [(1, 3), (2, 4)]:
            assert homotopy_check(a, p, w) is oracle_homotopy_check(a, p, w) is True
        b = DeformationElement(a.chain.scale(-1))
        for p, w in [(0, 2), (1, 3), (0, 4)]:
            assert mod_homotopy_check(a, b, p, w) is oracle_mod_homotopy_check(a, b, p, w) is True

    def test_sigma_csr_is_sigma_of(self):
        rng = random.Random(12)
        ctx = algebra(2)
        a = DeformationElement(_random_two_vector(rng, 2, 3, True))
        assert a._denominator > 1
        for m in (1, 2, 3):
            whole = a.sigma_csr(m)
            assert len(whole[0]) == necklace_count(2, m) + 1
            for n in range(len(ctx.basis_words(m))):
                got = _sigma_row(a, whole, n)
                assert got == a.sigma_of(ctx.offset(m) + n) == oracle_sigma_of(a, ctx.offset(m) + n)
            # a fresh element builds the same table, and memoises it
            fresh = DeformationElement(a.chain)
            assert all(np.array_equal(x, y) for x, y in zip(fresh.sigma_csr(m), whole))
            assert fresh.sigma_csr(m) is fresh._sigma[m]

    def test_sigma_rows_of_a_weight_not_yet_enumerated(self, monkeypatch):
        # on a context that has not enumerated weights 6 and 7, the whole
        # sigma tables of weights 6 and 7 enumerate their weight first, and
        # equal those of the shared context
        chain = n_space_basis(1, 2)[0]
        a = DeformationElement(chain)
        want = [a.sigma_csr(6), a.sigma_csr(7)]
        fresh = NecklaceContext(1)
        fresh.basis_words(2)  # the weights of A's necklaces
        monkeypatch.setattr(D, "algebra", lambda g: fresh)
        b = DeformationElement(chain)
        assert len(fresh._bases) <= 6
        got = [b.sigma_csr(6), b.sigma_csr(7)]
        assert all(np.array_equal(u, v) for x, y in zip(got, want) for u, v in zip(x, y))


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
