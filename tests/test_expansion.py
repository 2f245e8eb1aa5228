import itertools
import random
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from necklaces import expansion, tensors
from necklaces.errors import (
    CellTooLarge, GenusMismatch, InconsistentExpansions, PrecisionError, SolveFailed,
)
from necklaces.expansion import (
    Expansion,
    abelianization,
    boundary_word,
    compare_expansions,
    free_reduce,
    group_inverse,
    group_mul,
    group_word_name,
    lie_basis,
    lie_dimension,
    loop_tensor,
    lyndon_words,
    parse_group_word,
    symplectic_expansion,
    symplectic_lie_derivations,
)
from necklaces.lie import DerivationElem, exp_derivation
from necklaces.linalg import solve_columns
from necklaces.tensors import (
    Tensor,
    TruncatedSeries,
    exp_series,
    is_grouplike,
    is_lie_element,
    log_series,
    omega,
)
from oracles import (
    exact,
    oracle_compare_expansions,
    oracle_correction_system,
    oracle_is_grouplike,
    oracle_is_lie_element,
    oracle_solve_columns,
    oracle_symplectic_expansion,
)

A1, B1 = 0, 1


class TestGroupWords:
    def test_free_reduction(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((1, 2, -2, 3)) == (1, 3)

    def test_boundary_word(self):
        assert boundary_word(1) == (1, 2, -1, -2)
        assert len(boundary_word(2)) == 8
        for g in (1, 2, 3):
            assert abelianization(boundary_word(g), g) == {}

    def test_parse_and_name(self):
        w = parse_group_word("x1 x2^-1 x1")
        assert w == (1, -2, 1)
        assert group_word_name(w) == "x1 x2^-1 x1"
        assert parse_group_word("1") == ()


class TestExpansionPrecision:
    def test_a_series_below_the_cutoff_is_refused(self):
        a1, b1 = Tensor.letter(1, A1), Tensor.letter(1, B1)
        series = {0: exp_series(TruncatedSeries(a1, 2)), 1: exp_series(TruncatedSeries(b1, 5))}
        with pytest.raises(PrecisionError, match="x1 is known to weight 2, below the cutoff 5"):
            Expansion(1, 5, series)
        assert [s.cutoff for s in Expansion(1, 2, series).series.values()] == [2, 2]


class TestExpansionWeightZero:
    @pytest.mark.parametrize("c", [2, 0, Fraction(1, 2)])
    def test_a_series_without_constant_term_1_is_refused(self, c):
        series = {l: exp_series(TruncatedSeries(Tensor.letter(1, l), 3)) for l in range(2)}
        series[1] = series[1] + TruncatedSeries(Tensor.unit(1), 3).scale(c - 1)
        with pytest.raises(ValueError, match=f"x2 has weight-0 coefficient {c}, not 1"):
            Expansion(1, 3, series)


class TestExpansionGenus:
    def test_series_over_another_genus_are_refused(self):
        series = {l: exp_series(TruncatedSeries(Tensor.letter(1, l % 2), 3)) for l in range(4)}
        with pytest.raises(GenusMismatch, match="x1 is over genus 1, not 2"):
            Expansion(2, 3, series)

    def test_a_file_over_another_genus_is_refused(self):
        data = genus_one_file_of_genus_two()
        with pytest.raises(GenusMismatch, match="x1 is over genus 1, not 2"):
            Expansion.from_json_dict(data)
        data["g"] = 1
        assert Expansion.from_json_dict(data).check_normalization()


def genus_one_file_of_genus_two() -> dict:
    """An expansion file that says g = 2 and holds genus-1 tensors."""
    data = symplectic_expansion(1, 3).to_json_dict()
    data["g"] = 2
    data["theta"].update(x3=data["theta"]["x1"], x4=data["theta"]["x2"])
    return data


class TestEvaluate:
    def test_empty_word(self):
        th = Expansion.naive_exponential(1, 4)
        assert th.evaluate(()) == TruncatedSeries.unit(1, 4)

    def test_inverse_law(self):
        th = Expansion.naive_exponential(2, 5)
        assert th.evaluate((1, -1)) == TruncatedSeries.unit(2, 5)
        s = th.evaluate((3,)) * th.evaluate((-3,))
        assert s == TruncatedSeries.unit(2, 5)

    def test_bch_degree_two(self):
        for g in (1, 2):
            th0 = Expansion.naive_exponential(g, 4)
            lg = log_series(th0.evaluate(boundary_word(g)))
            assert lg.tensor.component(2) == omega(g)
            assert lg.tensor.component(0).is_zero()
            assert lg.tensor.component(1).is_zero()


class TestLieBasis:
    def test_weight1(self):
        assert len(lie_basis(1, 1)) == 2
        assert len(lie_basis(2, 1)) == 4

    def test_witt_dimensions(self):
        for g in (1, 2):
            for n in range(1, 6):
                assert len(lie_basis(g, n)) == lie_dimension(g, n)
        assert lie_dimension(1, 2) == 1
        assert lie_dimension(1, 3) == 2

    def test_elements_are_lie(self):
        for g in (1, 2):
            for n in range(1, 5):
                for h in lie_basis(g, n):
                    assert is_lie_element(h)
                    assert h.weight_support() == [n]

    def test_lyndon_words_count(self):
        # Lyndon words of length n over k letters = Witt number
        assert len(lyndon_words(2, 2)) == 1
        assert len(lyndon_words(2, 3)) == 2
        assert len(lyndon_words(4, 3)) == 20

    def test_linear_independence(self):
        from necklaces.linalg import SparseRationalMatrix, rank

        for g, n in [(1, 4), (1, 5), (2, 3)]:
            basis = lie_basis(g, n)
            keys = sorted({w for h in basis for w in h.terms})
            pos = {k: i for i, k in enumerate(keys)}
            m = SparseRationalMatrix(
                len(keys),
                len(basis),
                [{pos[w]: c for w, c in h.terms.items()} for h in basis],
            )
            assert rank(m) == len(basis)


class TestSolver:
    def test_d2_is_naive(self):
        th = symplectic_expansion(1, 2)
        assert th.is_symplectic()

    def test_g1_d5(self):
        th = symplectic_expansion(1, 5)
        assert th.check_normalization()
        assert th.check_grouplike()
        assert th.check_boundary()

    def test_g2_d4(self):
        th = symplectic_expansion(2, 4)
        assert th.check_normalization()
        assert th.check_grouplike()
        assert th.check_boundary()

    def test_logs_are_lie(self):
        th = symplectic_expansion(1, 5)
        for l in range(2):
            assert is_lie_element(log_series(th.series[l]).tensor)

    def test_deterministic(self):
        a = symplectic_expansion(1, 5)
        b = symplectic_expansion(1, 5)
        assert a.to_json_dict() == b.to_json_dict()

    def test_correction_systems_match_fraction_oracle(self, monkeypatch):
        # every real correction system up to g=2, cutoff 6: the columns of
        # the touched letter-content blocks, 138 of 816 at the last step
        sizes = []

        def checked(columns, target):
            got = solve_columns(columns, target)
            want = oracle_solve_columns(columns, target)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            sizes.append(len(columns))
            return got

        monkeypatch.setattr(expansion, "solve_columns", checked)
        symplectic_expansion(2, 6)
        assert sizes == [4, 16, 38, 138]

    def test_correction_columns_match_tensor_products(self, monkeypatch):
        # the columns from rank arithmetic are the dict columns that the
        # Tensor products [v, b_i] and [a_i, v] gave, cut to their Lyndon
        # words, word for word, at the columns whose letter content is that
        # of a defect word; the rows are exactly the Lyndon words among
        # those columns' words and the defect's, in word order
        systems = []

        def recorded(columns, target):
            systems.append((columns, target))
            return solve_columns(columns, target)

        monkeypatch.setattr(expansion, "solve_columns", recorded)
        skipped = 0
        for g, cutoff in ((1, 6), (2, 5)):
            logs = {l: Tensor.letter(g, l) for l in range(2 * g)}
            for n in range(2, cutoff):
                series = {l: exp_series(TruncatedSeries(logs[l], n + 1)) for l in range(2 * g)}
                defect = Expansion(g, n + 1, series).boundary_log_defect().component(n + 1)
                if defect.is_zero():
                    continue
                want_columns, want_target = oracle_correction_system(g, n, defect)
                contents = {tuple(sorted(w)) for w in defect.terms}
                touched = [
                    col for col in want_columns if {tuple(sorted(w)) for w in col} <= contents
                ]
                assert touched
                skipped += len(want_columns) - len(touched)
                lyndon = set(lyndon_words(2 * g, n + 1))
                touched = [{w: v for w, v in col.items() if w in lyndon} for col in touched]
                want_target = {w: v for w, v in want_target.items() if w in lyndon}
                words = sorted(set().union(*touched, want_target))
                expansion._correct_logs(g, n, logs, defect)
                columns, target = systems.pop()
                assert [{words[r]: v for r, v in c.items()} for c in columns] == touched
                assert {words[r]: v for r, v in target.items()} == want_target
                assert set().union(*columns, target) == set(range(len(words)))
                assert {type(v) for c in columns for v in c.values()} == {int}
        assert skipped > 0

    def test_small_budget_chunks_the_tables(self, monkeypatch):
        # every table of theta(g=1, D=6) fits in 256 entries, so nothing is
        # refused; the source words then go through in chunks of one or two
        want = symplectic_expansion(1, 6)
        parts = []
        folded = tensors._folded

        def counted(stream):
            stream = list(stream)
            parts.append(len(stream))
            return folded(stream)

        monkeypatch.setattr(tensors, "_folded", counted)
        monkeypatch.setattr(expansion, "_folded", counted)
        monkeypatch.setattr(CellTooLarge, "BUDGET", 256)
        got = symplectic_expansion(1, 6)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.check_grouplike()
        assert all(is_lie_element(log_series(s).tensor) for s in got.series.values())
        assert max(parts) > 8
        monkeypatch.setattr(CellTooLarge, "BUDGET", 16)
        with pytest.raises(CellTooLarge, match="correction columns of one weight-2 word"):
            symplectic_expansion(2, 3)

    def test_letter_keys_and_python_ints(self, monkeypatch):
        # with the int64 limit at 16, the words of length >= 2 at g=2 (>= 4
        # at g=1) are keyed by their letters and every value is a Python
        # int: the same expansions
        want = [symplectic_expansion(g, d).to_json_dict() for g, d in ((1, 5), (2, 4))]
        monkeypatch.setattr(tensors, "_INT64_SAFE", 16)
        got = [symplectic_expansion(g, d) for g, d in ((1, 5), (2, 4))]
        assert [th.to_json_dict() for th in got] == want
        assert all(th.check_grouplike() for th in got)
        bent = TruncatedSeries(got[1].series[0].tensor + Tensor.word(2, (0, 1, 2), 1), 4)
        assert not is_grouplike(bent) and not oracle_is_grouplike(bent)

    @pytest.mark.parametrize(
        "g,cutoff", [(1, d) for d in range(2, 8)] + [(2, d) for d in range(2, 7)]
    )
    def test_matches_full_cutoff_oracle(self, g, cutoff):
        got = symplectic_expansion(g, cutoff)
        want = oracle_symplectic_expansion(g, cutoff)
        assert got.cutoff == want.cutoff == cutoff
        for l in range(2 * g):
            assert got.series[l].cutoff == want.series[l].cutoff
            assert exact([got.series[l].tensor.terms]) == exact(
                [want.series[l].tensor.terms]
            )

    def test_defect_cutoffs_follow_the_degree(self, monkeypatch):
        cutoffs = []
        defect = Expansion.boundary_log_defect

        def recorded(self):
            cutoffs.append(self.cutoff)
            return defect(self)

        monkeypatch.setattr(Expansion, "boundary_log_defect", recorded)
        symplectic_expansion(2, 7)
        assert cutoffs == [3, 4, 5, 6, 7]

    def test_json_roundtrip(self):
        th = symplectic_expansion(2, 3)
        th2 = Expansion.from_json_dict(th.to_json_dict())
        assert th2.to_json_dict() == th.to_json_dict()
        assert th2.is_symplectic()


@pytest.fixture(scope="module")
def corrections():
    """(g, n, basis, defect, x) of every correction step of g = 1 and of
    g = 2 with D <= 8, x as the touched-block solve gave it."""
    out = []
    real = expansion._correction

    def recorded(g, n, basis, defect):
        x = real(g, n, basis, defect)
        out.append((g, n, basis, defect, x))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_correction", recorded)
        for g in (1, 2):
            symplectic_expansion(g, 8)
    return out


def whole_system(g, n, basis, defect):
    """_correction with every column built: solve_columns on the whole
    correction system."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_touched", lambda columns, defect: np.ones(len(columns), bool))
        return expansion._correction(g, n, basis, defect)


class TestBlockSolve:
    """The correction solved over the letter-content blocks that the defect
    touches, scattered into x, against the solve of the whole system."""

    def test_blocks_match_the_whole_system(self, corrections):
        assert {(g, n) for g, n, *_ in corrections} >= {(2, n) for n in range(2, 8)}
        for g, n, basis, defect, x in corrections:
            want = whole_system(g, n, basis, defect)
            assert exact([dict(enumerate(x))]) == exact([dict(enumerate(want))])
        # defects that no correction cancels: a word that is not a Lie
        # element, and one whose content no column has
        for g, n, word in ((1, 3, (0, 1, 0, 1)), (1, 3, (0, 0, 0, 0)), (2, 4, (0, 2, 1, 3, 3))):
            basis, defect = lie_basis(g, n), Tensor.word(g, word)
            assert expansion._correction(g, n, basis, defect) is None
            assert whole_system(g, n, basis, defect) is None

    def test_dropping_a_touched_block_is_seen(self, corrections, monkeypatch):
        touched = expansion._touched

        def dropped(columns, defect):
            mask = touched(columns, defect)
            first = columns[np.flatnonzero(mask)[0]]
            return mask & (columns != first).any(axis=1)

        monkeypatch.setattr(expansion, "_touched", dropped)
        for g, n, basis, defect, x in corrections:
            got = expansion._correction(g, n, basis, defect)
            assert got is None or exact([dict(enumerate(got))]) != exact([dict(enumerate(x))])
        with pytest.raises(SolveFailed, match="no weight-2 correction"):
            symplectic_expansion(2, 3)

    def test_a_term_off_its_content_raises(self, monkeypatch):
        # one word of one basis element moved to a neighbouring word, which
        # has another letter content
        lie = expansion.lie_basis

        def bent(g, n):
            basis = lie(g, n)
            terms = dict(basis[-1].terms)
            for w in list(terms):
                near = w[:-1] + ((w[-1] + 1) % (2 * g),)
                if near not in terms:
                    terms[near] = terms.pop(w)
                    break
            basis[-1] = Tensor(g, terms)
            return basis

        monkeypatch.setattr(expansion, "lie_basis", bent)
        for g in (1, 2):
            with pytest.raises(SolveFailed, match="outside its Lyndon word's letter content"):
                symplectic_expansion(g, 4)


def full_rows(columns, defect):
    """The pinned solution of the whole correction system on every word
    row: solve_columns on the oracle's columns, all of them, and minus the
    defect, each word numbered in word order."""
    target = {w: -c for w, c in defect.terms.items()}
    number = {w: r for r, w in enumerate(sorted(set().union(*columns, target)))}
    return solve_columns([{number[w]: v for w, v in col.items()} for col in columns],
                         {number[w]: v for w, v in target.items()})


class TestLyndonRows:
    """The correction systems are solved on their Lyndon-word rows: the row
    mask is Lyndon membership, and _correction gives the pinned solution of
    the whole system on every row, or None where it has none."""

    SEED = 2027

    def test_row_mask_is_lyndon_membership(self, monkeypatch):
        seed = self.SEED
        print(f"seed {seed}")
        rng = random.Random(seed)
        # every word to length 6, then random words and random Lyndon words
        # to length 12; lyndon_words lists them in word order, so membership
        # is a bisection
        lyndon = {(g, m): lyndon_words(2 * g, m) for g in (1, 2) for m in range(1, 13)}
        for form in ("ranks", "letters"):
            if form == "letters":
                monkeypatch.setattr(tensors, "_INT64_SAFE", 2)
            for (g, m), want in lyndon.items():
                base = 2 * g
                if m <= 6:
                    words = list(itertools.product(range(base), repeat=m))
                else:
                    words = [tuple(rng.randrange(base) for _ in range(m)) for _ in range(400)]
                    words += rng.sample(want, min(100, len(want)))
                keys = tensors._word_keys(np.array(words, dtype=np.int64), base)
                assert len(keys) == (1 if form == "ranks" else m)
                got = expansion._lyndon(keys, base, m).tolist()
                at = [bisect_left(want, w) for w in words]
                bad = [w for w, i, y in zip(words, at, got) if y != (want[i:i + 1] == [w])]
                assert not bad, f"seed {seed}, {form}, g={g}, m={m}: {bad[:5]}"

    def test_correction_is_the_whole_solve(self):
        # Lie targets (int combinations of the columns) have the whole
        # system's pinned solution; the same plus one non-Lyndon word is not
        # a Lie element, and no correction cancels it
        seed = self.SEED
        print(f"seed {seed}")
        rng = random.Random(seed)
        solved = refused = 0
        for g, top in ((1, 6), (2, 4), (3, 3)):
            base = 2 * g
            for n in range(2, top + 1):
                basis = lie_basis(g, n)
                columns = oracle_correction_system(g, n, Tensor.zero(g))[0]
                lyndon = set(lyndon_words(base, n + 1))
                for case in range(3):
                    terms: dict = {}
                    for col in rng.sample(columns, rng.randint(1, len(columns))):
                        c = rng.choice((-3, -2, -1, 1, 2, 3))
                        for w, v in col.items():
                            terms[w] = terms.get(w, 0) + c * v
                    lie = Tensor(g, {w: v for w, v in terms.items() if v})
                    word = min(lyndon)
                    while word in lyndon:
                        word = tuple(rng.randrange(base) for _ in range(n + 1))
                    bent = lie + Tensor.word(g, word, rng.choice((-1, 1, Fraction(1, 2))))
                    for defect in (lie, bent):
                        if defect.is_zero():
                            continue
                        where = f"seed {seed}, g={g}, n={n}, case {case}, word {word}"
                        want = full_rows(columns, defect)
                        got = expansion._correction(g, n, basis, defect)
                        assert got == want, where
                        assert got is None or [type(v) for v in got] == [type(v) for v in want]
                        assert whole_system(g, n, basis, defect) == want, where
                        solved += want is not None
                        refused += want is None
        assert solved >= 20 and refused >= 20


@pytest.fixture(scope="module")
def theta27():
    return symplectic_expansion(2, 7)


class TestCertificateVerdicts:
    """The verdicts of is_grouplike and is_lie_element on the four g=2 D=7
    thetas and their logs agree with the Fraction paths, and a one-term
    perturbation turns both to False."""

    def test_thetas_and_perturbations(self, theta27):
        rng = random.Random(38)
        for s in theta27.series.values():
            assert is_grouplike(s) and oracle_is_grouplike(s)
            log = log_series(s).tensor
            assert is_lie_element(log) and oracle_is_lie_element(log)
            for _ in range(3):
                word = tuple(rng.randrange(4) for _ in range(rng.randint(2, 7)))
                extra = Tensor.word(2, word, Fraction(rng.choice([-1, 1]), rng.choice([1, 7])))
                bent = TruncatedSeries(s.tensor + extra, 7)
                assert not is_grouplike(bent) and not oracle_is_grouplike(bent)
                assert not is_lie_element(log + extra) and not oracle_is_lie_element(log + extra)


class TestCompare:
    def test_identity(self):
        th = symplectic_expansion(1, 4)
        assert compare_expansions(th, th).is_zero()

    def test_no_weight3_perturbations_at_genus_one(self):
        # the bracketing map has zero kernel there, so the smallest valid
        # change-of-expansion derivations at g=1 appear in weight 4
        assert symplectic_lie_derivations(1, 3) == []
        assert len(symplectic_lie_derivations(1, 4)) == 1

    def test_roundtrip_recovers_perturbation(self):
        rng = random.Random(2024)
        for g, cutoff, wgt in [(1, 5, 4), (2, 4, 3)]:
            th = symplectic_expansion(g, cutoff)
            pool = symplectic_lie_derivations(g, wgt)
            v = DerivationElem.zero(g)
            for u0 in pool:
                v = v + u0.scale(rng.choice([-2, -1, 1, 2]))
            assert not v.is_zero() and v.min_weight() >= 3
            pert = Expansion(
                g,
                cutoff,
                {
                    l: TruncatedSeries(
                        exp_derivation(v, th.series[l].tensor, cutoff), cutoff
                    )
                    for l in range(2 * g)
                },
            )
            assert pert.is_symplectic()
            u = compare_expansions(th, pert)
            assert u == v.truncate(cutoff + 1)

    def test_inconsistent_rejected(self):
        th = symplectic_expansion(1, 4)
        bad = Expansion.naive_exponential(1, 4)  # not symplectic at D=4
        with pytest.raises(InconsistentExpansions):
            compare_expansions(th, bad)

    def test_roundtrip_exactness_on_series(self):
        # the recovered derivation reproduces the perturbed expansion on
        # the nose, generator by generator
        g, cutoff = 2, 4
        th = symplectic_expansion(g, cutoff)
        v = symplectic_lie_derivations(g, 4)[2]
        pert = Expansion(
            g,
            cutoff,
            {
                l: TruncatedSeries(
                    exp_derivation(v, th.series[l].tensor, cutoff), cutoff
                )
                for l in range(2 * g)
            },
        )
        u = compare_expansions(th, pert)
        for l in range(2 * g):
            assert (
                exp_derivation(u, th.series[l].tensor, cutoff)
                == pert.series[l].tensor
            )

    def test_matches_oracle_on_criterion_8_inputs(self, monkeypatch):
        # the seeded weight-3 round trip of acceptance criterion 8: the same
        # derivation (keys, order, values, types) from exp(D_u) computed once
        # per change of u instead of once per weight and generator
        g, cutoff = 2, 4
        rng = random.Random(20240)
        th = symplectic_expansion(g, cutoff)
        v = DerivationElem.zero(g)
        for u0 in symplectic_lie_derivations(g, 3):
            v = v + u0.scale(rng.choice([-2, -1, 1, 2]))
        pert = Expansion(
            g,
            cutoff,
            {l: TruncatedSeries(exp_derivation(v, th.series[l].tensor, cutoff), cutoff)
             for l in range(2 * g)},
        )
        calls = []

        def counting(u, t, d):
            calls.append(d)
            return exp_derivation(u, t, d)

        want = oracle_compare_expansions(th, pert)
        monkeypatch.setattr(expansion, "exp_derivation", counting)
        got = compare_expansions(th, pert)
        assert exact([got.terms]) == exact([want.terms]) and not got.is_zero()
        # u changes once (weight 3): one value per generator before, one after
        assert calls == [cutoff] * (2 * g * 2)
        for first, second in ((th, th), (pert, th)):
            assert exact([compare_expansions(first, second).terms]) == exact(
                [oracle_compare_expansions(first, second).terms]
            )

    def test_rejections_match_oracle(self, monkeypatch):
        # every rejection inside the loop, with the symplecticity gate
        # opened so that non-symplectic inputs reach it
        monkeypatch.setattr(Expansion, "is_symplectic", lambda self: True)
        th, th5 = symplectic_expansion(2, 4), symplectic_expansion(2, 5)

        def shifted(extra, cutoff=4):
            series = {l: TruncatedSeries(th.series[l].tensor, cutoff) for l in range(4)}
            series[1] = TruncatedSeries(th.series[1].tensor + extra, cutoff)
            return Expansion(2, cutoff, series)

        cases = {
            "below weight 2": shifted(th.series[0].tensor.component(1)),
            "weight-3 correction": Expansion.naive_exponential(2, 4),
            "weight-4 correction": shifted(th.series[0].tensor.component(3)),
            "residual": shifted(th5.series[0].tensor.component(5), 5),
        }
        for needle, second in cases.items():
            with pytest.raises(InconsistentExpansions) as got:
                compare_expansions(th, second)
            with pytest.raises(InconsistentExpansions) as want:
                oracle_compare_expansions(th, second)
            assert needle in str(got.value) and str(got.value) == str(want.value)


class TestLoopTensor:
    def test_empty_word(self):
        th = symplectic_expansion(1, 4)
        assert loop_tensor(th, ()).is_zero()

    def test_single_generator_leading_terms(self):
        th = symplectic_expansion(1, 5)
        lt = loop_tensor(th, (1,))
        # -N(exp(a1)) starts with -N(a1) - 1/2 N(a1 a1) - ...
        assert lt.terms[(A1,)] == -1
        assert lt.terms[(A1, A1)] == Fraction(-1, 2)
        assert lt.terms[(A1, A1, A1)] == Fraction(-1, 6)

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for g, cutoff in [(1, 5), (2, 4)]:
            th = symplectic_expansion(g, cutoff)
            for _ in range(6):
                w = free_reduce(
                    tuple(rng.choice([1, -1, 2, -2, 2 * g, -2 * g]) for _ in range(4))
                )
                h = free_reduce(
                    tuple(rng.choice([1, -1, 2, -2]) for _ in range(3))
                )
                conj = group_mul(group_mul(h, w), group_inverse(h))
                assert loop_tensor(th, w) == loop_tensor(th, conj)
