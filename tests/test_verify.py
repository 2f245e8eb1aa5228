"""The element identity suites of verify.py on failing structure maps.

A deterministic wrong bracket, cobracket or derivation action makes some
checks fail part way through; the reports are pinned whole, so a change
that computes or draws past a failed check, or reorders the seeded draws,
shows up as a changed detail or outcome of a later check."""

import pytest

from necklaces import verify
from necklaces.lie import (
    BiDerivationElem,
    DerivationElem,
    NecklaceContext,
    bracket,
    derivation_apply,
    schedler_delta,
)
from necklaces.tensors import Tensor


def _wrong_bracket(x, y):
    # off by N(a1) when the first factor's coefficients sum to 4
    out = bracket(x, y)
    if sum(x.terms.values()) == 4:
        out = out + DerivationElem.necklace(x.g, (0,))
    return out


def _wrong_delta(u):
    # off by N(a1 a1) (x) N(b1) on weight 5 and on N(a1 b1 b1), N(a1 a2 a2)
    out = schedler_delta(u)
    if any(len(w) == 5 or w in ((0, 1, 1), (0, 2, 2)) for w in u.terms):
        out = out + BiDerivationElem(u.g, {((0, 0), (1,)): 1})
    return out


def _wrong_apply(x, t):
    # off by the word a1 on some weight-3 necklaces and on words from b1 a1
    out = derivation_apply(x, t)
    if any(len(w) == 3 and w[0] != w[1] for w in x.terms) or any(
        w[:2] == (1, 0) for w in t.terms
    ):
        out = out + Tensor.word(x.g, (0,))
    return out


WRONG = {"bracket": _wrong_bracket, "schedler_delta": _wrong_delta,
         "derivation_apply": _wrong_apply}
PATCHES = ("bracket", "schedler_delta", "derivation_apply", "all")


def _patched_report(monkeypatch, patch: str, g: int, suite: str) -> dict:
    with monkeypatch.context() as mp:
        for name in WRONG if patch == "all" else (patch,):
            mp.setattr(verify, name, WRONG[name])
        run = verify.bialgebra_suite if suite == "bialgebra" else verify.bimodule_suite
        return run(g, 5, seed=3, samples=6)


# the skew failure's detail names the seeded pair it failed on
SKEW_DETAIL = ("skew fails on 3*N(a1 b1 a1 b1) + 3*N(a1 b1 b1 b1 b1) + -2*N(b1 b1 b1 b1 b1), "
               "-2*N(a1 b1) + -3*N(a1 a1 a1) + 3*N(b1 b1 b1)")

# (patch, g, suite): the whole checks list, as (name, ok, detail)
PINNED = {
    ("bracket", 1, "bialgebra"): [
        ("bracket_skew", False, SKEW_DETAIL),
        ("bracket_jacobi", False, "Jacobi fails"),
        ("bracket_commutator_oracle", False, "closed form != commutator of actions"),
        ("omega_annihilation", True, ""),
        ("cobracket_coskew", True, ""),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", True, ""),
        ("involutivity", True, ""),
    ],
    ("bracket", 1, "bimodule"): [
        ("module_axiom", False, "module axiom fails"),
        ("comodule_axiom", True, ""),
        ("bimodule_compatibility", True, ""),
        ("bimodule_involutivity", True, ""),
    ],
    ("bracket", 2, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", False, "Jacobi fails"),
        ("bracket_commutator_oracle", True, ""),
        ("omega_annihilation", True, ""),
        ("cobracket_coskew", True, ""),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", True, ""),
        ("involutivity", True, ""),
    ],
    ("bracket", 2, "bimodule"): [
        ("module_axiom", True, ""),
        ("comodule_axiom", True, ""),
        ("bimodule_compatibility", True, ""),
        ("bimodule_involutivity", True, ""),
    ],
    ("schedler_delta", 1, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", True, ""),
        ("bracket_commutator_oracle", True, ""),
        ("omega_annihilation", True, ""),
        ("cobracket_coskew", False, "coskew fails on N(a1 b1 b1)"),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", False, "cocycle compatibility fails"),
        ("involutivity", False, "involutivity fails on N(a1 b1 b1)"),
    ],
    ("schedler_delta", 1, "bimodule"): [
        ("module_axiom", True, ""),
        ("comodule_axiom", False, "comodule axiom fails on 'a1 a1 b1 b1 b1'"),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", True, ""),
    ],
    ("schedler_delta", 2, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", True, ""),
        ("bracket_commutator_oracle", True, ""),
        ("omega_annihilation", True, ""),
        ("cobracket_coskew", False, "coskew fails on N(a1 b1 b1)"),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", False, "cocycle compatibility fails"),
        ("involutivity", False, "involutivity fails on N(a1 b1 b1)"),
    ],
    ("schedler_delta", 2, "bimodule"): [
        ("module_axiom", True, ""),
        ("comodule_axiom", False, "comodule axiom fails on 'a1 a1 a2 a2 b1'"),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", True, ""),
    ],
    ("derivation_apply", 1, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", True, ""),
        ("bracket_commutator_oracle", False, "closed form != commutator of actions"),
        ("omega_annihilation", False, "N(a1) does not annihilate omega"),
        ("cobracket_coskew", True, ""),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", True, ""),
        ("involutivity", True, ""),
    ],
    ("derivation_apply", 1, "bimodule"): [
        ("module_axiom", False, "module axiom fails"),
        ("comodule_axiom", True, ""),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", False, "sigma_bar . mu != 0 on 'b1 a1 a1 a1 b1'"),
    ],
    ("derivation_apply", 2, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", True, ""),
        ("bracket_commutator_oracle", False, "closed form != commutator of actions"),
        ("omega_annihilation", False, "N(a1) does not annihilate omega"),
        ("cobracket_coskew", True, ""),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", True, ""),
        ("involutivity", True, ""),
    ],
    ("derivation_apply", 2, "bimodule"): [
        ("module_axiom", False, "module axiom fails"),
        ("comodule_axiom", True, ""),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", True, ""),
    ],
    ("all", 1, "bialgebra"): [
        ("bracket_skew", False, SKEW_DETAIL),
        ("bracket_jacobi", False, "Jacobi fails"),
        ("bracket_commutator_oracle", False, "closed form != commutator of actions"),
        ("omega_annihilation", False, "N(a1) does not annihilate omega"),
        ("cobracket_coskew", False, "coskew fails on N(a1 b1 b1)"),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", False, "cocycle compatibility fails"),
        ("involutivity", False, "involutivity fails on N(a1 b1 b1)"),
    ],
    ("all", 1, "bimodule"): [
        ("module_axiom", False, "module axiom fails"),
        ("comodule_axiom", False, "comodule axiom fails on 'a1 a1 b1 b1 b1'"),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", False, "sigma_bar . mu != 0 on 'a1 b1 b1 a1 b1'"),
    ],
    ("all", 2, "bialgebra"): [
        ("bracket_skew", True, ""),
        ("bracket_jacobi", False, "Jacobi fails"),
        ("bracket_commutator_oracle", False, "closed form != commutator of actions"),
        ("omega_annihilation", False, "N(a1) does not annihilate omega"),
        ("cobracket_coskew", False, "coskew fails on N(a1 b1 b1)"),
        ("cobracket_cojacobi", True, ""),
        ("bialgebra_compatibility", False, "cocycle compatibility fails"),
        ("involutivity", False, "involutivity fails on N(a1 b1 b1)"),
    ],
    ("all", 2, "bimodule"): [
        ("module_axiom", False, "module axiom fails"),
        ("comodule_axiom", False, "comodule axiom fails on 'a1 a1 a2 a2 b1'"),
        ("bimodule_compatibility", False, "bimodule compatibility fails"),
        ("bimodule_involutivity", False, "sigma_bar . mu != 0 on 'b2 a2 a2 b1 a1'"),
    ],
}


@pytest.mark.parametrize("suite", ["bialgebra", "bimodule"])
@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("patch", PATCHES)
def test_failure_paths_are_pinned(monkeypatch, patch, g, suite):
    rep = _patched_report(monkeypatch, patch, g, suite)
    assert [(c["name"], c["ok"], c["detail"]) for c in rep["checks"]] == PINNED[patch, g, suite]
    assert rep["ok"] == all(ok for _, ok, _ in PINNED[patch, g, suite])


_plain_words = NecklaceContext.bracket_words


def _skewless_words(self, wu, wv):
    # one extra N(a1) whenever the first necklace has weight 2: not skew
    out = dict(_plain_words(self, wu, wv))
    out[(0,)] = out.get((0,), 0) + int(len(wu) == 2)
    return {k: c for k, c in out.items() if c}


def _doubled_words(self, wu, wv):
    # skew, but twice the bracket on pairs of total weight 4
    out = _plain_words(self, wu, wv)
    return {k: 2 * c for k, c in out.items()} if len(wu) + len(wv) == 4 else out


def _omega_failing_apply(x, t):
    # every necklace with a weight-3 term moves omega
    out = derivation_apply(x, t)
    if any(len(w) == 3 for w in x.terms):
        out = out + Tensor.word(x.g, (0,))
    return out


SKEW = ("skew fails on (0,), (0, 0)", {1: 3, 2: 10})  # the failed pair is not counted
MISMATCH = ("oracle mismatch on (0,), (0, 0, 1)", {1: 11, 2: 52})  # the failed pair is counted


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("words, closed_form", [(_skewless_words, SKEW), (_doubled_words, MISMATCH)])
def test_oracle_sweep_gives_each_check_its_own_detail(monkeypatch, g, words, closed_form):
    # with both checks failing, each reports its own first failure; the
    # sweep once reported the omega failure under both names
    detail, pairs = closed_form
    monkeypatch.setattr(NecklaceContext, "bracket_words", words)
    monkeypatch.setattr(verify, "derivation_apply", _omega_failing_apply)
    rep = verify.bracket_oracle_sweep(g, 6)
    assert rep["checks"] == [
        {"name": "closed_form_equals_commutator", "ok": False, "detail": detail},
        {"name": "omega_annihilation", "ok": False,
         "detail": "omega not annihilated by N(a1 a1 a1)"},
    ]
    assert rep["pairs_checked"] == pairs[g] and rep["ok"] is False
    # and each failure alone
    monkeypatch.setattr(verify, "derivation_apply", derivation_apply)
    assert [c["detail"] for c in verify.bracket_oracle_sweep(g, 6)["checks"]] == [detail, ""]
    monkeypatch.setattr(NecklaceContext, "bracket_words", _plain_words)
    monkeypatch.setattr(verify, "derivation_apply", _omega_failing_apply)
    rep = verify.bracket_oracle_sweep(g, 6)
    assert [c["detail"] for c in rep["checks"]] == ["", "omega not annihilated by N(a1 a1 a1)"]
    assert rep["pairs_checked"] == {1: 91, 2: 2553}[g]
