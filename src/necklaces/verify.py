"""Identity checks for the necklace bialgebra and its bimodule.

Each check returns a dict {"name", "ok", "detail"} so the CLI can emit a
machine-readable report; the functions raise nothing on failure.  Random
sampling is driven by an explicit ``random.Random`` so every run is
reproducible from its seed.
"""

import random
from functools import partial
from itertools import product

from . import words as W
from .lie import (
    BiDerivationElem,
    DerivationElem,
    TensorDerivElem,
    algebra,
    bracket,
    derivation_apply,
    mu_alg,
    necklace_basis,
    schedler_delta,
)
from .tensors import Tensor, axpy, omega
from . import complexes as C
from .linalg import certified_product, csc_is_zero


# -- random elements ------------------------------------------------------


def random_derivation(rng: random.Random, g: int, max_weight: int, nterms: int = 3) -> DerivationElem:
    terms = {}
    for _ in range(nterms):
        m = rng.randint(1, max_weight)
        basis = algebra(g).basis_words(m)
        w = basis[rng.randrange(len(basis))]
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = terms.get(w, 0) + c
    return DerivationElem(g, terms)


def random_tensor(rng: random.Random, g: int, max_weight: int, nterms: int = 3) -> Tensor:
    terms = {}
    for _ in range(nterms):
        m = rng.randint(0, max_weight)
        w = tuple(rng.randrange(2 * g) for _ in range(m))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = terms.get(w, 0) + c
    return Tensor(g, terms)


# -- helpers on two- and three-factor elements ----------------------------


def sigma_on_bideriv(x: DerivationElem, b: BiDerivationElem) -> BiDerivationElem:
    """Diagonal action on a two-factor element: [x, .](x)1 + 1(x)[x, .]."""
    acc: dict = {}
    for (u, v), c in b.terms.items():
        du = bracket(x, DerivationElem.necklace(x.g, u))
        dv = bracket(x, DerivationElem.necklace(x.g, v))
        axpy(acc, c, (((w2, v), c2) for w2, c2 in du.terms.items()))
        axpy(acc, c, (((u, w2), c2) for w2, c2 in dv.terms.items()))
    return BiDerivationElem(x.g, acc)


def nabla_contract(b: BiDerivationElem) -> DerivationElem:
    """Bracket contraction of a two-factor element."""
    out = DerivationElem.zero(b.g)
    for (u, v), c in b.terms.items():
        out = out + bracket(
            DerivationElem.necklace(b.g, u), DerivationElem.necklace(b.g, v)
        ).scale(c)
    return out


def cojacobi_defect(u: DerivationElem) -> dict:
    """Cyclic sum of (delta (x) 1) delta as a three-factor term map."""
    acc: dict = {}
    for (a, b), c in schedler_delta(u).terms.items():
        da = schedler_delta(DerivationElem.necklace(u.g, a))
        for (a1, a2), c2 in da.terms.items():
            axpy(acc, c * c2, (((a1, a2, b), 1), ((a2, b, a1), 1), ((b, a1, a2), 1)))
    return acc


def compatibility_defect(x: DerivationElem, y: DerivationElem) -> BiDerivationElem:
    """delta[x, y] - sigma(x)(delta y) + sigma(y)(delta x)."""
    return (
        schedler_delta(bracket(x, y))
        - sigma_on_bideriv(x, schedler_delta(y))
        + sigma_on_bideriv(y, schedler_delta(x))
    )


def comodule_defect(t: Tensor) -> dict:
    """(1 (x) delta) mu + (1 (x) (1 - T))(mu (x) 1) mu on a tensor.

    With the a.b = +1 pairing and the literal splitting formulas, the
    coaction square commutes up to this sign: the delta term is the
    *negative* of the antisymmetrized double splitting.  (This is the
    combination that makes dd = 0 on the module complex; the opposite sign
    fails already on weight-6 words at genus 2.)

    Three-factor terms keyed (word, necklace word, necklace word)."""
    acc: dict = {}
    mt = mu_alg(t)
    for (m1, n1), c in mt.terms.items():
        delta = schedler_delta(DerivationElem.necklace(t.g, n1))
        axpy(acc, c, (((m1, a, b), c2) for (a, b), c2 in delta.terms.items()))
        for (m2, n2), c2 in mu_alg(Tensor.word(t.g, m1)).terms.items():
            axpy(acc, c * c2, (((m2, n2, n1), 1), ((m2, n1, n2), -1)))
    return acc


def bimodule_compat_defect(t: Tensor, y: DerivationElem) -> TensorDerivElem:
    """sigma(y)(mu(m)) - mu(y m) + (sigma_bar (x) 1)(1 (x) delta)(m (x) y).

    As with the coaction square, the delta term enters with the sign forced
    by our pairing and splitting conventions (the one under which
    d*boundary + boundary*d = 0 holds on the module complex)."""
    g = t.g
    acc: dict = {}
    for (m1, n1), c in mu_alg(t).terms.items():
        ym = derivation_apply(y, Tensor.word(g, m1))
        yn = bracket(y, DerivationElem.necklace(g, n1))
        axpy(acc, c, (((w2, n1), c2) for w2, c2 in ym.terms.items()))
        axpy(acc, c, (((m1, n2), c2) for n2, c2 in yn.terms.items()))
    first = TensorDerivElem(g, acc)
    second = mu_alg(derivation_apply(y, t))
    acc2: dict = {}
    for (n1, n2), c in schedler_delta(y).terms.items():
        n1m = derivation_apply(DerivationElem.necklace(g, n1), t)
        axpy(acc2, -c, (((w2, n2), c2) for w2, c2 in n1m.terms.items()))
    third = TensorDerivElem(g, acc2)
    return first - second + third


def sigma_bar_mu(t: Tensor) -> Tensor:
    """Contraction sigma_bar . mu: must vanish identically (involutivity)."""
    g = t.g
    out = Tensor.zero(g)
    for (m1, n1), c in mu_alg(t).terms.items():
        out = out - derivation_apply(
            DerivationElem.necklace(g, n1), Tensor.word(g, m1)
        ).scale(c)
    return out


def commutator_action_mismatch(u: DerivationElem, v: DerivationElem) -> bool:
    """True if the closed-form bracket disagrees with the commutator of
    derivation actions on some basis letter."""
    g = u.g
    uv = bracket(u, v)
    for x in range(2 * g):
        t = Tensor.letter(g, x)
        lhs = derivation_apply(uv, t)
        rhs = derivation_apply(u, derivation_apply(v, t)) - derivation_apply(
            v, derivation_apply(u, t)
        )
        if lhs != rhs:
            return True
    return False


# -- suites ---------------------------------------------------------------


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _sweep(name: str, failures) -> dict:
    """The check ``name``: failed with the first detail that the lazy iterable
    ``failures`` yields, or passed if it yields none.  Nothing past the first
    failure is computed or drawn, so the checks after it see the same draws."""
    for detail in failures:
        return _check(name, False, detail)
    return _check(name, True)


def _report(suite: str, checks: list, **fields) -> dict:
    """A suite's report: its name, ``fields``, its checks and whether all passed."""
    return {"suite": suite, **fields, "checks": checks, "ok": all(c["ok"] for c in checks)}


def _draws(samples: int, *draws):
    """``samples`` tuples of one value from each draw, drawn lazily in order."""
    for _ in range(samples):
        yield tuple(draw() for draw in draws)


def _basis_necklaces(g: int, max_weight: int):
    """Each basis necklace of weight 1..max_weight with its element, lazily."""
    for m in range(1, max_weight + 1):
        for n in necklace_basis(g, m):
            yield n, DerivationElem(g, {n.word: 1})


def bialgebra_suite(g: int, max_weight: int, seed: int, samples: int = 50) -> dict:
    """Skew, Jacobi, coskew, coJacobi, compatibility and involutivity for
    the necklace bialgebra at genus g.

    Unary identities run over every basis necklace up to max_weight; the
    binary and ternary ones over seeded random pairs/triples.
    """
    rng = random.Random(seed)
    der = partial(random_derivation, rng, g, max_weight)
    om = omega(g)
    checks = [
        _sweep("bracket_skew", (
            f"skew fails on {u!r}, {v!r}"
            for u, v in _draws(samples, der, der)
            if (bracket(u, v) + bracket(v, u)).terms
        )),
        _sweep("bracket_jacobi", (
            "Jacobi fails"
            for u, v, w in _draws(samples, der, der, der)
            if (bracket(bracket(u, v), w) + bracket(bracket(v, w), u) + bracket(
                bracket(w, u), v
            )).terms
        )),
        _sweep("bracket_commutator_oracle", (
            "closed form != commutator of actions"
            for u, v in _draws(samples, der, der)
            if commutator_action_mismatch(u, v)
        )),
        _sweep("omega_annihilation", (
            f"{n!r} does not annihilate omega"
            for n, x in _basis_necklaces(g, max_weight)
            if not derivation_apply(x, om).is_zero()
        )),
        _sweep("cobracket_coskew", (
            f"coskew fails on {n!r}"
            for n, x in _basis_necklaces(g, max_weight)
            for d in [schedler_delta(x)]
            if (d + d.swap()).terms
        )),
        _sweep("cobracket_cojacobi", (
            f"coJacobi fails on {n!r}"
            for n, x in _basis_necklaces(g, max_weight)
            if cojacobi_defect(x)
        )),
        _sweep("bialgebra_compatibility", (
            "cocycle compatibility fails"
            for x, y in _draws(samples, der, der)
            if compatibility_defect(x, y).terms
        )),
        _sweep("involutivity", (
            f"involutivity fails on {n!r}"
            for n, x in _basis_necklaces(g, max_weight)
            if not nabla_contract(schedler_delta(x)).is_zero()
        )),
    ]
    return _report("bialgebra", checks, g=g, max_weight=max_weight, seed=seed)


def bimodule_suite(g: int, max_weight: int, seed: int, samples: int = 50) -> dict:
    """Module axiom, comodule axiom, bimodule compatibility and
    involutivity for the tensor algebra over the necklace bialgebra."""
    rng = random.Random(seed)
    der = partial(random_derivation, rng, g, max_weight)
    ten = partial(random_tensor, rng, g, max_weight)

    def word() -> W.WordKey:
        m = rng.randint(0, max_weight)
        return tuple(rng.randrange(2 * g) for _ in range(m))

    checks = [
        _sweep("module_axiom", (
            "module axiom fails"
            for x, y, t in _draws(samples, der, der, ten)
            if derivation_apply(bracket(x, y), t) != derivation_apply(
                x, derivation_apply(y, t)
            ) - derivation_apply(y, derivation_apply(x, t))
        )),
        # at genus 1 every word up to max_weight, else seeded random words
        _sweep("comodule_axiom", (
            f"comodule axiom fails on {W.word_name(w)!r}"
            for w in (
                (w for m in range(max_weight + 1) for w in product(range(2), repeat=m))
                if g == 1
                else (word() for _ in range(samples * 4))
            )
            if comodule_defect(Tensor.word(g, w))
        )),
        _sweep("bimodule_compatibility", (
            "bimodule compatibility fails"
            for t, y in _draws(samples, ten, der)
            if bimodule_compat_defect(t, y).terms
        )),
        _sweep("bimodule_involutivity", (
            f"sigma_bar . mu != 0 on {W.word_name(w)!r}"
            for w in (word() for _ in range(samples * 4))
            if not sigma_bar_mu(Tensor.word(g, w)).is_zero()
        )),
    ]
    return _report("bimodule", checks, g=g, max_weight=max_weight, seed=seed)


def bracket_oracle_sweep(g: int, max_weight_sum: int) -> dict:
    """Certify the closed-form splice bracket against the commutator of
    derivation actions on every basis pair with bounded weight sum, and
    check that every basis necklace annihilates the symplectic form.

    The closed form is also checked to be skew pairwise, so the unordered
    sweep covers ordered pairs."""
    ctx = algebra(g)
    letters = [(y,) for y in range(2 * g)]
    pairs_checked = 0

    def oracle_failures():
        # a pair that fails skew is not counted; one that fails the oracle is
        nonlocal pairs_checked
        for m in range(1, max_weight_sum):
            for n in range(m, max_weight_sum - m + 1):
                basis_n = ctx.basis_words(n)
                for i, wu in enumerate(ctx.basis_words(m)):
                    for wv in basis_n[i:] if n == m else basis_n:
                        cl = ctx.bracket_words(wu, wv)
                        if {k: -c for k, c in cl.items()} != ctx.bracket_words(wv, wu):
                            yield f"skew fails on {wu}, {wv}"
                        for y in letters:
                            lhs: dict = {}
                            for k, c in cl.items():
                                axpy(lhs, c, ctx.act_word(k, y))
                            rhs: dict = {}
                            for w1, s1 in ctx.act_word(wv, y):
                                axpy(rhs, s1, ctx.act_word(wu, w1))
                            for w1, s1 in ctx.act_word(wu, y):
                                axpy(rhs, -s1, ctx.act_word(wv, w1))
                            if lhs != rhs:
                                break
                        pairs_checked += 1
                        # unequal only if the letter loop stopped at a mismatch
                        if lhs != rhs:
                            yield f"oracle mismatch on {wu}, {wv}"

    om = omega(g)
    checks = [
        _sweep("closed_form_equals_commutator", oracle_failures()),
        _sweep("omega_annihilation", (
            f"omega not annihilated by {n!r}"
            for n, x in _basis_necklaces(g, max_weight_sum - 1)
            if not derivation_apply(x, om).is_zero()
        )),
    ]
    return _report("bracket_oracle", checks, g=g, max_weight_sum=max_weight_sum,
                   pairs_checked=pairs_checked)


# -- matrix-level identity suites -------------------------------------------
#
# For every cell (p <= pmax, w <= wmax) these verify, as exact matrix
# identities,
#     boundary . boundary = 0,   d . d = 0,   d . boundary + boundary . d = 0
# out of the cell.  The operator matrices are int64 csc matrices from
# ``complexes.CellOperators``, which assembles a module operator from its
# word and wedge factors; the products are computed by the certified int64
# sparse engine (the operator matrices of the canonical structure have small
# integer entries, and the overflow bound is checked before any product is
# trusted).


def matrix_identity_suite(g: int, pmax: int, wmax: int, module: bool = False) -> dict:
    """boundary^2 = 0, d^2 = 0 and the anticommutator identity on every
    cell p <= pmax, w <= wmax, as exact matrix identities."""
    ops = C.CellOperators(g, module)
    # size every cell the suite reads before building any operator, so that
    # a range with a cell over the budget fails at once (CellTooLarge)
    for w in range(wmax + 1):
        for p in range(pmax + 1):
            if ops.dim(p, w):
                ops.dim(p + 1, w - 2)
    kept: dict = {}  # operators out of weight w - 2, reused as the left factors at w

    def op(name: str, p: int, w: int):
        key = (name, p, w)
        mat = kept.get(key)
        if mat is None:
            mat = getattr(ops, name)(p, w)
            if w <= wmax - 2:
                kept[key] = mat
        return mat

    checks = []
    for w in range(0, wmax + 1):
        for key in [key for key in kept if key[2] < w - 2]:
            del kept[key]
        for p in range(0, pmax + 1):
            if ops.dim(p, w) == 0:
                continue
            dim_b = ops.dim(p - 1, w - 2) if p >= 1 else 0
            dim_d = ops.dim(p + 1, w - 2)
            need_bb = p >= 2 and dim_b > 0
            need_dd = dim_d > 0
            need_anti = p >= 1 and (dim_b > 0 or dim_d > 0)
            if not (need_bb or need_dd or need_anti):
                continue
            mb = op("boundary", p, w) if dim_b else None
            md = op("cochain_d", p, w) if dim_d else None
            if need_bb:
                z = certified_product(op("boundary", p - 1, w - 2), mb)
                checks.append(_check(f"boundary2_zero_p{p}_w{w}", csc_is_zero(z)))
            if need_dd:
                z = certified_product(op("cochain_d", p + 1, w - 2), md)
                checks.append(_check(f"d2_zero_p{p}_w{w}", csc_is_zero(z)))
            if need_anti:
                za = None
                if mb is not None:
                    za = certified_product(op("cochain_d", p - 1, w - 2), mb)
                if md is not None:
                    zb = certified_product(op("boundary", p + 1, w - 2), md)
                    za = zb if za is None else za + zb
                checks.append(_check(f"anticommutator_zero_p{p}_w{w}", csc_is_zero(za)))
    return {
        "suite": "module_matrix" if module else "ce_matrix",
        "g": g,
        "pmax": pmax,
        "wmax": wmax,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
