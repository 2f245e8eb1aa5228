"""Coboundary deformations of the cobracket and the comodule map, and the
verification that they do not move the induced operators on homology.

A deformation element is a 2-vector A with vanishing bracket contraction
(an element of the kernel of Lambda^2 g -> g).  The deformed cobracket is
delta'(X) = delta(X) + sigma(X)(A); it is coskew automatically but its
coJacobi identity is *not* automatic and is checked explicitly.  Since A
is concentrated in one weight, delta' is a sum of two weight-homogeneous
pieces: the base piece of degree -2 and a deformation piece of degree
wt(A) - 2.  The base piece is the original cobracket on the nose, so
comparing induced maps on homology amounts to checking that every
deformation piece induces the zero map - which is what the homotopy
identity

  (boundary . E_A - E_A . boundary + E_{nabla A})(X_1^...^X_p)
      = sum_i (-1)^i sigma(X_i)(A) ^ X_1 ^ ...(i)... ^ X_p

guarantees for A in the kernel: on cycles, the deformation piece is a
boundary.  The comodule deformation mu'(m) = mu(m) + boundary(m (x) B) is
handled the same way on module cells.

Both identities are linear: in A, and in (A, B) jointly on module cells.
Multiplying A (and B) by a nonzero L multiplies both sides of every column
by L, so comparing the columns of L*A decides the identity for A.  The
checks take L as the lcm of the coefficient denominators and run on the
int 2-vectors L*A and L*B (``DeformationElement.scaled``); every product
in their emission is then an int product.  An element's own sigma values
are likewise those of L*A divided by L.  The elements a caller passes in,
and every value reported about them, are never scaled.

Conjugation by exp(ad u) for u of weight >= 3 is evaluated lazily per
element below a weight cutoff; it is a coboundary deformation with
equivalent deformation elements A_k = (1/k!) sigma(u)^{k-1}(delta u).
"""

from fractions import Fraction
from functools import partial
from math import lcm
from typing import Sequence

from . import complexes as C
from . import words as W
from .errors import ConditionFailed, MinWeightTooLow, NotInN
from .homology import HomologyEngine
from .lie import DerivationElem, algebra, bracket, exp_derivation, mu_alg, schedler_delta
from .linalg import SparseRationalMatrix, common_denominator, kernel_basis
from .tensors import Coeff, Tensor, axpy


# -- deformation elements -----------------------------------------------------


class DeformationElement:
    """A 2-vector at a fixed weight, with its bracket contraction and the
    flag telling whether it is an admissible deformation direction."""

    def __init__(self, chain: C.ChainVector):
        if chain.basis.p != 2:
            raise ValueError("deformation elements live in the second exterior power")
        self.chain = chain
        self.g = chain.basis.g
        self.weight = chain.basis.w
        self._nabla = nabla_contract_chain(chain)
        self.in_n = self._nabla.is_zero()
        self._denominator = common_denominator(chain.coeffs.values())
        self._wedge_pairs = _pairs(chain)
        self._sigma_memo: dict[int, tuple[tuple[int, int, Coeff], ...]] = {}
        self._scaled: dict[int, _ScaledDeformation] = {}

    def nabla(self) -> DerivationElem:
        return self._nabla

    def wedge_pairs(self) -> tuple[tuple[int, int, Coeff], ...]:
        return self._wedge_pairs

    def sigma_of(self, x_idx: int) -> tuple[tuple[int, int, Coeff], ...]:
        """sigma(N_x)(A) in wedge coordinates ((a, b, coeff), a < b),
        computed as sigma(N_x)(L*A) / L for L = self._denominator."""
        memo = self._sigma_memo.get(x_idx)
        if memo is None:
            den = self._denominator
            memo = self.scaled(den).sigma_of(x_idx)
            if den != 1:
                memo = tuple((a, b, Fraction(c, den)) for a, b, c in memo)
            self._sigma_memo[x_idx] = memo
        return memo

    # as a cobracket handle, A stands for its piece X -> sigma(X)(A)
    wedge_terms = sigma_of

    def scaled(self, factor: int) -> "DeformationElement":
        """factor * A with int coefficients, for a factor that clears every
        denominator of A; memoised per factor, so its sigma values are
        reused across cells.  This element is left as it is."""
        out = self._scaled.get(factor)
        if out is None:
            out = self._scaled[factor] = _ScaledDeformation(self, factor)
        return out

    def to_json_dict(self) -> dict:
        return self.chain.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeformationElement":
        return cls(C.ChainVector.from_json_dict(data))

    def __repr__(self) -> str:
        tag = "in N(g)" if self.in_n else "NOT in N(g)"
        return f"DeformationElement(w={self.weight}, {tag}: {self.chain!r})"


class _ScaledDeformation(DeformationElement):
    """factor * A with int coefficients.  Its nabla is A's times factor;
    its sigma values are computed here from the bracket tables, in int,
    and A's own are these divided by factor."""

    def __init__(self, base: DeformationElement, factor: int):
        self.chain = C.ChainVector(base.chain.basis, _times(base.chain.coeffs, factor))
        self.g, self.weight, self.in_n = base.g, base.weight, base.in_n
        self._nabla = DerivationElem(base.g, _times(base.nabla().terms, factor))
        self._denominator = 1
        self._wedge_pairs = _pairs(self.chain)
        self._sigma_memo = {}
        self._scaled = {}

    def sigma_of(self, x_idx: int) -> tuple[tuple[int, int, int], ...]:
        memo = self._sigma_memo.get(x_idx)
        if memo is not None:
            return memo
        ctx = algebra(self.g)
        acc: dict[tuple[int, int], int] = {}
        for a, b, alpha in self.wedge_pairs():
            # [N_x, N_a] ^ N_b + N_a ^ [N_x, N_b]
            axpy(acc, alpha, _deriv_wedge_emit(ctx.bracket_idx(x_idx, a), (b,)))
            axpy(acc, -alpha, _deriv_wedge_emit(ctx.bracket_idx(x_idx, b), (a,)))
        memo = tuple((a, b, c) for (a, b), c in sorted(acc.items()))
        self._sigma_memo[x_idx] = memo
        return memo

    wedge_terms = sigma_of


def _pairs(chain: C.ChainVector) -> tuple[tuple[int, int, Coeff], ...]:
    """The terms of a 2-vector as (a, b, coeff), sorted once."""
    return tuple((a, b, c) for (a, b), c in chain.terms())


def _times(coeffs: dict, factor: int) -> dict:
    """factor * coeffs as ints; a ValueError if factor leaves a fraction."""
    out = {}
    for k, c in coeffs.items():
        v = c * factor
        if type(v) is not int:
            if v.denominator != 1:
                raise ValueError(f"{factor} does not clear the denominator of {c}")
            v = v.numerator
        out[k] = v
    return out


def _cleared(*elements: DeformationElement) -> list[DeformationElement]:
    """The elements times the lcm of all their denominators: int 2-vectors
    with the same ratios among them."""
    factor = lcm(*(d._denominator for d in elements))
    return [d.scaled(factor) for d in elements]


def nabla_contract_chain(x: C.ChainVector) -> DerivationElem:
    """Bracket contraction of a 2-vector, sum over wedge pairs of [a, b]."""
    ctx = algebra(x.basis.g)
    acc: dict = {}
    for (a, b), c in x.terms():
        axpy(acc, c, ((ctx.word_at(k), s) for k, s in ctx.bracket_idx(a, b)))
    return DerivationElem(x.basis.g, acc)


def n_space_basis(g: int, w: int) -> list[C.ChainVector]:
    """Canonical basis of the kernel of the bracket contraction on the
    weight-w part of the second exterior power."""
    if w < 2:
        raise ValueError("the second exterior power needs weight >= 2")
    mat = C.assemble("boundary", g, 2, w)
    basis = C.wedge_basis(g, 2, w)
    return [C.ChainVector(basis, vec) for vec in kernel_basis(mat)]


# -- deformed handles ----------------------------------------------------------


def _as_deformation(d) -> DeformationElement:
    return d if isinstance(d, DeformationElement) else DeformationElement(d)


def _as_deformations(defs) -> list[DeformationElement]:
    if isinstance(defs, (C.ChainVector, DeformationElement)):
        defs = [defs]
    return [_as_deformation(d) for d in defs]


class DeformedCobracket:
    """delta' = delta_alg + sum_k sigma(.)(A_k): one homogeneous piece per
    deformation weight, on top of the degree -2 base."""

    def __init__(self, g: int, deformations, name: str = "deformed", require_in_n: bool = True):
        self.g = g
        self.name = name
        self.max_weight = None
        self.base = C.AlgCobracket(g)
        self.deformations = _as_deformations(deformations)
        if require_in_n:
            for d in self.deformations:
                if not d.in_n:
                    raise NotInN(
                        "deformation element has nonzero bracket contraction: "
                        f"{d.nabla()!r}"
                    )

    def wedge_terms(self, idx: int):
        """Base piece only; valid when every deformation is trivial (the
        graded machinery uses pieces() instead)."""
        if self.deformations:
            raise ValueError(
                "deformed cobracket is weight-inhomogeneous; use pieces()"
            )
        return self.base.wedge_terms(idx)

    def delta_table(self, m: int):
        """The base piece for every necklace of weight m, read off
        ``wedge_terms``; valid when every deformation is trivial."""
        return C.delta_table_of(self, m)

    def pieces(self) -> list[tuple[int, object]]:
        """(weight shift, term function idx -> wedge terms) per piece."""
        out: list[tuple[int, object]] = [(-2, self.base.wedge_terms)]
        for d in self.deformations:
            out.append((d.weight - 2, d.sigma_of))
        return out

    def delta_word(self, nw: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Full (inhomogeneous) value on a necklace, word-level wedge map."""
        ctx = algebra(self.g)
        idx = ctx.index_of_word(nw)
        acc: dict = {}
        for _, fn in self.pieces():
            axpy(acc, 1, (((ctx.word_at(a), ctx.word_at(b)), c) for a, b, c in fn(idx)))
        return acc


class DeformedComodule:
    """mu' = mu_alg + boundary(. (x) B) for 2-vectors B."""

    def __init__(self, g: int, deformations, name: str = "deformed"):
        self.g = g
        self.name = name
        self.max_weight = None
        self.base = C.AlgComodule(g)
        self.deformations = _as_deformations(deformations)
        self._ctx = algebra(g)
        # boundary(m (x) B) = Gamma(m (x) B) + m (x) boundary(B), and
        # boundary(B) = -nabla(B)
        self._nablas = [d.nabla() for d in self.deformations]

    def mu_terms(self, word: W.WordKey):
        self._check_homogeneous()
        return self.base.mu_terms(word)

    def mu_table(self, k: int):
        self._check_homogeneous()
        return self.base.mu_table(k)

    def _check_homogeneous(self) -> None:
        if self.deformations:
            raise ValueError(
                "deformed comodule is weight-inhomogeneous; use pieces()"
            )

    def piece_terms(self, d_index: int, word: W.WordKey):
        """The mu'(m) - mu(m) contribution of one deformation element."""
        ctx = self._ctx
        d = self.deformations[d_index]
        out = []
        for a, b, beta in d.wedge_pairs():
            # Gamma(m (x) N_a ^ N_b) = -(N_a m) (x) N_b + (N_b m) (x) N_a
            for w2, s in ctx.act_word(ctx.word_at(a), word):
                out.append((w2, b, -beta * s))
            for w2, s in ctx.act_word(ctx.word_at(b), word):
                out.append((w2, a, beta * s))
        for nw, c in self._nablas[d_index].terms.items():
            out.append((word, ctx.index_of_word(nw), -c))
        return out

    def pieces(self) -> list[tuple[int, object]]:
        out: list[tuple[int, object]] = [(-2, self.base.mu_terms)]
        for k, d in enumerate(self.deformations):
            out.append((d.weight - 2, lambda word, k=k: self.piece_terms(k, word)))
        return out

    def mu_word(self, word: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        ctx = self._ctx
        acc: dict = {}
        for _, fn in self.pieces():
            axpy(acc, 1, (((w2, ctx.word_at(k)), c) for w2, k, c in fn(word)))
        return acc


def deform_delta(a, require_cojacobi_weight: int | None = None) -> DeformedCobracket:
    """The cobracket deformed by a kernel 2-vector; raises NotInN otherwise.

    coJacobi for the result is NOT automatic; pass a weight bound to have
    it checked here, or call check_cojacobi explicitly before using the
    handle on homology."""
    defs = _as_deformations(a)
    g = defs[0].g
    handle = DeformedCobracket(g, defs)
    if require_cojacobi_weight is not None and not check_cojacobi(
        handle, require_cojacobi_weight
    ):
        raise ConditionFailed("cojacobi", "deformed cobracket fails coJacobi")
    return handle


def deform_mu(b) -> DeformedComodule:
    defs = _as_deformations(b)
    return DeformedComodule(defs[0].g, defs)


# -- identity checks for deformed structures ----------------------------------


def check_coskew(handle: DeformedCobracket, max_weight: int) -> bool:
    """Coskew holds by construction (wedge coordinates); check it anyway on
    all basis necklaces up to the bound."""
    ctx = algebra(handle.g)
    for m in range(1, max_weight + 1):
        for nw in ctx.basis_words(m):
            for (wa, wb), c in handle.delta_word(nw).items():
                if wa == wb and c != 0:
                    return False
    return True


def check_cojacobi(handle, max_weight: int) -> bool:
    """Cyclic sum of (delta (x) 1) delta = 0 on all basis necklaces up to
    max_weight, for a possibly inhomogeneous cobracket handle."""
    ctx = algebra(handle.g)
    for m in range(1, max_weight + 1):
        for nw in ctx.basis_words(m):
            acc: dict = {}
            # expand the wedge value into the raw two-tensor and apply the
            # handle to the first factor
            for (wa, wb), c in handle.delta_word(nw).items():
                for (u, v), s in (((wa, wb), c), ((wb, wa), -c)):
                    for (u1, u2), c2 in handle.delta_word(u).items():
                        for (x, y), s2 in (((u1, u2), c2), ((u2, u1), -c2)):
                            axpy(acc, s * s2, (((x, y, v), 1), ((y, v, x), 1), ((v, x, y), 1)))
            if acc:
                return False
    return True


def check_coaction(delta_handle, mu_handle, max_weight: int, g: int,
                   sample_words=None) -> bool:
    """(1 (x) delta') mu' + (1 (x) (1 - T))(mu' (x) 1) mu' = 0 on words up
    to the bound (our sign convention; see the verify module)."""
    from itertools import product

    def mu_of(word):
        if isinstance(mu_handle, DeformedComodule):
            return mu_handle.mu_word(word)
        ctx = algebra(g)
        return {(w2, nk): c2 for w2, nk, c2 in ctx.mu_word(word)}

    def delta_of(nw):
        if isinstance(delta_handle, DeformedCobracket):
            return delta_handle.delta_word(nw)
        ctx = algebra(g)
        return {(wa, wb): c for wa, wb, c in ctx.delta_word(nw)}

    words = sample_words
    if words is None:
        words = [()]
        for m in range(1, max_weight + 1):
            words.extend(product(range(2 * g), repeat=m))
    for word in words:
        acc: dict = {}
        mw = mu_of(word)
        for (m1, n1), c in mw.items():
            for (wa, wb), c2 in delta_of(n1).items():
                axpy(acc, c * c2, (((m1, wa, wb), 1), ((m1, wb, wa), -1)))
        for (m1, n1), c in mw.items():
            for (m2, n2), c2 in mu_of(m1).items():
                axpy(acc, c * c2, (((m2, n2, n1), 1), ((m2, n1, n2), -1)))
        if acc:
            return False
    return True


# -- emissions and piece assembly ------------------------------------------------
#
# An emitter maps one basis monomial to its image, a list of (monomial,
# coeff).  The piece matrices go through C.emit_matrix; the homotopy checks
# compose emitters per source monomial and compare the columns one by one,
# so the large intermediate cell is never materialized.  As a cobracket
# handle a DeformationElement stands for its piece X -> sigma(X)(A), so
# C.cochain_monomial emits the sigma piece d(delta') - d(delta).


def _wedge_emit(pairs, tup: C.WedgeKey):
    """A ^ x on one wedge monomial x, for A given as ((a, b, coeff), ...)
    with a < b."""
    out = []
    for x, y, c in pairs:
        ins = C._insert2(tup, x, y)
        if ins:
            out.append((ins[1], ins[0] * c))
    return out


def _mod_wedge_emit(pairs, mono: C.ModKey):
    """m (x) (A ^ xi) on one module monomial m (x) xi."""
    word, tup = mono
    return [((word, t), c) for t, c in _wedge_emit(pairs, tup)]


def _deriv_wedge_emit(terms, tup: C.WedgeKey):
    """Y ^ x on one wedge monomial x, for Y given as ((index, coeff), ...)."""
    out = []
    for k, c in terms:
        ins = C._insert1(tup, k)
        if ins:
            out.append((ins[1], ins[0] * c))
    return out


def _mod_piece_emit(ctx, mu_handle, a, d_index: int, mono: C.ModKey):
    """(mu' - mu)(m) ^ xi - m (x) (d' - d) xi for deformation d_index of
    mu_handle, where a is the matching cobracket deformation (None when
    the cobracket is not deformed)."""
    word, tup = mono
    mu_terms = mu_handle.piece_terms(d_index, word)
    d_terms = C.cochain_monomial(ctx, a, tup) if a is not None else ()
    return C.module_coboundary(mu_terms, d_terms, mono)


def _compose_into(acc: dict, c: Coeff, first, then, mono) -> None:
    """acc += c * (then . first)(mono) for two emitters."""
    for t, s in first(mono):
        axpy(acc, c * s, then(t))


def assemble_sigma_piece(a: DeformationElement, p: int, w: int) -> SparseRationalMatrix:
    """Matrix of x -> sum_i (-1)^i sigma(X_i)(A) ^ (rest): the difference
    d(delta') - d(delta) out of cell (p, w), landing in (p+1, w + wt(A) - 2)."""
    src = C.wedge_basis(a.g, p, w)
    tgt = C.wedge_basis(a.g, p + 1, w + a.weight - 2)
    return C.emit_matrix(src, tgt, partial(C.cochain_monomial, algebra(a.g), a))


def homotopy_check(a: DeformationElement | C.ChainVector, p: int, w: int) -> bool:
    """The chain-homotopy identity at matrix level on cell (p, w):

    boundary . E_A - E_A . boundary + E_{nabla A} = sigma-sum operator.

    Holds for every 2-vector A (the E_{nabla A} term is what makes it true
    when A is not in the kernel).  Columns are compared by direct emission,
    so the large intermediate cell (p+2, w + wt A) is never materialized.
    Both sides are linear in A, so they are compared for L*A, L the lcm of
    A's denominators, in int arithmetic; the caller's A is not changed."""
    (a,) = _cleared(_as_deformation(a))
    ctx = algebra(a.g)
    src = C.wedge_basis(a.g, p, w)
    bnd = partial(C.boundary_monomial, ctx)
    wedge_a = partial(_wedge_emit, a.wedge_pairs())
    nabla = [(ctx.index_of_word(nw), c) for nw, c in a.nabla().sorted_terms()]
    for tup in src.monomials:
        lhs: dict = {}
        _compose_into(lhs, 1, wedge_a, bnd, tup)  # boundary(A ^ x)
        _compose_into(lhs, -1, bnd, wedge_a, tup)  # - A ^ boundary(x)
        axpy(lhs, 1, _deriv_wedge_emit(nabla, tup))  # + (nabla A) ^ x
        rhs: dict = {}
        axpy(rhs, 1, C.cochain_monomial(ctx, a, tup))
        if lhs != rhs:
            return False
    return True


# -- invariance of induced maps --------------------------------------------------


def assemble_mod_piece(
    mu_handle: DeformedComodule, delta_handle: DeformedCobracket,
    d_index: int, p: int, w: int
) -> SparseRationalMatrix:
    """The module-cochain difference piece of one deformation element:
    (mu' - mu)(m) ^ xi - m (x) (d' - d) xi, out of module cell (p, w)."""
    g = mu_handle.g
    a = mu_handle.deformations[d_index]
    src = C.mod_wedge_basis(g, p, w)
    tgt = C.mod_wedge_basis(g, p + 1, w + a.weight - 2)
    ad = delta_handle.deformations[d_index] if d_index < len(delta_handle.deformations) else None
    return C.emit_matrix(src, tgt, partial(_mod_piece_emit, algebra(g), mu_handle, ad, d_index))


def mod_homotopy_check(
    a: DeformationElement | C.ChainVector, b: DeformationElement | C.ChainVector,
    p: int, w: int,
) -> bool:
    """Module-level chain homotopy at matrix level on module cell (p, w):
    the coboundary difference piece built from (A for delta, B for mu)
    equals boundary . E_B - E_B . boundary exactly when sigma(X)(B) =
    -sigma(X)(A) for all X, in particular for B = -A (our conventions; the
    relative sign is pinned the same way as the other module-side
    identities).  Direct column emission, as in homotopy_check.  Both
    sides are linear in (A, B) jointly, so they are compared for (L*A, L*B),
    L the lcm of the denominators of A and B together, in int arithmetic;
    the caller's A and B are not changed."""
    a, b = _cleared(_as_deformation(a), _as_deformation(b))
    ctx = algebra(a.g)
    src = C.mod_wedge_basis(a.g, p, w)
    bnd = partial(C.mod_boundary_monomial, ctx)
    wedge_b = partial(_mod_wedge_emit, b.wedge_pairs())
    piece = partial(_mod_piece_emit, ctx, DeformedComodule(a.g, [b]), a, 0)
    for mono in src.monomials:
        lhs: dict = {}
        _compose_into(lhs, 1, wedge_b, bnd, mono)  # mod_boundary(m (x) B ^ xi)
        _compose_into(lhs, -1, bnd, wedge_b, mono)  # - E_B(mod_boundary(m (x) xi))
        rhs: dict = {}
        axpy(rhs, 1, piece(mono))
        if lhs != rhs:
            return False
    return True


def piece_induces_zero(engine: HomologyEngine, piece: SparseRationalMatrix,
                       p: int, w: int, w_target: int) -> bool:
    """True iff the homogeneous operator piece maps every homology class of
    (p, w) into the boundaries of (p+1, w_target)."""
    src = engine.homology(p, w)
    tgt = engine.homology(p + 1, w_target)
    for rep in src.representatives:
        image = piece.matvec(rep.coeffs)
        if engine.boundary_matrix(p + 1, w_target).matvec(image):
            return False
        coords = tgt.class_coordinates(image)
        if any(c != 0 for c in coords):
            return False
    return True


def verify_deformation_invariance(
    a,
    b,
    lie_cells: Sequence[tuple[int, int]],
    mod_cells: Sequence[tuple[int, int]] = (),
    check_weight: int = 6,
    engines: dict | None = None,
    require_cojacobi: bool = True,
    g: int | None = None,
) -> dict:
    """Check the hypotheses of the coboundary-invariance lemmas for the
    pair (A, B) and confirm, cell by cell, that the deformed and
    undeformed coboundaries induce the same maps on homology.

    Raises ConditionFailed when a hypothesis fails: A not in the kernel,
    sigma(X)(A) != sigma(X)(B), coJacobi for delta', or the coaction square
    for mu'.  The returned report lists each verified clause.

    coJacobi for a coboundary deformation is *not* automatic and in fact
    fails for most kernel elements (the suite records the empirical status
    per element).  The single-step comparison [u] -> [du] vs [d'u] is
    well-defined without it, because the difference piece anticommutes
    with the boundary unconditionally; pass require_cojacobi=False to run
    the comparison alone, with the coJacobi/coaction status still reported
    instead of enforced."""
    a_defs = _as_deformations(a)
    b_defs = _as_deformations(b)
    if a_defs:
        g = a_defs[0].g
    elif g is None:
        raise ValueError("pass the genus explicitly for trivial deformations")
    for d in a_defs:
        if not d.in_n:
            raise NotInN(f"A component at weight {d.weight} is not in the kernel")
    delta_handle = DeformedCobracket(g, a_defs)
    mu_handle = DeformedComodule(g, b_defs)
    checks = []

    # (iii), in our sign conventions: sigma(X)(B) = -sigma(X)(A) on basis
    # necklaces up to the bound.  This is the relation under which the
    # module coboundary difference is the commutator of the module boundary
    # with wedging by B (checked at matrix level by mod_homotopy_check), so
    # it is what makes the module induced maps provably agree.
    ctx = algebra(g)
    neg = a_defs is not b_defs and (
        len(a_defs) == len(b_defs)
        and all(
            da.weight == db.weight and da.chain == db.chain.scale(-1)
            for da, db in zip(a_defs, b_defs)
        )
    )
    if not neg:
        def sigma_table(defs, x_idx, sign=1):
            acc: dict = {}
            for d in defs:
                axpy(acc, sign, (((d.weight, x, y), c) for x, y, c in d.sigma_of(x_idx)))
            return acc

        for m in range(1, check_weight + 1):
            for nw in ctx.basis_words(m):
                x_idx = ctx.index_of_word(nw)
                if sigma_table(b_defs, x_idx) != sigma_table(a_defs, x_idx, sign=-1):
                    raise ConditionFailed(
                        "sigma_AB",
                        f"sigma(N({W.word_name(nw)}))(B) != -sigma(...)(A)",
                    )
    checks.append({"name": "sigma_B_is_minus_sigma_A", "ok": True})

    cj = check_cojacobi(delta_handle, check_weight)
    if require_cojacobi and not cj:
        raise ConditionFailed("cojacobi", "deformed cobracket fails coJacobi")
    checks.append({"name": "deformed_cojacobi", "ok": cj})

    ca = check_coaction(delta_handle, mu_handle, min(check_weight, 6), g)
    if require_cojacobi and not ca:
        raise ConditionFailed("coaction", "deformed comodule fails the coaction square")
    checks.append({"name": "deformed_coaction", "ok": ca})

    engines = engines if engines is not None else {}
    lie_engine = engines.setdefault(("lie", g), HomologyEngine(g))
    mod_engine = engines.setdefault(("mod", g), HomologyEngine(g, module=True))

    cells_report = []
    for (p, w) in lie_cells:
        ok = True
        for d in a_defs:
            piece = assemble_sigma_piece(d, p, w)
            ok = ok and piece_induces_zero(lie_engine, piece, p, w, w + d.weight - 2)
        cells_report.append({"kind": "lie", "p": p, "w": w, "induced_maps_equal": ok})
    for (p, w) in mod_cells:
        ok = True
        for k in range(len(a_defs)):
            piece = assemble_mod_piece(mu_handle, delta_handle, k, p, w)
            ok = ok and piece_induces_zero(
                mod_engine, piece, p, w, w + a_defs[k].weight - 2
            )
        cells_report.append({"kind": "module", "p": p, "w": w, "induced_maps_equal": ok})
    all_ok = all(c["induced_maps_equal"] for c in cells_report)
    return {
        "g": g,
        "deformation_weights": [d.weight for d in a_defs],
        "preconditions": checks,
        "cells": cells_report,
        "ok": all_ok,
    }


# -- exp(ad u) conjugation --------------------------------------------------------


def _exp_ad_deriv(u: DerivationElem, v: DerivationElem, cutoff: int) -> DerivationElem:
    """exp(ad u) applied to v, truncated at the weight cutoff."""
    acc = v.truncate(cutoff)
    term = v
    k = 1
    while True:
        term = bracket(u, term).truncate(cutoff).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
        k += 1
    return acc


class ExpAdCobracket:
    """The conjugated cobracket (e^{ad u} (x) e^{ad u}) delta e^{-ad u},
    evaluated lazily below a weight cutoff."""

    def __init__(self, u: DerivationElem, cutoff: int, name: str = "exp_ad"):
        if u.min_weight() < 3 and not u.is_zero():
            raise MinWeightTooLow("conjugator components must have weight >= 3")
        self.g = u.g
        self.u = u
        self.max_weight = cutoff
        self.name = name

    def delta_word(self, nw: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Value on a necklace in wedge normal form (pairs ordered by the
        basis order).

        Output terms are complete only up to total weight cutoff - 2: the
        cobracket lowers weight by 2, so inner terms living exactly at the
        cutoff still contribute there, while anything higher would need
        inner terms we dropped.  Incomplete weights are not returned."""
        g, cutoff = self.g, self.max_weight
        out_bound = cutoff - 2
        z = DerivationElem.necklace(g, nw)
        inner = _exp_ad_deriv(self.u.scale(-1), z, cutoff)
        half = Fraction(1, 2)
        acc: dict = {}
        # the raw conjugated map stays antisymmetric, so folding both raw
        # orders onto ordered pairs at half strength recovers the wedge
        # coefficients exactly
        for (wa, wb), c in schedler_delta(inner).terms.items():
            ua = _exp_ad_deriv(self.u, DerivationElem.necklace(g, wa), cutoff)
            ub = _exp_ad_deriv(self.u, DerivationElem.necklace(g, wb), cutoff)
            for na, ca in ua.terms.items():
                for nb, cb in ub.terms.items():
                    if len(na) + len(nb) > out_bound:
                        continue
                    _wedge_put(acc, na, nb, half * c * ca * cb)
        return acc

    def equivalent_deformations(self) -> list[DeformationElement]:
        """The coboundary elements sum_k (1/k!) sigma(u)^{k-1}(delta u),
        split into weight-homogeneous components and truncated."""
        g, cutoff = self.g, self.max_weight
        # represent Lambda^2 elements as wedge-coefficient maps keyed by
        # necklace-word pairs (a < b in basis order)
        def sigma_u(pairs):
            out: dict = {}
            for (wa, wb), c in pairs.items():
                da = bracket(self.u, DerivationElem.necklace(g, wa))
                db = bracket(self.u, DerivationElem.necklace(g, wb))
                for nk, ck in da.terms.items():
                    _wedge_put(out, nk, wb, c * ck)
                for nk, ck in db.terms.items():
                    _wedge_put(out, wa, nk, c * ck)
            return out

        base: dict = {}
        for (wa, wb), c in schedler_delta(self.u).terms.items():
            if (len(wa), wa) < (len(wb), wb):
                base[(wa, wb)] = base.get((wa, wb), 0) + c
        total = dict(base)
        power = base
        k = 2
        while power:
            power = sigma_u(power)
            power = {
                key: c
                for key, c in power.items()
                if len(key[0]) + len(key[1]) <= cutoff
            }
            if not power:
                break
            axpy(total, Fraction(1, _factorial(k)), power.items())
            k += 1
        # split by total weight into chain vectors
        ctx = algebra(g)
        by_weight: dict[int, list] = {}
        for (wa, wb), c in total.items():
            wgt = len(wa) + len(wb)
            t, s = C._sort_wedge((ctx.index_of_word(wa), ctx.index_of_word(wb)))
            if s:
                by_weight.setdefault(wgt, []).append((t, s * c))
        out = []
        for wgt in sorted(by_weight):
            chain = C.ChainVector.from_terms(C.wedge_basis(g, 2, wgt), by_weight[wgt])
            if not chain.is_zero():
                out.append(DeformationElement(chain))
        return out


def _wedge_put(acc: dict, wa: W.WordKey, wb: W.WordKey, c: Coeff) -> None:
    ka, kb = (len(wa), wa), (len(wb), wb)
    if ka == kb:
        return
    axpy(acc, c, (((wa, wb), 1),) if ka < kb else (((wb, wa), -1),))


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class ExpAdComodule:
    """The conjugated comodule map (e^{D_u} (x) e^{ad u}) mu e^{-D_u}."""

    def __init__(self, u: DerivationElem, cutoff: int, name: str = "exp_ad"):
        if u.min_weight() < 3 and not u.is_zero():
            raise MinWeightTooLow("conjugator components must have weight >= 3")
        self.g = u.g
        self.u = u
        self.max_weight = cutoff
        self.name = name

    def mu_word(self, word: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Complete up to total output weight cutoff - 2, as for the
        conjugated cobracket; incomplete weights are not returned."""
        g, cutoff = self.g, self.max_weight
        out_bound = cutoff - 2
        inner = exp_derivation(self.u.scale(-1), Tensor.word(g, word), cutoff)
        acc: dict = {}
        for (m1, n1), c in mu_alg(inner).terms.items():
            um = exp_derivation(self.u, Tensor.word(g, m1), cutoff)
            un = _exp_ad_deriv(self.u, DerivationElem.necklace(g, n1), cutoff)
            for w2, c2 in um.terms.items():
                axpy(acc, c * c2, (
                    ((w2, nk), ck) for nk, ck in un.terms.items() if len(w2) + len(nk) <= out_bound
                ))
        return acc


def exp_ad_conjugate(u: DerivationElem, cutoff: int):
    """Conjugate the canonical structure by exp(ad u).

    Returns (cobracket handle, comodule handle, equivalent deformation
    elements); u must have all components of weight >= 3 so every series
    terminates below the cutoff."""
    delta = ExpAdCobracket(u, cutoff)
    mu = ExpAdComodule(u, cutoff)
    return delta, mu, delta.equivalent_deformations()
