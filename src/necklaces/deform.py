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
by L, so comparing the columns of L*A decides the identity for A.  A
``DeformationElement`` holds A itself and, for L the lcm of its
coefficient denominators, the int arrays of L*A: its pairs, its nabla and
per weight its sigma table.  The checks read those arrays (for A and B
together, both over their joint lcm), so every product in their emission
is an int product.  The rational values, sigma(X)(A) and the difference
pieces, are those of L*A divided by L.

Conjugation by exp(ad u) for u of weight >= 3 is evaluated lazily per
element below a weight cutoff; it is a coboundary deformation with
equivalent deformation elements A_k = (1/k!) sigma(u)^{k-1}(delta u).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

import numpy as np

from . import complexes as C
from . import words as W
from .errors import ConditionFailed, GenusMismatch, MinWeightTooLow, NotInN
from .homology import HomologyEngine
from .lie import (
    DerivationElem, algebra, bracket, exp_derivation, mu_alg, schedler_delta,
)
from .linalg import SparseRationalMatrix, common_denominator, kernel_basis
from .tensors import Coeff, Tensor, _csr, _exact, _joined, _product, _summed, _vanishes, axpy


# -- deformation elements -----------------------------------------------------


class DeformationElement:
    """A 2-vector A at a fixed weight, with its bracket contraction and the
    flag telling whether it is an admissible deformation direction.  It
    also holds the int arrays of L*A that the identity checks read, L =
    ``_denominator`` the lcm of A's coefficient denominators: ``pairs``
    and ``coeffs``, its terms; ``nabla_factors`` and ``nabla_coeffs``,
    those of nabla(L*A); and per weight the sigma table (``sigma_csr``).
    Coefficient arrays are ``tensors._exact``.  The rational values, of
    ``sigma_of`` and of the comodule pieces, are read from these arrays
    and divided by L once."""

    def __init__(self, chain: C.ChainVector):
        if chain.basis.p != 2:
            raise ValueError("deformation elements live in the second exterior power")
        self.chain = chain
        self.g = chain.basis.g
        self.weight = chain.basis.w
        self._nabla = nabla_contract_chain(chain)
        self.in_n = self._nabla.is_zero()
        self._denominator = den = common_denominator(chain.coeffs.values())
        terms, nabla = chain.terms(), self._nabla.sorted_terms()
        self.pairs = np.array([t for t, _ in terms], dtype=np.int64).reshape(-1, 2)
        self.coeffs = _exact([int(c * den) for _, c in terms])
        self.nabla_factors = np.array(
            [algebra(self.g).index_of_word(nw) for nw, _ in nabla], dtype=np.int64).reshape(-1, 1)
        self.nabla_coeffs = _exact([int(c * den) for _, c in nabla])
        self._sigma: dict[int, tuple[np.ndarray, ...]] = {}
        self._sigma_memo: dict[int, tuple[tuple[int, int, Coeff], ...]] = {}

    def nabla(self) -> DerivationElem:
        return self._nabla

    def sigma_of(self, x_idx: int) -> tuple[tuple[int, int, Coeff], ...]:
        """sigma(N_x)(A) in wedge coordinates ((a, b, coeff), a < b): the
        row of N_x in the whole-weight sigma table of L*A (``sigma_csr``),
        divided by L."""
        memo = self._sigma_memo.get(x_idx)
        if memo is None:
            ctx, den = algebra(self.g), self._denominator
            m = ctx.weight_of(x_idx)
            indptr, a, b, c = self.sigma_csr(m)
            n = x_idx - ctx.offset(m)
            lo, hi = indptr[n], indptr[n + 1]
            coeffs = c[lo:hi].tolist()
            if den != 1:
                coeffs = [Fraction(v, den) for v in coeffs]
            memo = tuple(zip(a[lo:hi].tolist(), b[lo:hi].tolist(), coeffs))
            self._sigma_memo[x_idx] = memo
        return memo

    def sigma_csr(self, m: int):
        """sigma(X)(L*A) for every necklace X of weight m, in CSR form over
        them: (indptr, a, b, coeff), a < b, summed, int coefficients; the
        table form that ``complexes.cochain_terms`` reads.  Emitted by
        ``complexes.sigma_terms`` with A's pairs as the tuples, each term
        times the coefficient of its pair, and memoised per weight."""
        table = self._sigma.get(m)
        if table is None:
            ctx, nq = algebra(self.g), len(self.coeffs)
            count = len(ctx.basis_words(m))  # an index names a necklace once its weight is enumerated
            necks = ctx.offset(m) + np.arange(count, dtype=np.int64)
            pair, new, coeff = C.sigma_terms(ctx, necks, self.pairs)
            c = _product(self.coeffs[pair % nq], coeff)
            table = self._sigma[m] = _csr([(pair // nq, new[:, 0], new[:, 1], c)], count, 2)
        return table

    def to_json_dict(self) -> dict:
        return self.chain.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeformationElement":
        return cls(C.ChainVector.from_json_dict(data))

    def __repr__(self) -> str:
        tag = "in N(g)" if self.in_n else "NOT in N(g)"
        return f"DeformationElement(w={self.weight}, {tag}: {self.chain!r})"


def _cleared(*elements: DeformationElement) -> list[DeformationElement]:
    """The elements as int 2-vectors with the same ratios among them: each
    times the lcm of all their denominators, in its arrays.  An element
    whose own L is that lcm is returned as it is, with its memoised sigma
    tables."""
    factor = lcm(*(d._denominator for d in elements))
    return [d if d._denominator == factor else DeformationElement(d.chain.scale(factor))
            for d in elements]


def nabla_contract_chain(x: C.ChainVector) -> DerivationElem:
    """Bracket contraction of a 2-vector, sum over wedge pairs of [a, b],
    the brackets from ``NecklaceContext.bracket_pairs``."""
    ctx = algebra(x.basis.g)
    terms = x.terms()
    pairs = np.array([t for t, _ in terms], dtype=np.int64).reshape(-1, 2)
    indptr, target, coeff = ctx.bracket_pairs(pairs[:, 0], pairs[:, 1])
    acc: dict = {}
    for q, (_, c) in enumerate(terms):
        lo, hi = indptr[q], indptr[q + 1]
        axpy(acc, c, zip(map(ctx.word_at, target[lo:hi].tolist()), coeff[lo:hi].tolist()))
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


def _as_deformations(defs, g: int | None = None) -> list[DeformationElement]:
    """The elements as a list; with g, each must be of genus g
    (GenusMismatch)."""
    if isinstance(defs, (C.ChainVector, DeformationElement)):
        defs = [defs]
    out = [_as_deformation(d) for d in defs]
    for d in out:
        if g is not None and d.g != g:
            raise GenusMismatch(f"a deformation element of genus {d.g} for a structure of genus {g}")
    return out


class DeformedCobracket:
    """delta' = delta_alg + sum_k sigma(.)(A_k): one homogeneous piece per
    deformation weight, on top of the degree -2 base."""

    def __init__(self, g: int, deformations):
        self.g = g
        self.base = C.AlgCobracket(g)
        self.deformations = _as_deformations(deformations, g)
        for d in self.deformations:
            if not d.in_n:
                raise NotInN(
                    "deformation element has nonzero bracket contraction: "
                    f"{d.nabla()!r}"
                )

    def delta_word(self, nw: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Full (inhomogeneous) value on a necklace, word-level wedge map:
        the base cobracket plus sigma(N(nw))(A) of every element A."""
        ctx = algebra(self.g)
        acc = self.base.delta_word(nw)
        idx = ctx.index_of_word(nw)
        for d in self.deformations:
            axpy(acc, 1, (((ctx.word_at(a), ctx.word_at(b)), c) for a, b, c in d.sigma_of(idx)))
        return acc


class DeformedComodule:
    """mu' = mu_alg + boundary(. (x) B) for 2-vectors B."""

    def __init__(self, g: int, deformations):
        self.g = g
        self.base = C.AlgComodule(g)
        self.deformations = _as_deformations(deformations, g)
        self._ctx = algebra(g)

    def piece_terms(self, d_index: int, word: W.WordKey):
        """The mu'(m) - mu(m) contribution of one deformation element B:
        boundary(m (x) B) = Gamma(m (x) B) + m (x) boundary(B), and
        boundary(B) = -nabla(B).  Read from the int arrays of L*B and
        divided by L once."""
        ctx, d = self._ctx, self.deformations[d_index]
        out = []
        for (a, b), beta in zip(d.pairs.tolist(), d.coeffs.tolist()):
            # Gamma(m (x) N_a ^ N_b) = -(N_a m) (x) N_b + (N_b m) (x) N_a
            for w2, s in ctx.act_word(ctx.word_at(a), word):
                out.append((w2, b, -beta * s))
            for w2, s in ctx.act_word(ctx.word_at(b), word):
                out.append((w2, a, beta * s))
        out.extend((word, n, -c) for n, c in zip(d.nabla_factors[:, 0].tolist(), d.nabla_coeffs.tolist()))
        den = d._denominator
        return out if den == 1 else [(w2, n, Fraction(c, den)) for w2, n, c in out]

    def mu_word(self, word: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """mu'(word): the base comodule map plus every ``piece_terms``."""
        ctx = self._ctx
        acc = self.base.mu_word(word)
        for k in range(len(self.deformations)):
            axpy(acc, 1, (((w2, ctx.word_at(n)), c) for w2, n, c in self.piece_terms(k, word)))
        return acc


def deform_delta(a, require_cojacobi_weight: int | None = None) -> DeformedCobracket:
    """The cobracket deformed by a kernel 2-vector; raises NotInN otherwise.

    coJacobi for the result is NOT automatic; pass a weight bound to have
    it checked here, or call check_cojacobi explicitly."""
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
    max_weight, for a possibly inhomogeneous cobracket handle.  Each value
    of the handle is computed once per check."""
    ctx = algebra(handle.g)
    delta_of = lru_cache(maxsize=None)(handle.delta_word)
    for m in range(1, max_weight + 1):
        for nw in ctx.basis_words(m):
            acc: dict = {}
            # expand the wedge value into the raw two-tensor and apply the
            # handle to the first factor
            for (wa, wb), c in delta_of(nw).items():
                for (u, v), s in (((wa, wb), c), ((wb, wa), -c)):
                    for (u1, u2), c2 in delta_of(u).items():
                        for (x, y), s2 in (((u1, u2), c2), ((u2, u1), -c2)):
                            axpy(acc, s * s2, (((x, y, v), 1), ((y, v, x), 1), ((v, x, y), 1)))
            if acc:
                return False
    return True


def check_coaction(delta_handle, mu_handle, max_weight: int) -> bool:
    """(1 (x) delta') mu' + (1 (x) (1 - T))(mu' (x) 1) mu' = 0 on words up
    to the bound (our sign convention; see the verify module), over the
    handles' genus (GenusMismatch when they differ).  Each value of a
    handle is computed once per check."""
    from itertools import product

    g = mu_handle.g
    if delta_handle.g != g:
        raise GenusMismatch(f"a cobracket of genus {delta_handle.g} and a comodule of genus {g}")
    mu_of = lru_cache(maxsize=None)(mu_handle.mu_word)
    delta_of = lru_cache(maxsize=None)(delta_handle.delta_word)
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


# -- identity checks on arrays of tuples -------------------------------------------
#
# Both homotopy identities are checked on int64 arrays of wedge tuples
# (``complexes.wedge_cell``; for module cells each block of ``mod_layout``,
# its words by rank).  Every operator is emitted on an array of tuples as
# (source row, target, coeff) terms: A ^ x by inserting A's pairs
# (``_wedge_into``), the boundary by ``complexes.boundary_terms``, the
# sigma sum by ``complexes.cochain_terms`` over A's sigma table (itself
# emitted by ``complexes.sigma_terms``), and Gamma by
# ``complexes.gamma_terms``.  A side is composed with the next operator by
# emitting that operator on the side's target tuples, so the intermediate
# cell (p+2, w + wt A) is never built or ranked.  The identity holds on a
# block of source rows, _CHUNK insertions at a time, iff the terms of LHS -
# RHS sum to zero (``tensors._vanishes``).  Every bracket comes from
# ``NecklaceContext.brackets``, which reads a whole-weight table only once
# the pairs asked of it add up to the table, so a few rows of a large
# table are spliced as pairs.  Gamma acts by the necklaces of the pairs
# present only, so no action table over the budget is built.

_CHUNK = 4096  # source rows times insertions per block of an identity check


def _wedge_into(tuples: np.ndarray, factors: np.ndarray, coeffs: np.ndarray):
    """factors[f] ^ t times coeffs[f], for every row t of an int64 array of
    sorted tuples and every row f of factors, an int64 array of one index,
    or of two increasing ones: arrays (row, f, sorted tuple, coeff times the
    insertion sign), without the terms where a factor is already in t."""
    n, nf = len(tuples), len(factors)
    new, sign, clash = C._insert(np.repeat(tuples, nf, axis=0), np.tile(factors, (n, 1)))
    keep = np.flatnonzero(~clash)
    return keep // nf, keep % nf, new[keep], _product(np.tile(coeffs, n)[keep], sign[keep])


def homotopy_check(a: DeformationElement | C.ChainVector, p: int, w: int) -> bool:
    """The chain-homotopy identity at matrix level on cell (p, w):

    boundary . E_A - E_A . boundary + E_{nabla A} = sigma-sum operator.

    Holds for every 2-vector A (the E_{nabla A} term is what makes it true
    when A is not in the kernel).  Both sides are emitted on the tuples of
    the cell, a block of rows at a time, and compared as summed terms, so
    the large intermediate cell (p+2, w + wt A) is never materialized.
    Both sides are linear in A, so they are compared for L*A, L the lcm of
    A's denominators, in int arithmetic: the element's own arrays."""
    a = _as_deformation(a)
    ctx = algebra(a.g)
    cell = C.wedge_cell(a.g, p, w)
    step = max(1, _CHUNK // max(len(a.coeffs), 1))
    for lo in range(0, len(cell), step):
        x = cell[lo:lo + step]
        row, _, ax, c_ax = _wedge_into(x, a.pairs, a.coeffs)  # A ^ x
        i, t1, c1 = C.boundary_terms(ctx, ax)  # boundary(A ^ x)
        j, bx, c_bx = C.boundary_terms(ctx, x)
        k, _, t2, c2 = _wedge_into(bx, a.pairs, a.coeffs)  # A ^ boundary(x)
        n, _, t3, c3 = _wedge_into(x, a.nabla_factors, a.nabla_coeffs)  # (nabla A) ^ x
        r, t4, c4 = C.cochain_terms(ctx, a.sigma_csr, x)  # the sigma sum
        src, target, coeff = _joined([(row[i], t1, _product(c_ax[i], c1)),
                                      (j[k], t2, -_product(c_bx[k], c2)),
                                      (n, t3, c3),
                                      (r, t4, -c4)], 0, (0, p + 1), 0)
        if not _vanishes([((src, *target.T), coeff)]):
            return False
    return True


def _piece_matrix(rows: int, cols: int, tgt, src, coeff, den: int) -> SparseRationalMatrix:
    """The (target, source, coeff) terms of L times a piece, summed and
    divided by L, as a rows x cols matrix."""
    (tgt, src), coeff = _summed((tgt, src), coeff)
    values = coeff.tolist() if den == 1 else [Fraction(v, den) for v in coeff.tolist()]
    return SparseRationalMatrix.from_entries(rows, cols, zip(tgt.tolist(), src.tolist(), values))


def assemble_sigma_piece(a: DeformationElement, p: int, w: int) -> SparseRationalMatrix:
    """Matrix of x -> sum_i (-1)^i sigma(X_i)(A) ^ (rest): the difference
    d(delta') - d(delta) out of cell (p, w), landing in (p+1, w + wt(A) - 2).
    Emitted by ``complexes.cochain_terms`` over the sigma table of L*A,
    ranked by ``complexes.cell_positions`` and divided by L, L the lcm of
    A's denominators."""
    tw = w + a.weight - 2
    src, new, coeff = C.cochain_terms(algebra(a.g), a.sigma_csr, C.wedge_cell(a.g, p, w))
    return _piece_matrix(C.wedge_dim(a.g, p + 1, tw), C.wedge_dim(a.g, p, w),
                         C.cell_positions(a.g, p + 1, tw, new), src, coeff, a._denominator)


# -- invariance of induced maps --------------------------------------------------
#
# On a block of a module cell (the words of length k, by rank, times some
# rows of the wedge cell (p, w - k)), the source (word u, row r) has the
# number u * rows + r, and a target is the row of columns (word length,
# word, tuple).


def _gamma_terms(ctx, k: int, tuples: np.ndarray):
    """``complexes.gamma_terms`` on (every word of length k) (x) (every row
    of tuples): arrays (row, source word, target length, target word,
    target tuple, sign), words by rank."""
    n = len(tuples)
    words = (2 * ctx.g) ** k
    q, tl, tw, rest, sign = C.gamma_terms(ctx, k, np.repeat(np.arange(words), n), np.tile(tuples, (words, 1)))
    return q % n, q // n, tl, tw, rest, sign


def _on_words(g: int, k: int, rows: int, row, tuples, coeff):
    """Wedge terms (row, tuple, coeff) as the terms u (x) tuple of the
    sources (u, row), for every word u of length k."""
    words = (2 * g) ** k
    u = np.repeat(np.arange(words), len(row))
    return (u * rows + np.tile(row, words),
            np.column_stack([np.full(len(u), k), u, np.tile(tuples, (words, 1))]),
            np.tile(coeff, words))


def _moved(rows: int, row, sw, tl, tw, tuples, coeff):
    """Terms from (word sw, row) to (word tw of length tl, tuple)."""
    return sw * rows + row, np.column_stack([tl, tw, tuples]), coeff


def _mod_piece_terms(ctx, a, b: DeformationElement, k: int, x: np.ndarray):
    """The piece (mu' - mu)(m) ^ xi - m (x) (d' - d) xi on every word m of
    length k times every row xi of x, mu' from B and d' from A (None when
    the cobracket is not deformed): a list of (source, target, coeff)
    parts.  mu' - mu = boundary(m (x) B) is Gamma(m (x) B), taken on B's
    pairs with its remaining factor then wedged into xi, plus m (x)
    -nabla(B)."""
    e, sw, tl, tw, factor, sign = _gamma_terms(ctx, k, b.pairs)
    row, f, tup, coeff = _wedge_into(x, factor, _product(b.coeffs[e], sign))
    n, _, t_nabla, c_nabla = _wedge_into(x, b.nabla_factors, -b.nabla_coeffs)
    parts = [_moved(len(x), row, sw[f], tl[f], tw[f], tup, coeff),
             _on_words(ctx.g, k, len(x), n, t_nabla, c_nabla)]
    if a is not None:
        r, t_sigma, c_sigma = C.cochain_terms(ctx, a.sigma_csr, x)
        parts.append(_on_words(ctx.g, k, len(x), r, t_sigma, -c_sigma))
    return parts


def assemble_mod_piece(
    mu_handle: DeformedComodule, delta_handle: DeformedCobracket,
    d_index: int, p: int, w: int
) -> SparseRationalMatrix:
    """The module-cochain difference piece of one deformation element:
    (mu' - mu)(m) ^ xi - m (x) (d' - d) xi, out of module cell (p, w).
    Emitted block by block of ``mod_layout`` (``_mod_piece_terms``) for L*B
    and L*A, L the lcm of their denominators, ranked in the target layout
    and divided by L."""
    g = mu_handle.g
    b = mu_handle.deformations[d_index]
    a = delta_handle.deformations[d_index] if d_index < len(delta_handle.deformations) else None
    elements = [b] if a is None else [b, a]
    den = lcm(*(d._denominator for d in elements))
    b, a = (_cleared(*elements) + [None])[:2]
    tw = w + b.weight - 2
    src, tgt, ctx = C.mod_layout(g, p, w), C.mod_layout(g, p + 1, tw), algebra(g)
    parts = []
    for k, ds in enumerate(src.wedge_dims):
        if not ds:
            continue
        for s, target, coeff in _mod_piece_terms(ctx, a, b, k, C.wedge_cell(g, p, w - k)):
            for length in np.unique(target[:, 0]).tolist():
                sel = target[:, 0] == length
                pos = C.cell_positions(g, p + 1, tw - length, target[sel, 2:])
                parts.append((tgt.offsets[length] + target[sel, 1] * tgt.wedge_dims[length] + pos,
                              src.offsets[k] + s[sel], coeff[sel]))
    return _piece_matrix(tgt.dim, src.dim, *_joined(parts, 0, 0, 0), den)


def mod_homotopy_check(
    a: DeformationElement | C.ChainVector, b: DeformationElement | C.ChainVector,
    p: int, w: int,
) -> bool:
    """Module-level chain homotopy at matrix level on module cell (p, w):
    the coboundary difference piece built from (A for delta, B for mu)
    equals boundary . E_B - E_B . boundary exactly when sigma(X)(B) =
    -sigma(X)(A) for all X, in particular for B = -A (our conventions; the
    relative sign is pinned the same way as the other module-side
    identities).  Emitted block by block of ``mod_layout``, every word of
    the block at once, and compared as summed terms, as in homotopy_check.
    Both sides are linear in (A, B) jointly, so they are compared for (L*A,
    L*B), L the lcm of the denominators of A and B together, in int
    arithmetic; the caller's A and B are not changed."""
    a, b = _cleared(_as_deformation(a), _as_deformation(b))
    ctx = algebra(a.g)
    for k, ds in enumerate(C.mod_layout(a.g, p, w).wedge_dims):
        if not ds:
            continue
        cell = C.wedge_cell(a.g, p, w - k)
        step = max(1, _CHUNK // (max(len(b.coeffs), 1) * (2 * a.g) ** k))
        for lo in range(0, len(cell), step):
            x = cell[lo:lo + step]
            row, _, bx, c_bx = _wedge_into(x, b.pairs, b.coeffs)  # m (x) B ^ xi
            i, t1, c1 = C.boundary_terms(ctx, bx)
            gi, gsw, gtl, gtw, gt, gs = _gamma_terms(ctx, k, bx)
            j, dx, c_dx = C.boundary_terms(ctx, x)
            kk, _, t2, c2 = _wedge_into(dx, b.pairs, b.coeffs)
            hi, hsw, htl, htw, ht, hs = _gamma_terms(ctx, k, x)
            hk, _, ht2, hc = _wedge_into(ht, b.pairs, b.coeffs)
            piece = _mod_piece_terms(ctx, a, b, k, x)
            src, target, coeff = _joined([
                _on_words(a.g, k, len(x), row[i], t1, _product(c_bx[i], c1)),  # 1 (x) boundary
                _moved(len(x), row[gi], gsw, gtl, gtw, gt, _product(c_bx[gi], gs)),  # Gamma
                _on_words(a.g, k, len(x), j[kk], t2, -_product(c_dx[kk], c2)),  # - E_B (1 (x) boundary)
                _moved(len(x), hi[hk], hsw[hk], htl[hk], htw[hk], ht2, -_product(hs[hk], hc)),  # - E_B Gamma
                *((s, t, -c) for s, t, c in piece),
            ], 0, (0, p + 3), 0)
            if not _vanishes([((src, *target.T), coeff)]):
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
    # it is what makes the module induced maps provably agree.  sigma(X) is
    # linear, so it holds iff sigma(X) kills the sum of A's and B's chains
    # of each weight: every sigma table of that sum is empty.
    chains: dict = {}
    for d in a_defs + b_defs:
        chains[d.weight] = chains[d.weight] + d.chain if d.weight in chains else d.chain
    sums = [DeformationElement(c) for c in chains.values() if not c.is_zero()]
    for m in range(1, check_weight + 1):
        rows = [n for d in sums for n in np.flatnonzero(np.diff(d.sigma_csr(m)[0]))[:1].tolist()]
        if rows:
            nw = algebra(g).basis_words(m)[min(rows)]
            raise ConditionFailed("sigma_AB", f"sigma(N({W.word_name(nw)}))(B) != -sigma(...)(A)")
    checks.append({"name": "sigma_B_is_minus_sigma_A", "ok": True})

    cj = check_cojacobi(delta_handle, check_weight)
    if require_cojacobi and not cj:
        raise ConditionFailed("cojacobi", "deformed cobracket fails coJacobi")
    checks.append({"name": "deformed_cojacobi", "ok": cj})

    ca = check_coaction(delta_handle, mu_handle, min(check_weight, 6))
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

    def __init__(self, u: DerivationElem, cutoff: int):
        if u.min_weight() < 3 and not u.is_zero():
            raise MinWeightTooLow("conjugator components must have weight >= 3")
        self.g = u.g
        self.u = u
        self.cutoff = cutoff

    def delta_word(self, nw: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Value on a necklace in wedge normal form (pairs ordered by the
        basis order).

        Output terms are complete only up to total weight cutoff - 2: the
        cobracket lowers weight by 2, so inner terms living exactly at the
        cutoff still contribute there, while anything higher would need
        inner terms we dropped.  Incomplete weights are not returned."""
        g, cutoff = self.g, self.cutoff
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
        g, cutoff = self.g, self.cutoff
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
            axpy(total, Fraction(1, factorial(k)), power.items())
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


class ExpAdComodule:
    """The conjugated comodule map (e^{D_u} (x) e^{ad u}) mu e^{-D_u}."""

    def __init__(self, u: DerivationElem, cutoff: int):
        if u.min_weight() < 3 and not u.is_zero():
            raise MinWeightTooLow("conjugator components must have weight >= 3")
        self.g = u.g
        self.u = u
        self.cutoff = cutoff

    def mu_word(self, word: W.WordKey) -> dict[tuple[W.WordKey, W.WordKey], Coeff]:
        """Complete up to total output weight cutoff - 2, as for the
        conjugated cobracket; incomplete weights are not returned."""
        g, cutoff = self.g, self.cutoff
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
