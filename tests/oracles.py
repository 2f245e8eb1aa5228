"""Independent brute-force implementations used as oracles.

The word-level oracles deliberately avoid the package's cached
structure-constant tables: they work directly from the defining formulas
on raw words, with their own pairing and canonicalization, so a bug in the
fast path cannot hide.  The others are the reference paths that a fast
path replaced, kept here in their original arithmetic."""

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np

from necklaces import complexes as C
from necklaces import deform as D
from necklaces import expansion as E
from necklaces import words as W
from necklaces.complexes import ModKey, WedgeKey, _CellVector
from necklaces.errors import InconsistentExpansions, NotCyclic, PrecisionError
from necklaces.lie import (
    DerivationElem,
    NecklaceContext,
    algebra,
    exp_derivation,
    necklace_normal_form,
)
from necklaces.linalg import _int_scale_column, _reduce_int, column_echelon_int, int_values
from necklaces.tensors import (
    Coeff, PairTensor, Tensor, TruncatedSeries, axpy, coproduct, exp_series,
)


# -- per-monomial emitters ------------------------------------------------------
#
# The monomial-by-monomial operators that the chain-vector operators of
# ``necklaces.complexes`` (boundary, sigma_wedge, cochain_d, mod_boundary,
# mod_cochain_d) replaced with matrix-vector products, and the reference
# form of every matrix and array emission there.  Signs are 1-based.


def _insert1(tup: WedgeKey, k: int):
    """Insert one index into a sorted tuple: (sign, new tuple) or None."""
    pos = bisect_left(tup, k)
    if pos < len(tup) and tup[pos] == k:
        return None
    return (1 if pos % 2 == 0 else -1), tup[:pos] + (k,) + tup[pos:]


def _insert2(tup: WedgeKey, a: int, b: int):
    """Insert two indices a < b: (sign, new tuple) or None on repeats."""
    ia = bisect_left(tup, a)
    if ia < len(tup) and tup[ia] == a:
        return None
    ib = bisect_left(tup, b)
    if ib < len(tup) and tup[ib] == b:
        return None
    sign = 1 if (ia + ib) % 2 == 0 else -1
    first = tup[:ia] + (a,) + tup[ia:]
    return sign, first[: ib + 1] + (b,) + first[ib + 1 :]


def boundary_monomial(ctx: NecklaceContext, tup: WedgeKey):
    out = []
    p = len(tup)
    for ii in range(p):
        for jj in range(ii + 1, p):
            terms = ctx.bracket_idx(tup[ii], tup[jj])
            if not terms:
                continue
            rest = tup[:ii] + tup[ii + 1 : jj] + tup[jj + 1 :]
            s0 = -1 if (ii + jj) % 2 == 1 else 1  # (-1)^{i+j} = (-1)^{ii+jj}, 1-based
            for k, c in terms:
                ins = _insert1(rest, k)
                if ins:
                    sgn, newtup = ins
                    out.append((newtup, s0 * sgn * c))
    return out


def sigma_monomial(ctx: NecklaceContext, y_idx: int, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        terms = ctx.bracket_idx(y_idx, tup[ii])
        if not terms:
            continue
        rest = tup[:ii] + tup[ii + 1 :]
        si = 1 if ii % 2 == 0 else -1
        for k, c in terms:
            ins = _insert1(rest, k)
            if ins:
                sgn, newtup = ins
                out.append((newtup, si * sgn * c))
    return out


def cochain_monomial(ctx: NecklaceContext, delta_terms, tup: WedgeKey):
    """The cochain d of a wedge monomial, the cobracket of each factor
    given by delta_terms(idx) as ((a, b, coeff), ...) with a < b (say
    ``ctx.delta_wedge``, or ``oracle_sigma_of`` for a deformation piece)."""
    out = []
    for ii in range(len(tup)):
        terms = delta_terms(tup[ii])
        if not terms:
            continue
        rest = tup[:ii] + tup[ii + 1 :]
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        for a, b, c in terms:
            ins = _insert2(rest, a, b)
            if ins:
                sgn, newtup = ins
                out.append((newtup, s0 * sgn * c))
    return out


def gamma_monomial(ctx: NecklaceContext, word: W.WordKey, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        rest = tup[:ii] + tup[ii + 1 :]
        s0 = -1 if ii % 2 == 0 else 1  # (-1)^i, 1-based
        neck = ctx.word_at(tup[ii])
        for neww, s in ctx.act_word(neck, word):
            out.append(((neww, rest), s0 * s))
    return out


def mod_boundary_monomial(ctx: NecklaceContext, mono: ModKey):
    word, tup = mono
    out = gamma_monomial(ctx, word, tup)
    for newtup, c in boundary_monomial(ctx, tup):
        out.append(((word, newtup), c))
    return out


def mod_cochain_monomial(ctx: NecklaceContext, delta_terms, mu_terms, mono: ModKey):
    # d(m (x) xi) = mu(m) ^ xi - m (x) d xi.  The relative minus (constant
    # in p) is forced: the unit-word part of d*boundary + boundary*d reduces
    # to a multiple of the wedge-level anticommutator only when the sign of
    # the m (x) d xi term does not depend on p, and the p = 0, 1 cells pin
    # it to -1 given our splitting conventions.  A p-dependent sign here
    # provably breaks the p = 2 module cells (genus 2, weight 6).
    # mu_terms(word) gives mu(word) as ((word, necklace index, coeff), ...),
    # say oracle_mu_terms
    word, tup = mono
    return module_coboundary(mu_terms(word), cochain_monomial(ctx, delta_terms, tup), mono)


def oracle_mu_terms(ctx: NecklaceContext, word: W.WordKey) -> list:
    """mu of a word at the index level, ((word, necklace index, coeff),
    ...), from ``NecklaceContext.mu_word`` term by term."""
    return [(rest, ctx.index_of_word(neck), s) for rest, neck, s in ctx.mu_word(word)]


def module_coboundary(mu_terms, d_terms, mono: ModKey):
    """mu(m) ^ xi - m (x) d xi on one module monomial m (x) xi, given
    mu(m) as ((word, necklace index, coeff), ...) and d xi as ((wedge,
    coeff), ...).  The deformation pieces pass the differences mu' - mu and
    d' - d instead."""
    word, tup = mono
    out = []
    for w2, k, c in mu_terms:
        ins = _insert1(tup, k)
        if ins:
            sgn, newtup = ins
            out.append(((w2, newtup), c * sgn))
    for newtup, c in d_terms:
        out.append(((word, newtup), -c))
    return out


def emit_vector(x: _CellVector, tgt, emit) -> _CellVector:
    """Image of a chain vector under the operator whose value on a basis
    monomial is emit(monomial), as a vector of the same type in tgt."""
    acc: dict = {}
    monomials = x.basis.monomials
    for i, c in x.coeffs.items():
        axpy(acc, c, emit(monomials[i]))
    return type(x).from_terms(tgt, acc.items())


def pair(x: int, y: int) -> int:
    if y == (x ^ 1):
        return 1 if x % 2 == 0 else -1
    return 0


def canon(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word))) if word else ()


def oracle_schedler(word: tuple) -> dict:
    """delta of N(word) as a map (canonical, canonical) -> int, evaluated
    literally from the double sum over i < j."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            c = pair(word[i], word[j])
            if not c:
                continue
            left = word[i + 1 : j]
            right = word[j + 1 :] + word[:i]
            if not left or not right:
                continue
            for key, s in (((canon(left), canon(right)), c), ((canon(right), canon(left)), -c)):
                out[key] = out.get(key, 0) + s
                if out[key] == 0:
                    del out[key]
    return out


def oracle_mu(word: tuple) -> dict:
    """mu of a word as a map (word, canonical necklace) -> int."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        for j in range(i + 1, m):
            c = pair(word[i], word[j])
            if not c:
                continue
            neck = word[i + 1 : j]
            if not neck:
                continue
            key = (word[:i] + word[j + 1 :], canon(neck))
            out[key] = out.get(key, 0) + c
            if out[key] == 0:
                del out[key]
    return out


def oracle_necklace_action(word: tuple, target: tuple) -> dict:
    """Action of N(word) on a single word, straight from the rotation sum."""
    out: dict = {}
    m = len(word)
    for i in range(m):
        rot = word[i:] + word[:i]
        head, tail = rot[0], rot[1:]
        for pos, y in enumerate(target):
            c = pair(head, y)
            if not c:
                continue
            new = target[:pos] + tail + target[pos + 1 :]
            out[new] = out.get(new, 0) + c
            if out[new] == 0:
                del out[new]
    return out


def _axpy(acc: dict, c, terms) -> None:
    for k, v in terms:
        v = acc.get(k, 0) + c * v
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def oracle_solve_columns(columns, target):
    """The Fraction solver that linalg.solve_columns replaced: incremental
    reduced echelon form with back-elimination, each stored vector carrying
    its expression over the columns; free variables are 0."""
    by_lead: dict = {}  # lead row -> (stored vector, expression)

    def reduce(vec):
        rem = {r: Fraction(v) for r, v in vec.items() if v != 0}
        expr: dict = {}
        while rem:
            lead = min(rem)
            entry = by_lead.get(lead)
            if entry is None:
                break
            evec, eexpr = entry
            c = rem[lead]
            _axpy(rem, -c, evec.items())
            _axpy(expr, c, eexpr.items())
        return rem, expr

    for j, col in enumerate(columns):
        rem, expr = reduce(col)  # col = rem + sum expr * columns
        if not rem:
            continue
        lead = min(rem)
        scale = 1 / rem[lead]
        nvec = {r: v * scale for r, v in rem.items()}
        nexpr = {j: Fraction(scale)}
        _axpy(nexpr, -scale, expr.items())
        for ovec, oexpr in by_lead.values():
            cv = ovec.get(lead)
            if cv:
                _axpy(ovec, -cv, nvec.items())
                _axpy(oexpr, -cv, nexpr.items())
        by_lead[lead] = (nvec, nexpr)

    rem, expr = reduce(target)
    if rem:
        return None
    x = [0] * len(columns)
    for j, c in expr.items():
        x[j] = c
    return x


def _wedge_emit(terms, tup):
    """A ^ x on one wedge monomial x, for A given as its ``chain.terms()``,
    (((a, b), coeff), ...) with a < b."""
    out = []
    for (x, y), c in terms:
        ins = _insert2(tup, x, y)
        if ins:
            out.append((ins[1], ins[0] * c))
    return out


def _mod_wedge_emit(terms, mono):
    """m (x) (A ^ xi) on one module monomial m (x) xi."""
    word, tup = mono
    return [((word, t), c) for t, c in _wedge_emit(terms, tup)]


def _deriv_wedge_emit(terms, tup):
    """Y ^ x on one wedge monomial x, for Y given as ((index, coeff), ...)."""
    out = []
    for k, c in terms:
        ins = _insert1(tup, k)
        if ins:
            out.append((ins[1], ins[0] * c))
    return out


def emit_matrix(src, tgt, emit):
    """Matrix of the operator whose value on a basis monomial is
    emit(monomial): column j is the image of the j-th monomial of src, in
    the tgt basis."""
    pos = tgt.position
    columns = []
    for mono in src.monomials:
        col: dict = {}
        for t, s in emit(mono):
            j = pos[t]
            col[j] = col.get(j, 0) + s
        columns.append(col)
    return C.SparseRationalMatrix(tgt.dim(), src.dim(), columns)


def _mod_piece_emit(ctx, mu_handle, sigma_terms, d_index: int, mono):
    """(mu' - mu)(m) ^ xi - m (x) (d' - d) xi for deformation d_index of
    mu_handle, where sigma_terms gives the matching cobracket piece per
    necklace (None when the cobracket is not deformed)."""
    word, tup = mono
    mu_terms = mu_handle.piece_terms(d_index, word)
    d_terms = cochain_monomial(ctx, sigma_terms, tup) if sigma_terms is not None else ()
    return module_coboundary(mu_terms, d_terms, mono)


def _compose_into(acc: dict, c, first, then, mono) -> None:
    """acc += c * (then . first)(mono) for two emitters."""
    for t, s in first(mono):
        _axpy(acc, c * s, then(t))


def oracle_sigma_of(a, x_idx: int) -> tuple:
    """sigma(N_x)(A) straight from the bracket tables, in the coefficients
    of A (no scaling, no memo)."""
    ctx = algebra(a.g)
    acc: dict = {}
    for (a_idx, b_idx), alpha in a.chain.terms():
        # [N_x, N_a] ^ N_b + N_a ^ [N_x, N_b]
        _axpy(acc, alpha, _deriv_wedge_emit(ctx.bracket_idx(x_idx, a_idx), (b_idx,)))
        _axpy(acc, -alpha, _deriv_wedge_emit(ctx.bracket_idx(x_idx, b_idx), (a_idx,)))
    return tuple((i, j, c) for (i, j), c in sorted(acc.items()))


def oracle_homotopy_check(a, p: int, w: int) -> bool:
    """The Fraction path that deform.homotopy_check replaced: both sides
    of the identity in the coefficients of A itself."""
    ctx = algebra(a.g)
    bnd = partial(boundary_monomial, ctx)
    wedge_a = partial(_wedge_emit, a.chain.terms())
    nabla = [(ctx.index_of_word(nw), c) for nw, c in a.nabla().sorted_terms()]
    sigma = partial(oracle_sigma_of, a)
    for tup in C.wedge_basis(a.g, p, w).monomials:
        lhs: dict = {}
        _compose_into(lhs, 1, wedge_a, bnd, tup)  # boundary(A ^ x)
        _compose_into(lhs, -1, bnd, wedge_a, tup)  # - A ^ boundary(x)
        _axpy(lhs, 1, _deriv_wedge_emit(nabla, tup))  # + (nabla A) ^ x
        rhs: dict = {}
        _axpy(rhs, 1, cochain_monomial(ctx, sigma, tup))
        if lhs != rhs:
            return False
    return True


def oracle_mod_homotopy_check(a, b, p: int, w: int) -> bool:
    """The Fraction path that deform.mod_homotopy_check replaced: both
    sides in the coefficients of A and B themselves."""
    ctx = algebra(a.g)
    bnd = partial(mod_boundary_monomial, ctx)
    wedge_b = partial(_mod_wedge_emit, b.chain.terms())
    piece = partial(
        _mod_piece_emit, ctx, D.DeformedComodule(a.g, [b]), partial(oracle_sigma_of, a), 0
    )
    for mono in C.mod_wedge_basis(a.g, p, w).monomials:
        lhs: dict = {}
        _compose_into(lhs, 1, wedge_b, bnd, mono)  # mod_boundary(m (x) B ^ xi)
        _compose_into(lhs, -1, bnd, wedge_b, mono)  # - E_B(mod_boundary(m (x) xi))
        rhs: dict = {}
        _axpy(rhs, 1, piece(mono))
        if lhs != rhs:
            return False
    return True


def oracle_sigma_piece(a, p: int, w: int):
    """The monomial emission that deform.assemble_sigma_piece replaced:
    every column of the sigma piece emitted through cochain_monomial, with
    A standing for its piece X -> sigma(X)(A) as oracle_sigma_of gives it."""
    src = C.wedge_basis(a.g, p, w)
    tgt = C.wedge_basis(a.g, p + 1, w + a.weight - 2)
    return emit_matrix(src, tgt, partial(cochain_monomial, algebra(a.g), partial(oracle_sigma_of, a)))


def oracle_mod_piece(mu_handle, delta_handle, d_index: int, p: int, w: int):
    """The monomial emission that deform.assemble_mod_piece replaced: every
    column of the module piece emitted through _mod_piece_emit, the
    cobracket deformation standing for its piece as oracle_sigma_of gives
    it."""
    g = mu_handle.g
    src = C.mod_wedge_basis(g, p, w)
    tgt = C.mod_wedge_basis(g, p + 1, w + mu_handle.deformations[d_index].weight - 2)
    ad = delta_handle.deformations[d_index] if d_index < len(delta_handle.deformations) else None
    sigma = partial(oracle_sigma_of, ad) if ad is not None else None
    return emit_matrix(src, tgt, partial(_mod_piece_emit, algebra(g), mu_handle, sigma, d_index))


def oracle_assemble(op, g, p, w):
    """The monomial-by-monomial assembly that complexes.assemble replaced,
    for the canonical structure (``ctx.delta_wedge``, ``oracle_mu_terms``):
    every column emitted into a dict through the basis position maps, the
    module cells through a materialised ``ModWedgeBasis``."""
    module = op.startswith("mod_")
    src = C.mod_wedge_basis(g, p, w) if module else C.wedge_basis(g, p, w)
    basis = C.mod_wedge_basis if module else C.wedge_basis
    ctx = algebra(g)
    if op.endswith("boundary"):
        tgt = basis(g, p - 1, w - 2) if p >= 1 and w >= 2 else None
        emit = partial(mod_boundary_monomial if module else boundary_monomial, ctx)
    else:
        tgt = basis(g, p + 1, w - 2) if w >= 2 else None
        emit = (
            partial(mod_cochain_monomial, ctx, ctx.delta_wedge, partial(oracle_mu_terms, ctx))
            if module
            else partial(cochain_monomial, ctx, ctx.delta_wedge)
        )
    if tgt is None or not src.monomials:
        return C.SparseRationalMatrix(tgt.dim() if tgt else 0, src.dim())
    return emit_matrix(src, tgt, emit)


def oracle_wedge_tuples(ctx, p: int, w: int):
    """The recursive enumeration that complexes.wedge_cell replaced:
    strictly increasing index tuples of total weight w, lexicographic."""
    if p == 0:
        if w == 0:
            yield ()
        return
    if w < p:
        return

    def rec(start: int, slots: int, rem: int, prefix: tuple):
        if slots == 0:
            if rem == 0:
                yield prefix
            return
        idx = start
        top = ctx.offset(rem - slots + 2)  # first index of weight > rem-(slots-1)
        while idx < top:
            wt = ctx.weight_of(idx)
            if wt * slots > rem:
                break
            yield from rec(idx + 1, slots - 1, rem - wt, prefix + (idx,))
            idx += 1

    yield from rec(0, p, w, ())


def oracle_wedge_coo(ops, op: str, p: int, v: int):
    """The per-monomial emission that CellOperators._wedge_coo replaced:
    (rows, cols, vals) of a wedge operator out of (p, v), every monomial of
    the materialised basis emitted through boundary_monomial or
    cochain_monomial (with the canonical ``ctx.delta_wedge``) and looked up
    in the target basis."""
    tp = p - 1 if op == "boundary" else p + 1
    r, c, vals = [], [], []
    # both operators vanish on p = 0 and on weights below 2
    if p >= 1 and v >= 2 and C.wedge_basis(ops.g, tp, v - 2).dim():
        if op == "boundary":
            emit = partial(boundary_monomial, ops.ctx)
        else:
            emit = partial(cochain_monomial, ops.ctx, ops.ctx.delta_wedge)
        pos = C.wedge_basis(ops.g, tp, v - 2).position
        for j, mono in enumerate(C.wedge_basis(ops.g, p, v).monomials):
            for t, s in emit(mono):
                r.append(pos[t])
                c.append(j)
                vals.append(s)
    return tuple(np.asarray(a, dtype=np.int64) for a in (r, c, int_values(vals)))


def oracle_mu_table(mu_terms, g, k):
    """The word-by-word table that NecklaceContext.mu_table replaced: mu of
    every word of length k through mu_terms (say ``oracle_mu_terms``), at
    the index level, grouped by the
    weight m of the split-off necklace n: m -> (source rank, n - offset(m),
    rank of the remaining word, coeff)."""
    ctx, base = algebra(g), 2 * g
    terms, counts = [], []
    for word in product(range(base), repeat=k):
        t = mu_terms(word)
        terms.extend(t)
        counts.append(len(t))
    ns = np.array([t[1] for t in terms], dtype=np.int64)
    offs = np.array([ctx.offset(m) for m in range(1, k)], dtype=np.int64)
    ms = np.searchsorted(offs, ns, side="right")
    if not np.array_equal(np.array([len(t[0]) for t in terms], dtype=np.int64), k - 2 - ms):
        raise ValueError("the comodule handle does not lower the weight by 2")
    ranks = {
        word: r
        for j in range(k - 1)
        for r, word in enumerate(product(range(base), repeat=j))
    }
    cols = np.array(
        [
            np.repeat(np.arange(base**k, dtype=np.int64), counts),
            ns - offs[ms - 1],
            [ranks[t[0]] for t in terms],
            int_values([t[2] for t in terms]),
        ],
        dtype=np.int64,
    )
    return {int(m): cols[:, ms == m] for m in np.unique(ms)}


def exact(vectors):
    """Sparse vectors as their keys in dict order, each with the type and
    the value of its coefficient: the form in which a fast path is
    compared with its oracle."""
    return [[(k, type(v), v) for k, v in vec.items()] for vec in vectors]


def oracle_rref(matrix):
    """The Fraction Gauss-Jordan loop that linalg.rref replaced: (pivot
    column indices, RREF rows as sparse dicts) in ascending pivot column."""
    rows: list = [dict() for _ in range(matrix.rows)]
    for j, col in enumerate(matrix.columns):
        for i, v in col.items():
            rows[i][j] = Fraction(v)
    pivot_rows: dict = {}  # pivot col -> normalized row
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                row = {c: v * inv for c, v in row.items()}
                for pc in [c for c in row if c != lead and c in pivot_rows]:
                    _axpy(row, -row[pc], pivot_rows[pc].items())
                for prow in pivot_rows.values():
                    cv = prow.get(lead)
                    if cv:
                        _axpy(prow, -cv, row.items())
                pivot_rows[lead] = row
                break
            _axpy(row, -row[lead], piv.items())
    pivots = sorted(pivot_rows)
    return pivots, [pivot_rows[p] for p in pivots]


def oracle_kernel_basis(matrix):
    """The kernel basis read off oracle_rref, as linalg.kernel_basis did:
    1 in each free coordinate, then the pivot entries in ascending order."""
    pivots, rows = oracle_rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for f in range(matrix.cols):
        if f in pivot_set:
            continue
        vec = {f: Fraction(1)}
        for p, row in zip(pivots, rows):
            v = row.get(f)
            if v:
                vec[p] = -v
        basis.append(vec)
    return basis


def oracle_image_basis(matrix):
    """The Fraction back-elimination that linalg.image_basis replaced: the
    column_echelon_int pivots in ascending lead order, each normalized to
    lead 1 and cleared from the vectors stored before it."""
    pivots = column_echelon_int(matrix)
    stored: dict = {}  # lead -> normalized vector, in insertion order
    for lead in sorted(pivots):
        vec = {r: Fraction(v) for r, v in pivots[lead].items()}
        inv = 1 / vec[lead]
        vec = {r: v * inv for r, v in vec.items()}
        for other in stored.values():
            cv = other.get(lead)
            if cv:
                _axpy(other, -cv, vec.items())
        stored[lead] = vec
    return [dict(stored[lead]) for lead in sorted(stored)]


def oracle_series_mul(x, y):
    """The product that TruncatedSeries.__mul__ replaced: every right term
    is visited for every left word, and the pairs over the cutoff skipped."""
    x.tensor._check_space(y.tensor)
    d = min(x.cutoff, y.cutoff)
    out: dict = {}
    for wx, cx in x.tensor.terms.items():
        if len(wx) > d:
            continue
        room = d - len(wx)
        for wy, cy in y.tensor.terms.items():
            if len(wy) > room:
                continue
            w = wx + wy
            out[w] = out.get(w, 0) + cx * cy
    return TruncatedSeries(x.tensor._like({k: v for k, v in out.items() if v != 0}), d)


# -- series power loops -----------------------------------------------------------
#
# The loops that tensors.exp_series, log_series and inverse_series ran
# before their nested Horner pass: up to D full-cutoff products of growing
# powers; and the unit-then-multiply loop of Expansion.evaluate before its
# numerator chain.  Every product is TruncatedSeries.__mul__.


def oracle_exp_series(s: TruncatedSeries) -> TruncatedSeries:
    if s.weight_zero_coeff() != 0:
        raise PrecisionError("exp requires a series with zero weight-0 part")
    acc = TruncatedSeries.unit(s.g, s.cutoff)
    term = TruncatedSeries.unit(s.g, s.cutoff)
    for k in range(1, s.cutoff + 1):
        term = (term * s).scale(Fraction(1, k))
        if term.tensor.is_zero():
            break
        acc = acc + term
    return acc


def oracle_log_series(s: TruncatedSeries) -> TruncatedSeries:
    if s.weight_zero_coeff() != 1:
        raise PrecisionError("log requires a series with weight-0 part equal to 1")
    n = s - TruncatedSeries.unit(s.g, s.cutoff)
    acc = TruncatedSeries(Tensor.zero(s.g), s.cutoff)
    power = TruncatedSeries.unit(s.g, s.cutoff)
    for k in range(1, s.cutoff + 1):
        power = power * n
        if power.tensor.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


def oracle_inverse_series(s: TruncatedSeries) -> TruncatedSeries:
    if s.weight_zero_coeff() != 1:
        raise PrecisionError("inverse requires a series with weight-0 part equal to 1")
    n = s - TruncatedSeries.unit(s.g, s.cutoff)
    acc = TruncatedSeries.unit(s.g, s.cutoff)
    power = TruncatedSeries.unit(s.g, s.cutoff)
    for k in range(1, s.cutoff + 1):
        power = power * n
        if power.tensor.is_zero():
            break
        acc = acc - power if k % 2 == 1 else acc + power
    return acc


def oracle_evaluate(theta, word) -> TruncatedSeries:
    acc = TruncatedSeries.unit(theta.g, theta.cutoff)
    for s in E.free_reduce(word):
        acc = acc * theta.generator_series(s)
    return acc


# -- Fraction certificates ------------------------------------------------------
#
# The outer square and the Dynkin map on Fraction term maps, that
# tensors.is_grouplike and tensors.is_lie_element compared with
# (coproduct(s) == outer_square(s), left_bracketing(t) == m*t) before they
# summed integer word arrays.


def outer_square(s: TruncatedSeries) -> PairTensor:
    """s (x) s truncated to total weight <= cutoff.  Each left term visits
    only the right terms that fit beside it, as in the series product."""
    terms = s.tensor.terms.items()
    fits: dict[int, list] = {}  # room -> terms of weight <= room, in order
    out: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
    for wx, cx in terms:
        room = s.cutoff - len(wx)
        if room < 0:
            continue
        ys = fits.get(room)
        if ys is None:
            ys = fits[room] = [(wy, cy) for wy, cy in terms if len(wy) <= room]
        for wy, cy in ys:
            out[(wx, wy)] = cx * cy
    return PairTensor(s.g, out)


def left_bracketing(t: Tensor) -> Tensor:
    """The Dynkin map: x1...xm -> [[...[x1,x2],...],xm], extended linearly.

    By the Dynkin-Specht-Wever criterion a homogeneous weight-m tensor t is
    a Lie element iff left_bracketing(t) == m*t.
    """
    out: dict[W.WordKey, Coeff] = {}
    for w, c in t.terms.items():
        if not w:
            continue
        acc = {w[:1]: c}
        for x in w[1:]:
            x = (x,)
            nxt = {u + x: v for u, v in acc.items()}  # [u, x] = u.x - x.u
            axpy(nxt, -1, ((x + u, v) for u, v in acc.items()))
            acc = nxt
        axpy(out, 1, acc.items())
    return t._like(out)


def oracle_is_grouplike(s: TruncatedSeries) -> bool:
    return coproduct(s) == outer_square(s)


def oracle_is_lie_element(t: Tensor) -> bool:
    if t.coefficient(()) != 0:
        return False
    for m in t.weight_support():
        comp = t.component(m)
        if left_bracketing(comp) != comp.scale(m):
            return False
    return True


def oracle_outer_square(s):
    """The outer square that outer_square replaced: every pair of
    terms is visited, and the pairs over the cutoff skipped."""
    terms = s.tensor.terms.items()
    return PairTensor(s.g, {
        (wx, wy): cx * cy for wx, cx in terms for wy, cy in terms if len(wx) + len(wy) <= s.cutoff
    })


def oracle_coproduct(s):
    """The coproduct that tensors.coproduct replaced: one bit mask per
    split, bit i sending letter i left."""
    out: dict = {}
    for w, c in s.tensor.terms.items():
        m = len(w)
        for mask in range(1 << m):
            left = tuple(w[i] for i in range(m) if mask >> i & 1)
            right = tuple(w[i] for i in range(m) if not mask >> i & 1)
            key = (left, right)
            out[key] = out.get(key, 0) + c
    return PairTensor(s.g, out)


def oracle_left_bracketing(t):
    """The Dynkin map that left_bracketing replaced: the brackets
    taken on Tensor objects, one letter at a time."""
    out = Tensor.zero(t.g)
    for w, c in t.terms.items():
        if not w:
            continue
        acc = Tensor.letter(t.g, w[0]).scale(c)
        for x in w[1:]:
            xt = Tensor.letter(t.g, x)
            acc = acc * xt - xt * acc
        out = out + acc
    return out


def oracle_correction_system(g: int, n: int, defect):
    """The correction columns and target that expansion._correct_logs
    built from Tensor products, keyed by word: [v, b_i] and [a_i, v] for
    every Lyndon basis element v, all of them, and minus the defect."""
    basis = E.lie_basis(g, n)
    columns = []
    for l in range(2 * g):
        partner_letter = Tensor.letter(g, l ^ 1)
        for elt in basis:
            if l % 2 == 0:
                col = elt * partner_letter - partner_letter * elt
            else:
                col = partner_letter * elt - elt * partner_letter
            columns.append(dict(col.terms))
    return columns, {wd: -c for wd, c in defect.terms.items()}


def oracle_symplectic_expansion(g: int, cutoff: int):
    """The solver loop that expansion.symplectic_expansion replaced: every
    step evaluates the boundary defect at the full cutoff."""
    logs = {l: Tensor.letter(g, l) for l in range(2 * g)}

    def build():
        return E.Expansion(
            g, cutoff, {l: exp_series(TruncatedSeries(logs[l], cutoff)) for l in range(2 * g)}
        )

    theta = build()
    for n in range(2, cutoff):
        defect = theta.boundary_log_defect().component(n + 1)
        if defect.is_zero():
            continue
        E._correct_logs(g, n, logs, defect)
        theta = build()
    return theta


class OracleEchelonReducer:
    """The Fraction reducer that linalg.EchelonReducer replaced: members
    normalized to lead 1 and reduced against in Fraction arithmetic."""

    def __init__(self):
        self._by_lead: dict = {}

    def members_with_tags(self):
        return [
            (self._by_lead[lead][1], dict(self._by_lead[lead][0]))
            for lead in sorted(self._by_lead)
        ]

    def reduce(self, vec):
        rem = {r: Fraction(v) for r, v in vec.items() if v != 0}
        used: dict = {}
        while rem:
            lead = min(rem)
            entry = self._by_lead.get(lead)
            if entry is None:
                break
            evec, tag = entry
            c = rem[lead]
            used[tag] = used.get(tag, 0) + c
            _axpy(rem, -c, evec.items())
        return rem, used

    def insert(self, vec, tag) -> bool:
        rem, _ = self.reduce(vec)
        if not rem:
            return False
        lead = min(rem)
        inv = 1 / rem[lead]
        self._by_lead[lead] = ({r: v * inv for r, v in rem.items()}, tag)
        return True


def oracle_compare_expansions(theta, theta2):
    """The comparison that expansion.compare_expansions replaced: exp(D_u)
    recomputed on every generator at every weight, and once more for the
    residual check."""
    if theta.g != theta2.g:
        raise InconsistentExpansions("different genus")
    g = theta.g
    cutoff = min(theta.cutoff, theta2.cutoff)
    for name, ok in (("first", theta.is_symplectic()), ("second", theta2.is_symplectic())):
        if not ok:
            raise InconsistentExpansions(f"the {name} expansion is not symplectic")
    u = DerivationElem.zero(g)
    for m in range(2, cutoff + 1):
        diffs = {}
        for l in range(2 * g):
            cur = exp_derivation(u, theta.series[l].tensor, cutoff)
            d = theta2.series[l].tensor - cur
            low = d.truncate(m - 1)
            if not low.is_zero():
                raise InconsistentExpansions(
                    f"discrepancy below weight {m} on generator x{l + 1}"
                )
            diffs[l] = d.component(m)
        if all(d.is_zero() for d in diffs.values()):
            continue
        comp = Tensor.zero(g)
        for i in range(g):
            a, b = 2 * i, 2 * i + 1
            comp = comp + Tensor.letter(g, a) * diffs[b] - Tensor.letter(g, b) * diffs[a]
        try:
            u = u + necklace_normal_form(comp)
        except NotCyclic as exc:
            raise InconsistentExpansions(
                f"weight-{m + 1} correction is not a symplectic derivation: {exc}"
            ) from exc
    for l in range(2 * g):
        if exp_derivation(u, theta.series[l].tensor, cutoff) != theta2.series[l].tensor:
            raise InconsistentExpansions("residual discrepancy at the cutoff")
    return u


def oracle_column_echelon_int(matrix):
    """column_echelon_int without its exits: every column is reduced."""
    pivots: dict = {}
    for col0 in matrix.columns:
        col = _reduce_int(_int_scale_column(col0)[0], pivots)
        if col:
            lead = min(col)
            pivots[lead] = col if col[lead] > 0 else {r: -v for r, v in col.items()}
    return pivots
