"""Weight-graded Chevalley-Eilenberg chain and cochain operators.

Wedge monomials are strictly increasing tuples of global necklace indices
(weight-major order), so a cell (p, w) is the span of all p-tuples of
total weight w.  A monomial with a repeated factor is zero; every emitted
term is re-sorted with the sign of the sorting permutation.  Module cells
pair a plain word with a wedge tuple; the word's length counts toward the
total weight.

Operators, with 1-based signs as usual:

* boundary:  sum_{i<j} (-1)^{i+j} [X_i, X_j] ^ (rest)        (p, w) -> (p-1, w-2)
* sigma(Y):  sum_i X_1 ^ ... ^ [Y, X_i] ^ ... ^ X_p          degree-preserving
* cochain d: sum_i (-1)^i (delta X_i) ^ (rest)               (p, w) -> (p+1, w-2)
* Gamma:     sum_i (-1)^i (X_i m) (x) (rest)
* module boundary:  Gamma + 1 (x) boundary
* module cochain d: mu(m) ^ xi - m (x) d xi

The cobracket and comodule maps are supplied as handles so that deformed
structures can be assembled through the same code path; the handles for
the canonical (Schedler) structure are :class:`AlgCobracket` and
:class:`AlgComodule`.
"""

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import product
from typing import Iterable, Mapping, Protocol, Sequence

from . import words as W
from .errors import GenusMismatch
from .lie import DerivationElem, NecklaceContext, algebra
from .linalg import SparseRationalMatrix
from .tensors import Coeff, TermMap, axpy, coeff_str, parse_coeff, _prune

WedgeKey = tuple[int, ...]
ModKey = tuple[W.WordKey, WedgeKey]


# -- handles ---------------------------------------------------------------


class CobracketHandle(Protocol):
    g: int
    name: str
    max_weight: int | None

    def wedge_terms(self, idx: int) -> Sequence[tuple[int, int, Coeff]]:
        """delta of the basis necklace as ((a, b, coeff), ...) with a < b."""
        ...


class ComoduleHandle(Protocol):
    g: int
    name: str
    max_weight: int | None

    def mu_terms(self, word: W.WordKey) -> Sequence[tuple[W.WordKey, int, Coeff]]:
        """mu of a basis word as ((word, necklace index, coeff), ...)."""
        ...


class AlgCobracket:
    """The canonical necklace cobracket as an assembly handle."""

    max_weight = None
    name = "alg"

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def wedge_terms(self, idx: int):
        return self._ctx.delta_wedge(idx)


class AlgComodule:
    """The canonical word-splitting comodule map as an assembly handle."""

    max_weight = None
    name = "alg"

    def __init__(self, g: int):
        self.g = g
        self._ctx = algebra(g)

    def mu_terms(self, word: W.WordKey):
        return self._ctx.mu_terms(word)


# -- bases ------------------------------------------------------------------


class WedgeBasis:
    """Ordered basis of the (p, w) cell of the exterior algebra."""

    __slots__ = ("g", "p", "w", "monomials", "position")

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        ctx = algebra(g)
        self.monomials: list[WedgeKey] = list(_wedge_tuples(ctx, p, w))
        self.position: dict[WedgeKey, int] = {
            t: i for i, t in enumerate(self.monomials)
        }

    def dim(self) -> int:
        return len(self.monomials)

    def describe(self, i: int) -> str:
        ctx = algebra(self.g)
        parts = [f"N({W.word_name(ctx.word_at(k))})" for k in self.monomials[i]]
        return "^".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"WedgeBasis(g={self.g}, p={self.p}, w={self.w}, dim={self.dim()})"


def _wedge_tuples(ctx: NecklaceContext, p: int, w: int):
    """Strictly increasing index tuples of total weight w, lexicographic."""
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


class ModWedgeBasis:
    """Ordered basis of the (p, w) module cell: (word, wedge tuple) pairs
    with len(word) + wedge weight = w."""

    __slots__ = ("g", "p", "w", "monomials", "position")

    def __init__(self, g: int, p: int, w: int):
        self.g, self.p, self.w = g, p, w
        mons: list[ModKey] = []
        for k in range(w + 1):
            sub = wedge_basis(g, p, w - k).monomials
            if not sub:
                continue
            for word in product(range(2 * g), repeat=k):
                for t in sub:
                    mons.append((word, t))
        self.monomials = mons
        self.position = {m: i for i, m in enumerate(mons)}

    def dim(self) -> int:
        return len(self.monomials)

    def describe(self, i: int) -> str:
        word, t = self.monomials[i]
        ctx = algebra(self.g)
        wedge = "^".join(f"N({W.word_name(k2)})" for k2 in map(ctx.word_at, t))
        return f"({W.word_name(word) or '1'})(x)({wedge or '1'})"

    def __repr__(self) -> str:
        return f"ModWedgeBasis(g={self.g}, p={self.p}, w={self.w}, dim={self.dim()})"


@lru_cache(maxsize=None)
def wedge_basis(g: int, p: int, w: int) -> WedgeBasis:
    return WedgeBasis(g, p, w)


@lru_cache(maxsize=None)
def mod_wedge_basis(g: int, p: int, w: int) -> ModWedgeBasis:
    return ModWedgeBasis(g, p, w)


# -- chain vectors ----------------------------------------------------------


class _CellVector(TermMap):
    """Sparse element of a cell: basis positions -> coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs: Mapping[int, Coeff] | None = None):
        self.basis = basis
        self.coeffs: dict[int, Coeff] = _prune(dict(coeffs or {}))

    @classmethod
    def from_terms(cls, basis, terms: Iterable[tuple[tuple, Coeff]]):
        acc: dict[int, Coeff] = {}
        axpy(acc, 1, ((basis.position[t], c) for t, c in terms))
        return cls(basis, acc)

    def cell(self) -> tuple[int, int]:
        return (self.basis.p, self.basis.w)

    def terms(self) -> list[tuple[tuple, Coeff]]:
        return [(self.basis.monomials[i], c) for i, c in self.sorted_terms()]

    def _map(self) -> dict:
        return self.coeffs

    def _space(self) -> tuple:
        return (self.basis.g, self.basis.p, self.basis.w)

    def _like(self, coeffs: dict) -> "_CellVector":
        out = object.__new__(type(self))
        out.basis = self.basis
        out.coeffs = coeffs
        return out

    def _term_str(self, i: int) -> str:
        return self.basis.describe(i)


class ChainVector(_CellVector):
    """Sparse element of a wedge cell: basis positions -> coefficients."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        ctx = algebra(self.basis.g)
        return {
            "g": self.basis.g,
            "p": self.basis.p,
            "w": self.basis.w,
            "terms": [
                {"wedge": [W.word_name(ctx.word_at(k)) for k in t], "coeff": coeff_str(c)}
                for t, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainVector":
        g, p, w = int(data["g"]), int(data["p"]), int(data["w"])
        basis = wedge_basis(g, p, w)
        ctx = algebra(g)
        terms = []
        for item in data["terms"]:
            idxs = [ctx.index_of_word(W.canonical_rotation(W.parse_word(s))) for s in item["wedge"]]
            key, sign = _sort_wedge(tuple(idxs))
            if sign == 0:
                continue
            terms.append((key, sign * parse_coeff(item["coeff"])))
        return cls.from_terms(basis, terms)


class ModChainVector(_CellVector):
    """Sparse element of a module cell (word tensor wedge)."""

    __slots__ = ()


# -- sign helpers ------------------------------------------------------------


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


def _sort_wedge(idxs: WedgeKey):
    """Sort an arbitrary index tuple: (sorted tuple, permutation sign);
    sign 0 when an index repeats."""
    arr = list(idxs)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i]:
            return tuple(arr), 0
    return tuple(arr), sign


# -- monomial-level emissions -------------------------------------------------


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


def cochain_monomial(ctx: NecklaceContext, delta: CobracketHandle, tup: WedgeKey):
    out = []
    for ii in range(len(tup)):
        terms = delta.wedge_terms(tup[ii])
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


def mod_cochain_monomial(
    ctx: NecklaceContext, delta: CobracketHandle, mu: ComoduleHandle, mono: ModKey
):
    # d(m (x) xi) = mu(m) ^ xi - m (x) d xi.  The relative minus (constant
    # in p) is forced: the unit-word part of d*boundary + boundary*d reduces
    # to a multiple of the wedge-level anticommutator only when the sign of
    # the m (x) d xi term does not depend on p, and the p = 0, 1 cells pin
    # it to -1 given our splitting conventions.  A p-dependent sign here
    # provably breaks the p = 2 module cells (genus 2, weight 6).
    word, tup = mono
    return module_coboundary(mu.mu_terms(word), cochain_monomial(ctx, delta, tup), mono)


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


# -- emitter paths: to a vector and to a matrix --------------------------------


def emit_vector(x: _CellVector, tgt, emit) -> _CellVector:
    """Image of a chain vector under the operator whose value on a basis
    monomial is emit(monomial), as a vector of the same type in tgt."""
    acc: dict = {}
    monomials = x.basis.monomials
    for i, c in x.coeffs.items():
        axpy(acc, c, emit(monomials[i]))
    return type(x).from_terms(tgt, acc.items())


def emit_matrix(src, tgt, emit) -> SparseRationalMatrix:
    """Matrix of the operator whose value on a basis monomial is
    emit(monomial): column j is the image of the j-th monomial of src, in
    the tgt basis."""
    pos = tgt.position
    columns = []
    for mono in src.monomials:
        col: dict[int, Coeff] = {}
        for t, s in emit(mono):
            j = pos[t]
            col[j] = col.get(j, 0) + s
        columns.append(col)
    return SparseRationalMatrix(tgt.dim(), src.dim(), columns)


# -- operators on chain vectors ----------------------------------------------


def boundary(x: ChainVector) -> ChainVector:
    """Chevalley-Eilenberg boundary; lands in (p-1, w-2); zero on p = 1."""
    b = x.basis
    if b.p < 1:
        raise ValueError("boundary needs p >= 1")
    target = wedge_basis(b.g, b.p - 1, max(b.w - 2, 0))
    return emit_vector(x, target, partial(boundary_monomial, algebra(b.g)))


def sigma_wedge(y: DerivationElem, x: ChainVector) -> ChainVector:
    """Diagonal action of a weight-homogeneous derivation on a wedge cell."""
    ws = y.weight_support()
    if len(ws) > 1:
        raise ValueError("sigma_wedge needs a weight-homogeneous derivation")
    b = x.basis
    if y.g != b.g:
        raise GenusMismatch(f"genus {y.g} != {b.g}")
    if not ws:
        return ChainVector(wedge_basis(b.g, b.p, b.w))
    out = ChainVector(wedge_basis(b.g, b.p, max(b.w + ws[0] - 2, 0)))
    if x.is_zero():
        return out
    ctx = algebra(b.g)
    for nw, cy in y.terms.items():
        emit = partial(sigma_monomial, ctx, ctx.index_of_word(nw))
        out = out + emit_vector(x, out.basis, emit).scale(cy)
    return out


def cochain_d(x: ChainVector, delta: CobracketHandle) -> ChainVector:
    """Cobracket-induced coboundary; lands in (p+1, w-2); 0 on scalars."""
    b = x.basis
    target = wedge_basis(b.g, b.p + 1, max(b.w - 2, 0))
    if b.p == 0 or b.w < 2:
        return ChainVector(target)
    return emit_vector(x, target, partial(cochain_monomial, algebra(b.g), delta))


def mod_boundary(x: ModChainVector) -> ModChainVector:
    """Module boundary Gamma + 1 (x) boundary; lands in (p-1, w-2)."""
    b = x.basis
    if b.p < 1:
        raise ValueError("module boundary needs p >= 1")
    target = mod_wedge_basis(b.g, b.p - 1, max(b.w - 2, 0))
    return emit_vector(x, target, partial(mod_boundary_monomial, algebra(b.g)))


def mod_cochain_d(
    x: ModChainVector, delta: CobracketHandle, mu: ComoduleHandle
) -> ModChainVector:
    """Module coboundary mu(m)^xi - m (x) d xi (a constant relative sign);
    lands in (p+1, w-2)."""
    b = x.basis
    if b.w < 2:
        return ModChainVector(mod_wedge_basis(b.g, b.p + 1, 0))
    target = mod_wedge_basis(b.g, b.p + 1, b.w - 2)
    return emit_vector(x, target, partial(mod_cochain_monomial, algebra(b.g), delta, mu))


def wedge_product(x: ChainVector, y: ChainVector) -> ChainVector:
    """Exterior product of two chain vectors; lands in (p+q, w+v)."""
    bx, by = x.basis, y.basis
    if bx.g != by.g:
        raise GenusMismatch(f"genus {bx.g} != {by.g}")
    target = wedge_basis(bx.g, bx.p + by.p, bx.w + by.w)
    acc: dict[WedgeKey, Coeff] = {}
    for ti, ci in x.terms():
        for tj, cj in y.terms():
            t, s = _sort_wedge(ti + tj)
            if s:
                axpy(acc, ci * cj, ((t, s),))
    return ChainVector.from_terms(target, acc.items())


# -- matrix assembly -----------------------------------------------------------

_OPS = ("boundary", "cochain_d", "mod_boundary", "mod_cochain_d")


def assemble(
    op: str,
    g: int,
    p: int,
    w: int,
    delta: CobracketHandle | None = None,
    mu: ComoduleHandle | None = None,
) -> SparseRationalMatrix:
    """Matrix of an operator out of the (p, w) cell, in the enumerated
    bases.  Column j is the image of the j-th source monomial."""
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")
    module = op.startswith("mod_")
    src = mod_wedge_basis(g, p, w) if module else wedge_basis(g, p, w)
    ctx = algebra(g)
    if op == "boundary":
        tgt = wedge_basis(g, p - 1, w - 2) if p >= 1 and w >= 2 else None
        emit = partial(boundary_monomial, ctx)
    elif op == "cochain_d":
        tgt = wedge_basis(g, p + 1, w - 2) if w >= 2 else None
        if delta is None:
            raise ValueError("cochain_d needs a cobracket handle")
        emit = partial(cochain_monomial, ctx, delta)
    elif op == "mod_boundary":
        tgt = mod_wedge_basis(g, p - 1, w - 2) if p >= 1 and w >= 2 else None
        emit = partial(mod_boundary_monomial, ctx)
    else:
        tgt = mod_wedge_basis(g, p + 1, w - 2) if w >= 2 else None
        if delta is None or mu is None:
            raise ValueError("mod_cochain_d needs cobracket and comodule handles")
        emit = partial(mod_cochain_monomial, ctx, delta, mu)
    if tgt is None or not src.monomials:
        return SparseRationalMatrix(tgt.dim() if tgt else 0, src.dim() if src else 0)
    return emit_matrix(src, tgt, emit)
