"""The free tensor algebra over a symplectic vector space, with exact
rational coefficients.

A :class:`Tensor` is a finite linear combination of words in the 2g
letters; a :class:`TruncatedSeries` is a tensor together with a weight
cutoff D and models the quotient of the completed algebra by the ideal of
weight > D.  All arithmetic is exact: coefficients are Python ints or
``fractions.Fraction`` and are never approximated.

Conventions fixed here:

* the pairing is a_i . b_i = +1 (see :func:`words.pairing_sign`); with this
  sign every necklace derivation annihilates the symplectic form, which is
  checked by the test suite;
* series operations silently drop weight > D terms, and mixing two cutoffs
  uses the minimum; all series arithmetic runs one pair loop on integer
  numerators (``_pair_sums``), which never forms such a term: a left word
  of weight k meets only the right terms of weight <= D - k, taken in the
  right operand's own term order.  The series product scales each operand
  once to integer numerators over the lcm L of its denominators and
  divides each sum by Lx*Ly once: an int where only pairs of int-typed
  coefficients reached the word, else a Fraction, as Python arithmetic on
  the coefficients themselves would give.  exp, log and the inverse are
  one nested Horner pass each (``_nested``), and a chain of factors is
  multiplied over one running denominator (``_series_product``); their
  results are built from numerators, one Fraction per term;
* the coproduct routes the letters of a word one at a time, doubling the
  list of (left, right) splits per letter;
* the certificates ``is_grouplike`` and ``is_lie_element`` form neither the
  coproduct nor the Dynkin map term by term: they scale to integer
  numerators and sum both sides of their identity as int arrays of words,
  taken through tables of split positions and of Dynkin position orders;
* term maps never store zero coefficients, so equality is map equality.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial, lcm
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import words as W
from .errors import CellTooLarge, GenusMismatch, PrecisionError

Coeff = int | Fraction


def coeff_str(c: Coeff) -> str:
    return str(Fraction(c))


def parse_coeff(value: str | int) -> Fraction:
    """A coefficient as JSON holds it: a string such as "-3/2", or an int.
    Anything else (a float, which is inexact, or a bool) is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"a coefficient must be a string or an int, not {value!r}")
    return Fraction(value)


def _prune(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


def axpy(acc: dict, c: Coeff, terms: Iterable) -> None:
    """acc += c * terms, for (key, coeff) pairs such as a dict's items; a
    key whose coefficient reaches zero is deleted, so acc stays zero-free."""
    get = acc.get
    unit = type(c) is int and c == 1  # plain sums skip a product per term
    for k, v in terms:
        v = get(k, 0) + (v if unit else c * v)
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def by_weight(word: W.WordKey):
    """Term order of word-keyed maps: weight-major, then lexicographic."""
    return (len(word), word)


def by_total_weight(pair: tuple[W.WordKey, W.WordKey]):
    """Term order of maps keyed by two words: total weight, then the pair."""
    return (len(pair[0]) + len(pair[1]), pair)


class TermMap:
    """A finite sparse map from canonical keys to exact coefficients.

    Every sparse element of the package is one: tensors, necklace
    derivations and their two-factor forms, and chain vectors.  Keys are
    canonical and no stored coefficient is zero, so equality is map
    equality.  A subclass canonicalises keys in its public constructor and
    supplies its term order, term names and JSON; it stores its map in
    ``terms`` over the genus ``g`` unless it overrides the hooks below
    (chain vectors store ``coeffs`` over a basis).

    Arithmetic needs two operands of the same type over the same space:
    other types raise TypeError, another genus GenusMismatch, and another
    cell of the same genus ValueError.  Results are built from keys that
    are canonical already, without canonicalising them again.
    """

    __slots__ = ()

    _order = None  # sort key of the term order; None sorts the keys

    # -- hooks ----------------------------------------------------------

    def _map(self) -> dict:
        return self.terms

    def _space(self) -> tuple:
        """(genus, cell...) of the space the element lives in."""
        return (self.g,)

    def _like(self, terms: dict) -> "TermMap":
        """An element of the same type and space; terms must be canonical
        and zero-free."""
        out = object.__new__(type(self))
        out.g = self.g
        out.terms = terms
        return out

    def _term_str(self, key) -> str:
        raise NotImplementedError

    # -- shared behaviour -----------------------------------------------

    def _check_space(self, other: "TermMap") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        mine, theirs = self._space(), other._space()
        if mine != theirs:
            if mine[0] != theirs[0]:
                raise GenusMismatch(f"genus {mine[0]} != {theirs[0]}")
            raise ValueError(f"{type(self).__name__}s live in different cells")

    def is_zero(self) -> bool:
        return not self._map()

    def __add__(self, other: "TermMap") -> "TermMap":
        self._check_space(other)
        out = dict(self._map())
        axpy(out, 1, other._map().items())
        return self._like(out)

    def __sub__(self, other: "TermMap") -> "TermMap":
        self._check_space(other)
        out = dict(self._map())
        axpy(out, -1, other._map().items())
        return self._like(out)

    def __neg__(self) -> "TermMap":
        return self._like({k: -v for k, v in self._map().items()})

    def scale(self, c: Coeff) -> "TermMap":
        if c == 0:
            return self._like({})
        return self._like({k: c * v for k, v in self._map().items()})

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self._map() == other._map()
        )

    def __hash__(self):
        return hash((self._space(), frozenset(self._map().items())))

    def sorted_terms(self) -> list:
        """(key, coeff) pairs in the canonical term order."""
        terms = self._map()
        return [(k, terms[k]) for k in sorted(terms, key=self._order)]

    def __repr__(self) -> str:
        return " + ".join(
            f"{coeff_str(c)}*{self._term_str(k)}" for k, c in self.sorted_terms()
        ) or "0"


class Tensor(TermMap):
    """Sparse element of the free tensor algebra: a finite map word -> coeff."""

    __slots__ = ("g", "terms")

    _order = staticmethod(by_weight)

    def __init__(self, g: int, terms: Mapping[W.WordKey, Coeff] | None = None):
        if g < 1:
            raise ValueError("genus must be >= 1")
        self.g = g
        self.terms: dict[W.WordKey, Coeff] = _prune(dict(terms or {}))
        for word in self.terms:
            W.check_letters(word, g)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, g: int) -> "Tensor":
        return cls(g)

    @classmethod
    def unit(cls, g: int) -> "Tensor":
        return cls(g, {(): 1})

    @classmethod
    def word(cls, g: int, word: W.WordKey, coeff: Coeff = 1) -> "Tensor":
        return cls(g, {tuple(word): coeff})

    @classmethod
    def letter(cls, g: int, code: int) -> "Tensor":
        return cls(g, {(code,): 1})

    # -- basic structure ----------------------------------------------

    def weight_support(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def component(self, weight: int) -> "Tensor":
        return self._like({w: c for w, c in self.terms.items() if len(w) == weight})

    def max_weight(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def truncate(self, cutoff: int) -> "Tensor":
        return self._like({w: c for w, c in self.terms.items() if len(w) <= cutoff})

    def coefficient(self, word: W.WordKey) -> Coeff:
        return self.terms.get(tuple(word), 0)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return concat_mul(self, other)

    def _term_str(self, w: W.WordKey) -> str:
        return W.word_name(w) if w else "1"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"word": W.word_name(w), "coeff": coeff_str(c)}
                for w, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tensor":
        terms: dict[W.WordKey, Coeff] = {}
        items = data["terms"]
        axpy(terms, 1, ((W.parse_word(i["word"]), parse_coeff(i["coeff"])) for i in items))
        return cls(int(data["g"]), terms)


def concat_mul(x: Tensor, y: Tensor) -> Tensor:
    """Bilinear extension of word concatenation; weight-additive."""
    x._check_space(y)
    out: dict[W.WordKey, Coeff] = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            w = wx + wy
            out[w] = out.get(w, 0) + cx * cy
    return x._like(_prune(out))


def pairing(x: W.Letter | int, y: W.Letter | int) -> int:
    """Symplectic pairing of two letters, with a_i . b_i = +1."""
    cx = x.code() if isinstance(x, W.Letter) else x
    cy = y.code() if isinstance(y, W.Letter) else y
    return W.pairing_sign(cx, cy)


def omega(g: int) -> Tensor:
    """The symplectic form: sum of a_i b_i - b_i a_i over i = 1..g."""
    terms: dict[W.WordKey, Coeff] = {}
    for i in range(g):
        terms[(2 * i, 2 * i + 1)] = 1
        terms[(2 * i + 1, 2 * i)] = -1
    return Tensor(g, terms)


def cyclicize(t: Tensor) -> Tensor:
    """The cyclic symmetrizer N: sum of all rotations of each word, with
    the weight-0 component killed."""
    out: dict[W.WordKey, Coeff] = {}
    for w, c in t.terms.items():
        if not w:
            continue
        for r in W.rotations(w):
            out[r] = out.get(r, 0) + c
    return Tensor(t.g, out)


class PairTensor(TermMap):
    """Finite map (word, word) -> coeff; the two-factor analogue of Tensor."""

    __slots__ = ("g", "terms")

    _order = staticmethod(by_total_weight)

    def __init__(self, g: int, terms: Mapping[tuple[W.WordKey, W.WordKey], Coeff] | None = None):
        self.g = g
        self.terms: dict[tuple[W.WordKey, W.WordKey], Coeff] = _prune(dict(terms or {}))

    def _term_str(self, key: tuple[W.WordKey, W.WordKey]) -> str:
        u, v = key
        return f"({W.word_name(u) or '1'} (x) {W.word_name(v) or '1'})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"left": W.word_name(u), "right": W.word_name(v), "coeff": coeff_str(c)}
                for (u, v), c in self.sorted_terms()
            ],
        }


class TruncatedSeries:
    """A tensor known only modulo weight > cutoff, i.e. an element of the
    completed algebra truncated at weight D."""

    __slots__ = ("tensor", "cutoff")

    def __init__(self, tensor: Tensor, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.cutoff = cutoff
        self.tensor = tensor.truncate(cutoff)

    @property
    def g(self) -> int:
        return self.tensor.g

    @classmethod
    def unit(cls, g: int, cutoff: int) -> "TruncatedSeries":
        return cls(Tensor.unit(g), cutoff)

    def _common_cutoff(self, other: "TruncatedSeries") -> int:
        return min(self.cutoff, other.cutoff)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d = self._common_cutoff(other)
        return TruncatedSeries(self.tensor + other.tensor, d)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d = self._common_cutoff(other)
        return TruncatedSeries(self.tensor - other.tensor, d)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.tensor, self.cutoff)

    def scale(self, c: Coeff) -> "TruncatedSeries":
        return TruncatedSeries(self.tensor.scale(c), self.cutoff)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self.tensor._check_space(other.tensor)
        d = self._common_cutoff(other)
        x, y = self.tensor.terms, other.tensor.terms
        (left, sx), (right, sy) = _numerator_terms(x), _numerator_terms(y)
        out = _pair_sums(left, right, d)
        if all(type(c) is int for c in chain(x.values(), y.values())):
            terms = _prune(out)
        else:
            ints, scale = _int_reached(x, y, d), sx * sy
            terms = {w: v // scale if w in ints else Fraction(v, scale)
                     for w, v in out.items() if v}
        return _series(self.tensor._like(terms), d)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.cutoff == other.cutoff
            and self.tensor == other.tensor
        )

    def __repr__(self) -> str:
        return f"({self.tensor!r}) mod weight>{self.cutoff}"

    def weight_zero_coeff(self) -> Coeff:
        return self.tensor.coefficient(())

    def to_json_dict(self) -> dict:
        out = self.tensor.to_json_dict()
        out["cutoff"] = self.cutoff
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedSeries":
        return cls(Tensor.from_json_dict(data), int(data["cutoff"]))


def _series(tensor: Tensor, d: int) -> TruncatedSeries:
    """The series of a tensor with no term over the cutoff d: nothing to
    truncate."""
    out = object.__new__(TruncatedSeries)
    out.tensor, out.cutoff = tensor, d
    return out


def _numerator_terms(terms: dict) -> tuple[list, int]:
    """((word, L*c) pairs in term order, L), with L the lcm of the
    denominators of the coefficients; the numerators are ints."""
    scale = lcm(*{c.denominator for c in terms.values()})
    return [(w, c.numerator * (scale // c.denominator)) for w, c in terms.items()], scale


def _pair_sums(left: list, right: list, d: int) -> dict:
    """The product of two lists of (word, int numerator) pairs under the
    cutoff d, as word -> int sum (zeros kept): a left word of weight k
    meets only the right terms of weight <= d - k, taken in the right
    list's order.  Every series product of the package runs this loop."""
    fits: dict[int, list] = {}  # room -> right terms of weight <= room, in order
    out: dict[W.WordKey, int] = {}
    for wx, nx in left:
        room = d - len(wx)
        if room < 0:
            continue
        ys = fits.get(room)
        if ys is None:
            ys = fits[room] = [(wy, ny) for wy, ny in right if len(wy) <= room]
        for wy, ny in ys:
            w = wx + wy
            out[w] = out.get(w, 0) + nx * ny
    return out


def _series_over(g: int, d: int, pairs: list, den: int) -> TruncatedSeries:
    """The series of the (word, int numerator) pairs over the denominator
    den, one Fraction per term (ints where den is 1)."""
    terms = dict(pairs) if den == 1 else {w: Fraction(v, den) for w, v in pairs}
    return _series(Tensor.zero(g)._like(terms), d)


def _int_reached(x: dict, y: dict, d: int) -> set:
    """The words of the product of the term maps x and y under the cutoff
    d that only pairs of int-typed coefficients reach: those whose Python
    sum of products is an int, not a Fraction.  Each word that such a pair
    makes is tested on all its splits into a word of x and one of y."""
    reached = {wx + wy for wx, cx in x.items() if type(cx) is int
               for wy, cy in y.items() if type(cy) is int and len(wx) + len(wy) <= d}
    return {w for w in reached if all(
        type(x[w[:k]]) is type(y[w[k:]]) is int
        for k in range(len(w) + 1) if w[:k] in x and w[k:] in y
    )}


def _series_product(g: int, d: int, factors: Iterable[TruncatedSeries]) -> TruncatedSeries:
    """The product of the factors, in order, modulo weight > d: the pair
    loop runs on integer numerators over one running denominator, the
    product of the factors' lcms, and each term of the result becomes a
    Fraction once, at the end.  The values are those of the chain of
    series products; every factor must be over the genus g."""
    acc, den = [((), 1)], 1
    for f in factors:
        right, scale = _numerator_terms(f.tensor.terms)
        acc = [(w, v) for w, v in _pair_sums(acc, right, d).items() if v]
        den *= scale
    return _series_over(g, d, acc, den)


def _nested(u: TruncatedSeries, coeff: Callable[[int], Coeff]) -> TruncatedSeries:
    """sum_k coeff(k) u^k modulo weight > D, for u with no weight-0 term,
    in one nested Horner pass c_0 + u(c_1 + u(c_2 + ...)).

    The depth-k factor h_k = c_k + u h_(k+1) is needed only modulo weight
    > D - k, since u^k has no weight below k; with m the least weight of
    u, u^k vanishes for k > K = D // m, so the pass starts at h_K = c_K.
    The accumulator holds the integer numerators of Q L^(K-k) h_k, with Q
    the lcm of the denominators of c_0..c_K and L that of u, so each step
    is one pair loop, and each term of h_0 becomes a Fraction once."""
    d, terms = u.cutoff, u.tensor.terms
    top = d // min(map(len, terms)) if terms else 0
    pairs, q = _numerator_terms({k: coeff(k) for k in range(top + 1)})
    nums = dict(pairs)  # k -> Q c_k
    left, lu = _numerator_terms(terms)
    acc, scale = [((), nums[top])] if nums[top] else [], 1
    for k in range(top - 1, -1, -1):
        scale *= lu
        c = nums[k] * scale  # u has no weight-0 term: () comes only from c_k
        acc = ([((), c)] if c else []) + [
            (w, v) for w, v in _pair_sums(left, acc, d - k).items() if v]
    return _series_over(u.g, d, acc, q * scale)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, modulo the cutoff: the
    coefficients 1/k! in one nested Horner pass (``_nested``)."""
    if s.weight_zero_coeff() != 0:
        raise PrecisionError("exp requires a series with zero weight-0 part")
    return _nested(s, lambda k: Fraction(1, factorial(k)))


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1, modulo the cutoff: the
    coefficients (-1)^(k+1)/k of u = s - 1 (0 for k = 0) in one nested
    Horner pass (``_nested``)."""
    if s.weight_zero_coeff() != 1:
        raise PrecisionError("log requires a series with weight-0 part equal to 1")
    return _nested(s - TruncatedSeries.unit(s.g, s.cutoff),
                   lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def inverse_series(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series with constant term 1: the geometric series,
    the coefficients (-1)^k of u = s - 1, in one nested Horner pass
    (``_nested``)."""
    if s.weight_zero_coeff() != 1:
        raise PrecisionError("inverse requires a series with weight-0 part equal to 1")
    return _nested(s - TruncatedSeries.unit(s.g, s.cutoff), lambda k: (-1) ** k)


def coproduct(s: TruncatedSeries) -> PairTensor:
    """The algebra-map extension of Delta(X) = X (x) 1 + 1 (x) X on letters,
    applied termwise: each letter of a word is routed left or right.

    The letters are routed one at a time, so every (left, right) split of
    a prefix is extended by the next letter on the right and then on the
    left; the 2^m splits of a word come out in the order of the bit masks
    whose bit i sends letter i left."""
    out: dict[tuple[W.WordKey, W.WordKey], Coeff] = {}
    for w, c in s.tensor.terms.items():
        splits = [((), ())]
        for x in w:
            x = (x,)
            splits = [(u, v + x) for u, v in splits] + [(u + x, v) for u, v in splits]
        for key in splits:
            out[key] = out.get(key, 0) + c
    return PairTensor(s.g, out)


# -- exact term arithmetic ------------------------------------------------------
#
# Every identity check, table and operator of the package that sums terms
# does it here: (int64 key columns, coefficients) as numpy arrays.  The
# coefficients are exact: int64 only where a bound certifies that no value,
# product or partial sum reaches 2**62 (``_exact``, ``_product``,
# ``_summed``), else Python ints (dtype object).  ``linalg.int_values``
# is the other way into int64, and it refuses instead.

_INT64_SAFE = 2**62


def _exact(values) -> np.ndarray:
    """Python ints as an int64 array, or as an object array of the ints
    themselves where one reaches 2**62 in absolute value."""
    values = list(values)
    small = all(-_INT64_SAFE < v < _INT64_SAFE for v in values)
    return np.array(values, dtype=np.int64 if small else object)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise (broadcast), exactly: in int64 where max|x| *
    max|y| < 2**62 certifies every product, and in Python ints otherwise."""
    if x.dtype != object and y.dtype != object and (
            int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0)) < _INT64_SAFE):
        return x * y
    return x.astype(object) * y.astype(object)


def _summed(keys: tuple[np.ndarray, ...], coeff: np.ndarray):
    """The distinct rows of the key columns, in lexicographic order, with
    the sums of their coefficients; the rows whose sum is 0 dropped.  The
    sums are int64 where len * max|coeff| < 2**62 certifies every partial
    sum, else Python ints.  Nonnegative columns are sorted as one int64 key
    of radix max + 1 per column, the first most significant, where the
    radices multiply to less than 2**62: the order of ``np.lexsort``."""
    if not len(coeff):
        return tuple(keys), coeff
    if coeff.dtype != object and len(coeff) * int(np.abs(coeff).max()) >= _INT64_SAFE:
        coeff = coeff.astype(object)
    packed, top = np.zeros(len(coeff), dtype=np.int64), 1
    for col in keys:
        radix = int(col.max()) + 1
        top *= radix
        if top >= _INT64_SAFE or col.min() < 0:
            packed = None
            break
        packed = packed * radix + col
    order = np.lexsort(keys[::-1]) if packed is None else np.argsort(packed)
    runs = [k[order] for k in (keys if packed is None else (packed,))]
    new = np.ones(len(coeff), dtype=bool)
    new[1:] = np.any([k[1:] != k[:-1] for k in runs], axis=0)
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(coeff[order], starts)
    keep = sums != 0
    return tuple(k[order[starts[keep]]] for k in keys), sums[keep]


def _folded(parts: Iterable[tuple[tuple[np.ndarray, ...], np.ndarray]]):
    """``_summed`` over a stream of (key columns, values) parts, folded one
    part at a time, so only one part and the distinct keys so far are held;
    None if there is no part."""
    acc = None
    for keys, coeff in parts:
        if acc is not None:
            keys = tuple(np.concatenate(pair) for pair in zip(acc[0], keys))
            coeff = np.concatenate([acc[1], coeff])
        acc = _summed(keys, coeff)
    return acc


def _vanishes(parts) -> bool:
    """Whether the (key columns, values) parts sum to zero on every key."""
    acc = _folded(parts)
    return acc is None or not len(acc[1])


def _joined(parts: list, *empty) -> tuple:
    """The columns of a list of term arrays, each concatenated over the
    parts that hold a term (so an empty part's shapes need not agree); with
    no such part, int64 zeros of the given shapes, one a column."""
    parts = [part for part in parts if len(part[0])]
    if not parts:
        return tuple(np.zeros(shape, dtype=np.int64) for shape in empty)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _csr(parts: list, rows: int, targets: int = 1):
    """Raw (row, target..., coeff) terms, with that many target columns,
    summed into CSR rows over range(rows): (indptr, target..., coeff), each
    row's targets in lexicographic order."""
    row, *target, coeff = _joined(parts, *(0,) * (targets + 2))
    (row, *target), coeff = _summed((row, *target), coeff)
    return (np.searchsorted(row, np.arange(rows + 1, dtype=np.int64)), *target, coeff)


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """For the given rows of a CSR table: the entries of all of them, as
    (which row, entry position) arrays."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    which = np.repeat(np.arange(len(rows)), count)
    return which, np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


# -- certificates on integer word arrays ----------------------------------------
#
# is_grouplike and is_lie_element test identities that are homogeneous in
# the coefficients, so they scale them by the lcm of the denominators and
# work on integer numerators, kept per weight beside an int64 array of the
# words' letters.  Each side of an identity becomes (word keys, values)
# terms that must sum to zero (``_vanishes``).  A word of length m is keyed
# by its base-2g rank where (2g)^m < 2**62, and by its letter columns
# otherwise.  Tables are sized with CellTooLarge first, and applied to the
# source words in chunks of at most CellTooLarge.BUDGET entries.


def _chunks(count: int, per: int) -> Iterator[slice]:
    """Slices of count source words that make at most CellTooLarge.BUDGET
    entries at per entries a word (one word at least)."""
    step = max(1, CellTooLarge.BUDGET // max(per, 1))
    return (slice(i, i + step) for i in range(0, count, step))


def _word_keys(rows: np.ndarray, base: int) -> tuple[np.ndarray, ...]:
    """Sort keys of an int64 array of words of one length m, one word a
    row: the base-``base`` rank where base^m < 2**62, else the letter
    columns.  Either way the keys order the words lexicographically."""
    m = rows.shape[1]
    if base**m < _INT64_SAFE:
        return (rows @ base ** np.arange(m - 1, -1, -1, dtype=np.int64),)
    return tuple(rows.T)


def _numerators(t: Tensor) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """(L, {m: (letters (n, m), numerators)}) with L the lcm of the
    denominators of t and numerators L*c (``_exact``), words in t's term
    order."""
    scale = lcm(*{c.denominator for c in t.terms.values()})
    words: dict[int, tuple[list, list]] = {}
    for w, c in t.terms.items():
        ws, cs = words.setdefault(len(w), ([], []))
        ws.append(w)
        cs.append(int(c * scale))
    return scale, {
        m: (np.array(ws, dtype=np.int64).reshape(len(ws), m), _exact(cs))
        for m, (ws, cs) in words.items()
    }


@lru_cache(maxsize=None)
def _split_table(m: int, k: int) -> np.ndarray:
    """(C(m, k), m) letter positions: each k-subset of the positions of a
    weight-m word, ascending (the letters routed left), then the others."""
    table = np.array(
        [left + tuple(j for j in range(m) if j not in left) for left in combinations(range(m), k)],
        dtype=np.int64,
    ).reshape(comb(m, k), m)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _dynkin_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The left bracketing [[..[x_1, x_2], ..], x_m] of a weight-m word as
    (2^(m-1), m) letter positions with signs: bit j-1 of a row sends letter
    j (from 0) to the left of the bracket built so far, with a factor -1,
    so the row reads the letters sent left, last first, then x_1, then the
    others in order."""
    j = np.arange(1, m, dtype=np.int64)
    left = np.arange(1 << (m - 1), dtype=np.int64)[:, None] >> (j - 1) & 1
    first = np.zeros((len(left), 1), dtype=np.int64)
    place = np.concatenate([first, np.where(left, -j, j)], axis=1)
    order, signs = np.argsort(place, axis=1), 1 - 2 * (left.sum(axis=1) & 1)
    order.flags.writeable = signs.flags.writeable = False
    return order, signs


def is_grouplike(s: TruncatedSeries) -> bool:
    """True iff Delta(s) = s (x) s modulo the cutoff.

    Both sides are homogeneous of degree 2 in s, so with L the lcm of the
    denominators and N = L*s integral this compares L*Delta(N) with N (x) N,
    one bidegree block (k, m - k) at a time, a pair (u, v) keyed by the
    word uv: Delta sends each weight-m word to its C(m, k) splits through
    ``_split_table``, and the square is the outer product of the weight-k
    and weight-(m - k) numerators."""
    scale, words = _numerators(s.tensor)
    base = 2 * s.g
    none = (np.zeros((0, 0), dtype=np.int64), _exact([]))
    for m in range(s.cutoff + 1):
        rows, vals = words.get(m, none)
        vals = _product(vals, _exact([scale]))
        for k in range(m + 1):
            if not len(vals) and (k not in words or m - k not in words):
                continue
            (lrows, lvals), (rrows, rvals) = words.get(k, none), words.get(m - k, none)
            delta = _delta_terms(rows, vals, m, k, base)
            square = _square_terms(lrows, lvals, rrows, rvals, base)
            if not _vanishes(chain(delta, square)):
                return False
    return True


def _delta_terms(rows: np.ndarray, vals: np.ndarray, m: int, k: int, base: int):
    """The (k, m - k) block of Delta on the weight-m words with values vals."""
    if not len(rows):
        return
    CellTooLarge.check(f"the split table of weight {m} into ({k}, {m - k})", comb(m, k) * m)
    table = _split_table(m, k)
    for part in _chunks(len(rows), table.size):
        words = rows[part]
        yield (_word_keys(words[:, table].reshape(len(words) * len(table), m), base),
               np.repeat(vals[part], len(table)))


def _square_terms(lrows: np.ndarray, lvals: np.ndarray, rrows: np.ndarray, rvals: np.ndarray,
                  base: int):
    """Minus the outer product of the words and values of two weights."""
    if not len(lrows) or not len(rrows):
        return
    width = lrows.shape[1] + rrows.shape[1]
    for part in _chunks(len(lrows), len(rrows) * width):
        u = lrows[part]
        uv = np.concatenate([np.repeat(u, len(rrows), axis=0), np.tile(rrows, (len(u), 1))], axis=1)
        yield _word_keys(uv, base), -_product(lvals[part][:, None], rvals).ravel()


def is_lie_element(t: Tensor) -> bool:
    """True iff every homogeneous component of t is a Lie element (no
    weight-0 part allowed unless zero).

    By the Dynkin-Specht-Wever criterion a weight-m tensor t is a Lie
    element iff its left bracketing, word by word x_1...x_m ->
    [[..[x_1, x_2], ..], x_m], is m*t.  With N = L*t integral, each word of
    N is taken through the 2^(m-1) position orders and signs of
    ``_dynkin_table`` and the image compared with m*N."""
    if t.coefficient(()) != 0:
        return False
    _, words = _numerators(t)
    base = 2 * t.g
    for m, (rows, vals) in words.items():
        CellTooLarge.check(f"the Dynkin table of weight {m}", m << (m - 1))
        order, signs = _dynkin_table(m)
        image = (
            (_word_keys(rows[part][:, order].reshape(-1, m), base),
             _product(vals[part][:, None], signs).ravel())
            for part in _chunks(len(rows), order.size)
        )
        if not _vanishes(chain(image, [(_word_keys(rows, base), _product(vals, _exact([-m])))])):
            return False
    return True
