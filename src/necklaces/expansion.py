"""Free-group words, expansions into truncated series, and the
order-by-order construction of symplectic expansions.

The fundamental group of a once-punctured genus-g surface is free on 2g
generators x_1, ..., x_{2g}; generator x_{2i-1} abelianizes to a_i and
x_{2i} to b_i.  An expansion assigns each generator a group-like series
1 + [x] + (higher weight); a symplectic expansion additionally sends the
boundary word, the product of commutators

    zeta = prod_i  x_{2i-1} x_{2i} x_{2i-1}^{-1} x_{2i}^{-1},

to exp(omega) modulo the cutoff.

The solver keeps theta(x) = exp(l_x) with l_x a certified Lie element, so
group-likeness is automatic, and repairs the boundary condition degree by
degree: the weight-(n+1) discrepancy of log theta(zeta) - omega moves
exactly by sum_i ([v_i^a, b_i] + [a_i, v_i^b]) when the weight-n Lie
corrections v are added to the logs, and that linear map is onto because
brackets of letters against weight-n Lie elements span weight n+1.  The
correction system is solved over the Lyndon basis with free variables
pinned to zero, so the output is deterministic.  Its columns are formed by
rank arithmetic on the integer word arrays of the basis, and the final
Lie check of the logs is the integer Dynkin certificate of
``tensors.is_lie_element``.

The correction system splits by letter content (the fine grading of the
free Lie algebra): column (l, i) has the content of its Lyndon word plus
the partner letter of l, and only the columns whose content is that of a
defect word are built and solved; the other entries of the solution are
0, which is what pinning the free variables gives on a homogeneous block.

Each block is solved on its Lyndon-word rows only.  The columns are Lie
elements of weight n + 1, and the standard-bracketed Lyndon basis is
unitriangular on the Lyndon words, P_l = l + (larger words) (Reutenauer,
*Free Lie Algebras*, 1993, Thm 5.1), so a Lie element is fixed by its
coefficients on the Lyndon words: projecting onto them is injective on
weight n + 1.  The projected columns therefore have the same
dependencies and the same free columns, and a solution of the whole
system solves the projection, whose solution with those columns pinned
is unique: the pinned solution is the same.  The candidate is checked on
every row of the whole system.  Where that fails, the whole system has
no solution (it would have been the candidate), and the answer is None,
as the whole solve gives; that is the case of a defect that is not a
Lie element.  At g = 2, D = 8 the last system goes from 12,560 word rows
to 1,570, its rank.

The series arithmetic of the defect runs on the one integer-numerator
pair loop of ``tensors``: ``exp_series``, ``log_series`` and
``inverse_series`` are each one nested Horner pass whose depth-k factor
is formed modulo weight > D - k, and ``evaluate`` multiplies the
generator series of a word on numerators over one running denominator;
each term of a result becomes a Fraction once.

Step n needs only the weight-(n+1) part of the defect, so it computes the
defect modulo weight > n + 1.  That is exact: truncation modulo weight > d
is a ring map, and it commutes with exp, log and the inverse (each a
power series in a series without weight-0 term), since none of them lets
a term of weight > d reach weight <= d.  Only the returned expansion is
built at the full cutoff.
"""

from math import lcm

import numpy as np

from . import words as W
from .errors import (
    CellTooLarge, GenusMismatch, InconsistentExpansions, NotCyclic, PrecisionError, SolveFailed,
)
from .lie import DerivationElem, exp_derivation, necklace_normal_form
from .linalg import solve_columns
from .tensors import (
    Tensor,
    TruncatedSeries,
    _chunks,
    _exact,
    _folded,
    _product,
    _series_product,
    _vanishes,
    _word_keys,
    axpy,
    coeff_str,
    exp_series,
    inverse_series,
    is_grouplike,
    is_lie_element,
    log_series,
    omega,
)

GroupWord = tuple[int, ...]  # nonzero ints: +k is x_k, -k its inverse (1-based)


def free_reduce(letters) -> GroupWord:
    """Cancel adjacent inverse pairs."""
    out: list[int] = []
    for s in letters:
        if s == 0:
            raise ValueError("0 is not a generator")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def group_mul(a: GroupWord, b: GroupWord) -> GroupWord:
    return free_reduce(a + b)


def group_inverse(a: GroupWord) -> GroupWord:
    return tuple(-s for s in reversed(a))


def generator_letter(signed: int) -> int:
    """Letter code of a signed generator: x_k abelianizes to letter k-1."""
    return abs(signed) - 1


def group_word_name(w: GroupWord) -> str:
    if not w:
        return "1"
    return " ".join(f"x{abs(s)}" + ("^-1" if s < 0 else "") for s in w)


def parse_group_word(text: str) -> GroupWord:
    text = text.strip()
    if not text or text == "1":
        return ()
    out = []
    for tok in text.split():
        neg = tok.endswith("^-1")
        core = tok[:-3] if neg else tok
        if not core.startswith("x") or not core[1:].isdigit() or int(core[1:]) < 1:
            raise ValueError(f"bad group generator {tok!r}")
        k = int(core[1:])
        out.append(-k if neg else k)
    return free_reduce(out)


def abelianization(w: GroupWord, g: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for s in w:
        l = generator_letter(s)
        W.check_letters((l,), g)
        out[l] = out.get(l, 0) + (1 if s > 0 else -1)
    return {k: v for k, v in out.items() if v}


def boundary_word(g: int) -> GroupWord:
    """The boundary commutator word: product over i of
    x_{2i-1} x_{2i} x_{2i-1}^{-1} x_{2i}^{-1}; its abelianization is
    trivial and the degree-2 log of the naive exponential expansion of it
    is exactly the symplectic form (the sign convention matching the
    a_i . b_i = +1 pairing)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    out: list[int] = []
    for i in range(1, g + 1):
        out.extend((2 * i - 1, 2 * i, -(2 * i - 1), -(2 * i)))
    return free_reduce(out)


# -- expansions -------------------------------------------------------------


class Expansion:
    """Assignment of a truncated group-like series to each free-group
    generator; evaluation extends it multiplicatively, the inverse of a
    generator's series being the geometric series in one nested Horner
    pass (``inverse_series``), and multiplies the series of a word on
    integer numerators over one running denominator.  Each series must be
    over the genus g (GenusMismatch otherwise), known to the cutoff
    (PrecisionError otherwise), and have weight-0 coefficient 1
    (ValueError otherwise)."""

    def __init__(self, g: int, cutoff: int, series: dict[int, TruncatedSeries]):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.g = g
        self.cutoff = cutoff
        if set(series) != set(range(2 * g)):
            raise ValueError("need a series for each of the 2g generators")
        for l, s in sorted(series.items()):
            if s.g != g:
                raise GenusMismatch(f"the series of x{l + 1} is over genus {s.g}, not {g}")
            if s.cutoff < cutoff:
                raise PrecisionError(f"the series of x{l + 1} is known to weight {s.cutoff}, "
                                     f"below the cutoff {cutoff}")
            if s.weight_zero_coeff() != 1:
                raise ValueError(f"the series of x{l + 1} has weight-0 coefficient "
                                 f"{coeff_str(s.weight_zero_coeff())}, not 1")
        self.series = {l: TruncatedSeries(s.tensor, cutoff) for l, s in series.items()}
        self._inverses: dict[int, TruncatedSeries] = {}

    @classmethod
    def naive_exponential(cls, g: int, cutoff: int) -> "Expansion":
        """theta_0(x) = exp([x]); symplectic only through weight 2."""
        return cls(
            g,
            cutoff,
            {
                l: exp_series(TruncatedSeries(Tensor.letter(g, l), cutoff))
                for l in range(2 * g)
            },
        )

    def generator_series(self, signed: int) -> TruncatedSeries:
        l = generator_letter(signed)
        if l >= 2 * self.g:
            raise GenusMismatch(f"generator x{abs(signed)} does not exist at genus {self.g}")
        if signed > 0:
            return self.series[l]
        inv = self._inverses.get(l)
        if inv is None:
            inv = inverse_series(self.series[l])
            self._inverses[l] = inv
        return inv

    def evaluate(self, word: GroupWord) -> TruncatedSeries:
        return _series_product(self.g, self.cutoff, map(self.generator_series, free_reduce(word)))

    # -- the defining conditions -------------------------------------------

    def check_normalization(self) -> bool:
        """theta(x) = 1 + [x] modulo weight >= 2, for every generator (the
        weight-0 coefficient 1 is checked when the expansion is made)."""
        return self.unnormalized() is None

    def unnormalized(self) -> int | None:
        """The letter of the first generator whose series has a weight-1
        part other than its letter, or None if there is none."""
        for l, s in sorted(self.series.items()):
            if s.tensor.component(1) != Tensor.letter(self.g, l):
                return l
        return None

    def check_grouplike(self) -> bool:
        return all(is_grouplike(s) for s in self.series.values())

    def boundary_log_defect(self) -> Tensor:
        """log theta(zeta) - omega modulo the cutoff; zero iff the
        boundary condition holds."""
        zeta = boundary_word(self.g)
        lg = log_series(self.evaluate(zeta))
        return lg.tensor - omega(self.g).truncate(self.cutoff)

    def check_boundary(self) -> bool:
        return self.boundary_log_defect().is_zero()

    def is_symplectic(self) -> bool:
        return (
            self.check_normalization()
            and self.check_grouplike()
            and self.check_boundary()
        )

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "D": self.cutoff,
            "theta": {
                f"x{l + 1}": self.series[l].tensor.to_json_dict()
                for l in range(2 * self.g)
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Expansion":
        g = int(data["g"])
        cutoff = int(data["D"])
        series = {}
        for l in range(2 * g):
            t = Tensor.from_json_dict(data["theta"][f"x{l + 1}"])
            series[l] = TruncatedSeries(t, cutoff)
        return cls(g, cutoff, series)

    def __repr__(self) -> str:
        return f"Expansion(g={self.g}, D={self.cutoff})"


# -- free Lie algebra bases ---------------------------------------------------


def lyndon_words(alphabet: int, n: int) -> list[tuple[int, ...]]:
    """Lyndon words of length exactly n over 0..alphabet-1 (Duval)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append(tuple(w))
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == alphabet - 1:
            w.pop()
    return [t for t in out if len(t) == n]


def _lyndon_factorize(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Standard factorization of a Lyndon word: split off the longest
    proper Lyndon suffix (a word is Lyndon iff it is strictly smaller than
    every proper suffix, so the first qualifying split point wins)."""
    n = len(word)
    for i in range(1, n):
        suf = word[i:]
        if all(suf < suf[j:] for j in range(1, len(suf))):
            return word[:i], suf
    raise ValueError(f"{word!r} is not a bracketable Lyndon word")


def lyndon_bracket_tensor(g: int, word: tuple[int, ...]) -> Tensor:
    """The right-bracketed Lie element of a Lyndon word, as a tensor."""
    return _lyndon_bracket(g, word, {})


def _lyndon_bracket(g: int, word: tuple[int, ...], memo: dict) -> Tensor:
    """``lyndon_bracket_tensor``, with the brackets of Lyndon subwords kept
    in memo."""
    t = memo.get(word)
    if t is None:
        if len(word) == 1:
            t = Tensor.letter(g, word[0])
        else:
            u, v = _lyndon_factorize(word)
            a, b = _lyndon_bracket(g, u, memo), _lyndon_bracket(g, v, memo)
            t = a * b - b * a
        memo[word] = t
    return t


def lie_basis(g: int, n: int) -> list[Tensor]:
    """Lyndon-word basis of the weight-n part of the free Lie algebra on
    the 2g letters, expanded into tensors; every element passes the
    left-bracketing (Dynkin) certificate.  A sub-bracket shared by several
    Lyndon words is expanded once per call."""
    if n < 1:
        raise ValueError("weight must be >= 1")
    memo: dict = {}
    return [_lyndon_bracket(g, w, memo) for w in lyndon_words(2 * g, n)]


def symplectic_lie_derivations(g: int, weight: int) -> list[DerivationElem]:
    """Basis of the weight-homogeneous symplectic derivations whose action
    on letters is Lie-element valued.

    Such derivations correspond to kernel vectors of the bracketing map
    from (letter, Lie element) pairs: sum c_(x,h) [x, h] = 0 forces the
    tensor sum c_(x,h) x.h to be a cyclic invariant, i.e. a necklace
    derivation, and its action Y -> sum c (x.Y) h lands in the free Lie
    algebra.  exp of these maps symplectic expansions to symplectic
    expansions (group-likeness survives because primitives go to
    primitives), so they are the valid change-of-expansion perturbations.
    The cyclicizer kills every bracket, so naive cyclicized Lie elements
    would all vanish; this kernel construction is the right one."""
    from .linalg import SparseRationalMatrix, kernel_basis

    if weight < 3:
        return []
    basis = lie_basis(g, weight - 1)
    pairs = [(x, h) for x in range(2 * g) for h in basis]
    columns = []
    keys: dict = {}
    for x, h in pairs:
        xt = Tensor.letter(g, x)
        col_tensor = xt * h - h * xt
        col = {}
        for wd, c in col_tensor.terms.items():
            idx = keys.setdefault(wd, len(keys))
            col[idx] = c
        columns.append(col)
    mat = SparseRationalMatrix(len(keys), len(columns), columns)
    out = []
    for vec in kernel_basis(mat):
        raw = Tensor.zero(g)
        for j, c in vec.items():
            x, h = pairs[j]
            raw = raw + (Tensor.letter(g, x) * h).scale(c)
        u = necklace_normal_form(raw)
        if not u.is_zero():
            out.append(u)
    return out


def lie_dimension(g: int, n: int) -> int:
    """Necklace-style Witt formula via Moebius inversion."""

    def moebius(n: int) -> int:
        if n == 1:
            return 1
        out = 1
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += moebius(d) * (2 * g) ** (n // d)
    return total // n


# -- the solver ----------------------------------------------------------------


def symplectic_expansion(g: int, cutoff: int) -> Expansion:
    """Construct a symplectic expansion at the given cutoff.

    Maintains theta(x) = exp(l_x) with l_x a Lie element (so group-likeness
    is structural) and cancels the boundary defect weight by weight; the
    correction system is always solvable, so a SolveFailed here indicates
    an implementation bug, not bad input.

    Step n builds theta and the defect modulo weight > n + 1, which gives
    the exact weight-(n+1) defect (see the module docstring), so the
    correction systems are those of the full cutoff; theta is built at the
    full cutoff once, from the final logs."""
    if cutoff < 2:
        raise ValueError("a symplectic expansion needs cutoff >= 2")
    logs: dict[int, Tensor] = {l: Tensor.letter(g, l) for l in range(2 * g)}

    def build(d: int) -> Expansion:
        return Expansion(
            g, d, {l: exp_series(TruncatedSeries(logs[l], d)) for l in range(2 * g)}
        )

    for n in range(2, cutoff):
        defect = build(n + 1).boundary_log_defect().component(n + 1)
        if not defect.is_zero():
            _correct_logs(g, n, logs, defect)
    return build(cutoff)


def _correct_logs(g: int, n: int, logs: dict[int, Tensor], defect: Tensor) -> None:
    """Add to logs the weight-n Lie corrections that cancel the weight-(n+1)
    boundary defect; the solution (``_correction``) pins free variables to
    zero and is solved over only the letter-content blocks that the defect
    touches."""
    basis = lie_basis(g, n)
    dim = len(basis)
    sol = _correction(g, n, basis, defect)
    if sol is None:
        raise SolveFailed(
            f"no weight-{n} correction cancels the weight-{n + 1} defect"
        )
    for l in range(2 * g):
        terms = dict(logs[l].terms)
        for i, h in enumerate(basis):
            c = sol[l * dim + i]
            if c != 0:
                axpy(terms, c, h.terms.items())
        logs[l] = logs[l]._like(terms)
    for l in range(2 * g):
        if not is_lie_element(logs[l]):
            raise SolveFailed("correction left a non-Lie log; internal bug")


def _correction(g: int, n: int, basis: list[Tensor], defect: Tensor) -> list | None:
    """The solution x of sum x_(l, i) * column (l, i) = -defect whose free
    variables are 0, entry l*dim + i for column (l, i); None if there is
    none.  Nonzero entries are Fractions, the rest int 0.

    Column (l, i) is [v_i, b] for a generator a (l even) and [a, v_i] for a
    generator b (l odd), where v_i is the i-th Lyndon basis element and
    b, a the partner letter p = l ^ 1: a word of v_i of rank r gives the
    words v.p and p.v, of ranks r*2g + p and p*(2g)^n + r.  They are formed
    from the integer terms of the basis in one array, summed per column,
    and numbered as rows in word order together with the defect's words.

    Every word of v_i has the letter content of the Lyndon word of v_i (a
    term that does not raises SolveFailed), so every entry of column (l, i)
    has the content content(v_i) + e_p.  The system is therefore a direct
    sum of blocks, one per content, and only the columns whose content is
    that of a defect word are built and solved, in their order.  That is
    exact: a column is free iff it depends on the columns of its block
    before it, and a block that no defect word touches is homogeneous, so
    with its free variables pinned its solution is 0.

    The rows kept are the words that are Lyndon (``_lyndon``), numbered in
    word order, and ``solve_columns`` runs once on them.  The columns are
    Lie elements, and a Lie element is fixed by its coefficients on the
    Lyndon words, since the Lyndon basis is unitriangular on them (P_l = l
    + larger words).  So the kept rows give the columns the same
    dependencies and the same free columns, and a solution of the whole
    system, which solves the kept rows, is the one pinned solution found.
    The candidate is certified on every row of the whole system
    (``_solves``); if that fails, the whole system has no solution either,
    and the answer is None."""
    base, dim = 2 * g, len(basis)
    elt, words, coeffs = [], [], []
    for i, h in enumerate(basis):
        for w, c in h.terms.items():
            elt.append(i)
            words.append(w)
            coeffs.append(c)
    elt, rows, coeff = np.array(elt, dtype=np.int64), np.array(words, dtype=np.int64), _exact(coeffs)
    label = _content(np.array(lyndon_words(base, n), dtype=np.int64).reshape(dim, n), base)
    if (_content(rows, base) != label[elt]).any():
        raise SolveFailed(f"a weight-{n} Lie basis term is outside its Lyndon word's letter content")
    dwords = np.array(list(defect.terms), dtype=np.int64).reshape(len(defect.terms), n + 1)
    partner = np.eye(base, dtype=np.int64)[np.arange(base) ^ 1]
    content = (label[None, :, :] + partner[:, None, :]).reshape(base * dim, base)
    touched = np.flatnonzero(_touched(content, _content(dwords, base)))
    number = np.full(base * dim, -1, dtype=np.int64)
    number[touched] = np.arange(len(touched))
    per = 2 * base * (n + 1)  # the words v.p and p.v for every generator
    CellTooLarge.check(f"the correction columns of one weight-{n} word (genus {g})", per)
    (col, *keys), vals = _folded(
        _bracket_terms(elt[part], rows[part], coeff[part], number, base)
        for part in _chunks(len(elt), per)
    )
    words = [np.concatenate(pair) for pair in zip(keys, _word_keys(dwords, base))]
    if len(words) == 1:  # ranks
        distinct, row = np.unique(words[0], return_inverse=True)
        distinct = (distinct,)
    else:  # letter columns: the rows of their stack
        distinct, row = np.unique(np.stack(words, axis=1), axis=0, return_inverse=True)
        distinct = tuple(distinct.T)
    row = row.reshape(-1)
    lyndon = _lyndon(distinct, base, n + 1)
    kept = (np.cumsum(lyndon) - 1)[row]  # the Lyndon rows numbered in word order
    entry, dentry = np.flatnonzero(lyndon[row[:len(col)]]), np.flatnonzero(lyndon[row[len(col):]])
    ends = np.searchsorted(col[entry], np.arange(len(touched) + 1)).tolist()
    krow, kval = kept[entry].tolist(), vals[entry].tolist()
    columns = [dict(zip(krow[a:b], kval[a:b])) for a, b in zip(ends, ends[1:])]
    dcoeffs = list(defect.terms.values())
    target = dict(zip(kept[len(col) + dentry].tolist(), (-dcoeffs[i] for i in dentry.tolist())))
    sol = solve_columns(columns, target)
    if sol is None or not _solves(sol, col, row, vals, dcoeffs):
        return None
    x: list = [0] * (base * dim)
    for j, c in zip(touched.tolist(), sol):
        x[j] = c
    return x


def _lyndon(keys: tuple[np.ndarray, ...], base: int, m: int) -> np.ndarray:
    """Whether each word of length m, given by its keys (``_word_keys``:
    one rank column, or m letter columns), is a Lyndon word: strictly less
    than each of its proper rotations.  A rank is rotated as in
    ``NecklaceContext._enumerate``; letter columns are compared
    lexicographically, at the first letter where the rotation differs."""
    if len(keys) == 1:
        rank = keys[0]
        out, rot, top = np.ones(len(rank), dtype=bool), rank, base ** (m - 1)
        for _ in range(m - 1):
            rot = rot % top * base + rot // top  # the first letter moved to the end
            out &= rank < rot
        return out
    letters = np.stack(keys, axis=1)
    out, at = np.ones(len(letters), dtype=bool), np.arange(len(letters))
    for k in range(1, m):
        rot = np.roll(letters, -k, axis=1)
        first = (letters != rot).argmax(axis=1)  # 0 where the rotation is the word
        out &= letters[at, first] < rot[at, first]
    return out


def _solves(sol: list, col: np.ndarray, row: np.ndarray, vals: np.ndarray, dcoeffs: list) -> bool:
    """Whether sum_j sol[j] * column j + defect is 0 on every row of the
    whole system: the entries (col, row, vals) of the columns, then the
    defect coefficients on the rows row[len(col):], read on integer
    numerators over the lcm of all denominators.  Only the columns with
    sol[j] != 0 are read."""
    scale = lcm(*(c.denominator for c in sol), *(c.denominator for c in dcoeffs))
    xs = _exact(int(c * scale) for c in sol)
    pick = np.flatnonzero(xs[col] != 0)
    terms = _product(xs[col[pick]], vals[pick])
    dterms = _exact(int(c * scale) for c in dcoeffs)
    return _vanishes([((np.concatenate([row[pick], row[len(col):]]),),
                       np.concatenate([terms, dterms]))])


def _content(words: np.ndarray, base: int) -> np.ndarray:
    """The letter content of each row of an int64 array of words: its
    count of each of the base letters, one row per word."""
    return (words[:, :, None] == np.arange(base)).sum(axis=1)


def _touched(columns: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Whether each column's letter content (a row of ``columns``) is the
    content of a defect word (a row of ``defect``)."""
    ids = np.unique(np.concatenate([columns, defect]), axis=0, return_inverse=True)[1].reshape(-1)
    return np.isin(ids[:len(columns)], ids[len(columns):])


def _bracket_terms(elt: np.ndarray, rows: np.ndarray, coeff: np.ndarray, number: np.ndarray,
                   base: int):
    """(column, word key...) key columns and values of the column entries
    that the basis terms (element, letters, coeff) make for every
    generator l whose column (l, element) is built: +-c on the word v.p and
    -+c on p.v, p = l ^ 1.  Column l*dim + i is numbered number[l*dim + i],
    and not built where that is -1."""
    dim = len(number) // base
    gens = np.repeat(np.arange(base, dtype=np.int64), len(elt))
    col = number[gens * dim + np.tile(elt, base)]
    pick = np.flatnonzero(col >= 0)
    gens, col, src = gens[pick], col[pick], pick % len(elt)
    partner = (gens ^ 1)[:, None]
    words = rows[src]
    vals = coeff[src] * (1 - 2 * (gens & 1))
    keys = _word_keys(np.concatenate([
        np.concatenate([words, partner], axis=1), np.concatenate([partner, words], axis=1),
    ]), base)
    return (np.concatenate([col, col]), *keys), np.concatenate([vals, -vals])


# -- comparison and the loop map ------------------------------------------------


def compare_expansions(theta: Expansion, theta2: Expansion) -> DerivationElem:
    """The change-of-expansion derivation u, with components of weight
    3..cutoff+1, such that exp(D_u) theta = theta2 modulo the cutoff.

    Both inputs must be symplectic at a common cutoff; raises
    InconsistentExpansions when no such u exists within the cutoff."""
    if theta.g != theta2.g:
        raise InconsistentExpansions("different genus")
    g = theta.g
    cutoff = min(theta.cutoff, theta2.cutoff)
    for name, ok in (("first", theta.is_symplectic()), ("second", theta2.is_symplectic())):
        if not ok:
            raise InconsistentExpansions(f"the {name} expansion is not symplectic")
    u = DerivationElem.zero(g)

    def moved() -> list[Tensor]:  # exp(D_u) theta, recomputed only when u changes
        return [exp_derivation(u, theta.series[l].tensor, cutoff) for l in range(2 * g)]

    cur = moved()
    for m in range(2, cutoff + 1):
        diffs = {}
        for l in range(2 * g):
            d = theta2.series[l].tensor - cur[l]
            low = d.truncate(m - 1)
            if not low.is_zero():
                raise InconsistentExpansions(
                    f"discrepancy below weight {m} on generator x{l + 1}"
                )
            diffs[l] = d.component(m)
        if all(d.is_zero() for d in diffs.values()):
            continue
        # reconstruct the weight-(m+1) component of u from its action on
        # letters: u = sum_i a_i (x) phi(b_i) - b_i (x) phi(a_i)
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
        cur = moved()
    for l in range(2 * g):
        if cur[l] != theta2.series[l].tensor:
            raise InconsistentExpansions("residual discrepancy at the cutoff")
    return u


def loop_tensor(theta: Expansion, word: GroupWord) -> DerivationElem:
    """The cyclic invariant -N(theta(word)) in necklace coordinates,
    truncated at the cutoff; conjugation-invariant in the group word."""
    series = theta.evaluate(word)
    acc: dict[W.WordKey, object] = {}
    for wd, c in series.tensor.terms.items():
        if not wd:
            continue
        key = W.canonical_rotation(wd)
        acc[key] = acc.get(key, 0) - c
    return DerivationElem(theta.g, acc)
