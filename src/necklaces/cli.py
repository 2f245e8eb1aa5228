"""Command-line front end.

Subcommands: bracket, cobracket, mu, verify, homology, deform, expand,
compare.  All numeric output is exact ("p/q" strings); reports are JSON
(sorted keys) or a plain table.  Identical arguments and seed produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import words as W
from .complexes import AlgCobracket, AlgComodule, ChainVector, cell_positions, wedge_basis
from .deform import (
    DeformationElement,
    DeformedCobracket,
    DeformedComodule,
    check_cojacobi,
    homotopy_check,
    verify_deformation_invariance,
)
from .errors import CellTooLarge, GenusMismatch, NecklacesError, ParseError
from .expansion import (
    Expansion,
    compare_expansions,
    loop_tensor,
    parse_group_word,
    symplectic_expansion,
)
from .homology import HomologyEngine, homology_report
from .lie import (
    BiDerivationElem,
    DerivationElem,
    TensorDerivElem,
    algebra,
    bracket,
)
from .tensors import Tensor, axpy
from .verify import bialgebra_suite, bimodule_suite, matrix_identity_suite


# -- element grammar ----------------------------------------------------------
#
#   element  := [sign] term { sign term }
#   term     := [coeff] (necklace | word | wedge) | coeff
#   necklace := "N(" letters ")"
#   word     := letters            (space-separated a<i>/b<i>)
#   wedge    := necklace "^" necklace
#   coeff    := integer or p/q
#
# Terms must be all-necklace or all-word; the result is a DerivationElem
# or a Tensor accordingly.  A 2-vector (parse_wedge) has wedge terms only.


def _tokenize(text: str):
    # offsets are 1-based character positions, as reported in errors
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-":
            tokens.append(("sign", ch, i + 1))
            i += 1
        elif ch == "^":
            tokens.append(("wedge", ch, i + 1))
            i += 1
        elif ch == "N" and i + 1 < n and text[i + 1] == "(":
            j = text.find(")", i + 2)
            if j < 0:
                raise ParseError("unclosed 'N('", n + 1)
            tokens.append(("necklace", text[i + 2 : j], i + 1))
            i = j + 1
        elif ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(("number", text[i:j], i + 1))
            i = j
        elif ch in "ab":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"letter {ch!r} needs an index", i + 1)
            tokens.append(("letter", text[i:j], i + 1))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1)
    return tokens


def _necklace_word(token) -> W.WordKey:
    _, text, off = token
    # each letter's offset: the letters start after "N("
    word = tuple(W.parse_letter(m[0], off + 2 + m.start()) for m in re.finditer(r"\S+", text))
    if not word:
        raise ParseError("empty necklace", off)
    return word


def _terms(text: str) -> list:
    """The signed terms of an element, as (coeff, kind, payload, offset):
    kind "necklace" or "word" with a word, or "wedge" with a pair of
    necklace words."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element")
    terms = []
    pos = 0
    sign = 1
    while pos < len(tokens):
        kind, value, off = tokens[pos]
        if kind == "sign":
            sign = 1 if value == "+" else -1
            pos += 1
            if pos >= len(tokens):
                raise ParseError("dangling sign", off)
            kind, value, off = tokens[pos]
        coeff = Fraction(sign)
        if kind == "number":
            try:
                coeff = sign * Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational {value!r}", off) from None
            pos += 1
        if pos < len(tokens) and tokens[pos][0] == "necklace":
            word = _necklace_word(tokens[pos])
            pos += 1
            if pos < len(tokens) and tokens[pos][0] == "wedge":
                if pos + 1 == len(tokens) or tokens[pos + 1][0] != "necklace":
                    raise ParseError("expected N(...) after '^'", tokens[pos][2])
                terms.append((coeff, "wedge", (word, _necklace_word(tokens[pos + 1])), off))
                pos += 2
            else:
                terms.append((coeff, "necklace", word, off))
        elif pos < len(tokens) and tokens[pos][0] == "letter":
            letters = []
            while pos < len(tokens) and tokens[pos][0] == "letter":
                letters.append(W.parse_letter(tokens[pos][1], tokens[pos][2]))
                pos += 1
            terms.append((coeff, "word", tuple(letters), off))
        elif kind == "number":
            # a bare coefficient: the unit word
            terms.append((coeff, "word", (), off))
        else:
            raise ParseError("expected a term", off)
        sign = 1
        if pos < len(tokens) and tokens[pos][0] != "sign":
            raise ParseError("expected '+' or '-' between terms", tokens[pos][2])
    return terms


def parse_element(text: str, g: int):
    """Parse an element of the tensor algebra or of the necklace algebra."""
    terms = _terms(text)
    for _, kind, _, off in terms:
        if kind == "wedge":
            raise ParseError("a wedge N(...)^N(...) is a 2-vector, not an element", off)
        if kind != terms[0][1]:
            raise ParseError("cannot mix necklaces and plain words", off)
    necklaces = terms[0][1] == "necklace"
    acc: dict = {}
    for c, _, wd, _ in terms:
        key = W.canonical_rotation(wd) if necklaces else wd
        acc[key] = acc.get(key, 0) + c
    return DerivationElem(g, acc) if necklaces else Tensor(g, acc)


def parse_wedge(text: str, g: int) -> ChainVector:
    """Parse a 2-vector like 'N(a1)^N(b1) - 2 N(a1 a1)^N(b1 b1)'."""
    ctx = algebra(g)
    raw_terms = []
    weight = None
    for coeff, kind, pair, off in _terms(text):
        if kind != "wedge":
            raise ParseError("expected a wedge N(...)^N(...)", off)
        first, second = (W.canonical_rotation(wd) for wd in pair)
        W.check_letters(first + second, g)
        if weight is None:
            weight = len(first) + len(second)
        elif weight != len(first) + len(second):
            raise ParseError("wedge terms have different total weights", off)
        ia, ib = ctx.index_of_word(first), ctx.index_of_word(second)
        if ia == ib:
            continue
        if ia > ib:
            ia, ib = ib, ia
            coeff = -coeff
        raw_terms.append(((ia, ib), coeff))
    keys = np.array([key for key, _ in raw_terms], dtype=np.int64).reshape(-1, 2)
    coeffs: dict[int, Fraction] = {}
    axpy(coeffs, 1, zip(cell_positions(g, 2, weight, keys).tolist(), (c for _, c in raw_terms)))
    return ChainVector(wedge_basis(g, 2, weight), coeffs)


def parse_range(text: str) -> tuple[int, int]:
    """'lo..hi' or a single 'n', as an inclusive nonempty range."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad range {text!r}; expected 'n' or 'lo..hi'") from None
    if lo > hi:
        raise ParseError(f"empty range {text!r}")
    return lo, hi


# -- handles from flags ----------------------------------------------------------


def _load_json(path: str, loader):
    """loader applied to the JSON object in a file.  A path that cannot be
    read as a file (a directory, say), a file that is not JSON, or one
    whose object lacks a field or holds one of the wrong type, is a usage
    error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path} is not JSON: {exc}") from None
    try:
        return loader(data)
    except (LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ParseError(f"{path} is malformed: {exc.__class__.__name__}: {exc}") from None


def delta_handle_from_flag(flag: str, g: int):
    if flag == "alg":
        return AlgCobracket(g)
    if flag.startswith("deformed:"):
        elem = _load_json(flag.split(":", 1)[1], DeformationElement.from_json_dict)
        return DeformedCobracket(g, [elem])
    raise ParseError(f"bad --delta value {flag!r}")


def mu_handle_from_flag(flag: str, g: int):
    if flag == "alg":
        return AlgComodule(g)
    if flag.startswith("deformed:"):
        elem = _load_json(flag.split(":", 1)[1], DeformationElement.from_json_dict)
        return DeformedComodule(g, [elem])
    raise ParseError(f"bad --mu value {flag!r}")


# -- rendering ---------------------------------------------------------------------


def _emit(data: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_table(data) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(data, indent: str = "") -> str:
    lines = []
    if isinstance(data, dict):
        for key in sorted(data):
            val = data[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                lines.append(_render_table(item, indent + "  "))
                lines.append(indent + "  -")
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{data}")
    return "\n".join(x for x in lines if x.strip())


# -- subcommand implementations ------------------------------------------------------


def _cmd_bracket(args) -> int:
    x = parse_element(args.elements[0], args.g)
    y = parse_element(args.elements[1], args.g)
    if not isinstance(x, DerivationElem) or not isinstance(y, DerivationElem):
        raise ParseError("bracket expects necklace elements N(...)")
    _emit({"op": "bracket", "result": bracket(x, y).to_json_dict()}, args)
    return 0


def _cmd_cobracket(args) -> int:
    x = parse_element(args.element, args.g)
    if not isinstance(x, DerivationElem):
        raise ParseError("cobracket expects a necklace element")
    handle = delta_handle_from_flag(args.delta, args.g)
    acc: dict = {}
    for nw, c in x.terms.items():
        wedge = handle.delta_word(nw)
        axpy(acc, c, wedge.items())
        axpy(acc, -c, (((wb, wa), c2) for (wa, wb), c2 in wedge.items()))
    result = BiDerivationElem(args.g, acc)
    _emit({"op": "cobracket", "delta": args.delta, "result": result.to_json_dict()}, args)
    return 0


def _cmd_mu(args) -> int:
    x = parse_element(args.element, args.g)
    if not isinstance(x, Tensor):
        raise ParseError("mu expects a tensor element (plain words)")
    handle = mu_handle_from_flag(args.mu, args.g)
    acc: dict = {}
    for wd, c in x.terms.items():
        axpy(acc, c, handle.mu_word(wd).items())
    result = TensorDerivElem(args.g, acc)
    _emit({"op": "mu", "mu": args.mu, "result": result.to_json_dict()}, args)
    return 0


def _cmd_verify(args) -> int:
    for flag, value, least in (
        ("--w-max", args.w_max, 1),
        ("--p-max", args.p_max, 0),
        ("--samples", args.samples, 1),
    ):
        if value < least:
            raise ParseError(f"verify needs {flag} >= {least}, got {value}")
    reports = []
    suites = (
        ["bialgebra", "bimodule", "ce-matrix", "module-matrix"]
        if args.suite == "all"
        else [args.suite]
    )
    pmax = args.p_max
    for name in suites:
        if name == "bialgebra":
            reports.append(bialgebra_suite(args.g, args.w_max, args.seed, args.samples))
        elif name == "bimodule":
            reports.append(bimodule_suite(args.g, args.w_max, args.seed, args.samples))
        elif name == "ce-matrix":
            reports.append(matrix_identity_suite(args.g, pmax, args.w_max, module=False))
        elif name == "module-matrix":
            reports.append(matrix_identity_suite(args.g, pmax, args.w_max, module=True))
        else:
            raise ParseError(f"unknown suite {name!r}")
    ok = all(r["ok"] for r in reports)
    _emit({"seed": args.seed, "suites": reports, "ok": ok}, args)
    return 0 if ok else 1


def _cmd_homology(args) -> int:
    p_range, w_range = parse_range(args.p), parse_range(args.w)
    for flag, (lo, _) in (("--p", p_range), ("--w", w_range)):
        if lo < 0:
            raise ParseError(f"homology needs {flag} bounds >= 0, got {lo}")
    # the grading needs the canonical structure maps: a deformed handle is
    # refused before its file is read, and compared via deform instead
    for flag, value in (("--delta", args.delta), ("--mu", args.mu)):
        if value != "alg":
            raise ParseError(f"homology needs {flag} alg, got {value!r}; see deform")
    engine = HomologyEngine(args.g, module=args.module)
    rep = homology_report(engine, p_range, w_range, with_induced=not args.no_induced)
    rep["euler_ok"] = all(e["ok"] for e in rep["euler_checks"])
    _emit(rep, args)
    return 0 if rep["euler_ok"] else 1


def _parse_cells(flag: str, text: str | None, default: list) -> list[tuple[int, int]]:
    """A --cells value: a JSON list of [p, w] pairs of ints >= 0."""
    if not text:
        return default
    try:
        cells = json.loads(text)
    except ValueError:
        cells = None
    if not isinstance(cells, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(v) is int and v >= 0 for v in c)
        for c in cells
    ):
        raise ParseError(f"{flag} needs a JSON list of [p, w] pairs of ints >= 0, got {text!r}")
    return [tuple(c) for c in cells]


def _cmd_deform(args) -> int:
    if args.w_max < 1:
        raise ParseError(f"deform needs --w-max >= 1, got {args.w_max}")
    lie_cells = _parse_cells("--cells", args.cells, [(1, 3), (2, 4)])
    mod_cells = _parse_cells("--mod-cells", args.mod_cells, [])
    if args.A_file:
        a_chain = _load_json(args.A_file, DeformationElement.from_json_dict).chain
        if a_chain.basis.g != args.g:
            raise GenusMismatch(f"--A-file holds a 2-vector of genus {a_chain.basis.g}, not {args.g}")
    elif args.A:
        a_chain = parse_wedge(args.A, args.g)
    else:
        raise ParseError("deform needs --A or --A-file")
    a = DeformationElement(a_chain)
    report: dict = {
        "g": args.g,
        "A": a.to_json_dict(),
        "in_kernel": a.in_n,
        "seed": args.seed,
    }
    if args.check_lemma31 or args.check_all:
        hom_ok = all(homotopy_check(a, p, w) for (p, w) in lie_cells)
        report["homotopy_identity"] = hom_ok
        if not a.in_n:
            report["invariance"] = "skipped: A not in the kernel"
            _emit(report, args)
            return 0 if hom_ok else 1
        delta_handle = DeformedCobracket(args.g, [a])
        report["cojacobi"] = check_cojacobi(delta_handle, args.w_max)
        b = DeformationElement(a.chain.scale(-1))
        inv = verify_deformation_invariance(
            [a],
            [b],
            lie_cells=lie_cells,
            mod_cells=mod_cells,
            check_weight=args.w_max,
            require_cojacobi=False,
        )
        report["invariance"] = inv
        ok = hom_ok and inv["ok"]
        _emit(report, args)
        return 0 if ok else 1
    _emit(report, args)
    return 0


def _cmd_expand(args) -> int:
    if args.degree < 2:
        raise ParseError("expand needs --degree >= 2")
    theta = symplectic_expansion(args.g, args.degree)
    rep = theta.to_json_dict()
    rep["checks"] = {
        "normalization": theta.check_normalization(),
        "grouplike": theta.check_grouplike(),
        "boundary": theta.check_boundary(),
    }
    _emit(rep, args)
    return 0 if all(rep["checks"].values()) else 1


def _cmd_compare(args) -> int:
    th1 = _load_json(args.theta[0], Expansion.from_json_dict)
    th2 = _load_json(args.theta[1], Expansion.from_json_dict)
    u = compare_expansions(th1, th2)
    _emit({"op": "compare", "u": u.to_json_dict()}, args)
    return 0


def _cmd_loop(args) -> int:
    theta = _load_json(args.theta, Expansion.from_json_dict)
    bad = theta.unnormalized()  # a loop is read through a normalised expansion only
    if bad is not None:
        raise ParseError(f"{args.theta}: the series of x{bad + 1} is not normalised: "
                         f"its weight-1 part is not {W.letter_name(bad)}")
    try:
        word = parse_group_word(args.word)
    except ValueError as exc:
        raise ParseError(f"--word: {exc}") from None
    _emit({"op": "loop", "word": args.word, "result": loop_tensor(theta, word).to_json_dict()}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="necklaces",
        description=(
            "Exact computations in the necklace Lie bialgebra of symplectic "
            "derivations: brackets, cobrackets, weight-graded homology, "
            "coboundary deformations, symplectic expansions."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--g", type=int, default=1, help="genus (>= 1)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if out:
            p.add_argument("--out", help="write the report to this file")

    p = sub.add_parser("bracket", help="Lie bracket of two necklace elements")
    common(p)
    p.add_argument("elements", nargs=2, help="e.g. 'N(a1 a1)' 'N(b1)'")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("cobracket", help="cobracket of a necklace element")
    common(p)
    p.add_argument("element")
    p.add_argument("--delta", default="alg", help="alg or deformed:<file>")
    p.set_defaults(func=_cmd_cobracket)

    p = sub.add_parser("mu", help="comodule splitting of a tensor element")
    common(p)
    p.add_argument("element")
    p.add_argument("--mu", default="alg", help="alg or deformed:<file>")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("verify", help="run an identity suite")
    common(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=("bialgebra", "bimodule", "ce-matrix", "module-matrix", "all"),
    )
    p.add_argument("--w-max", type=int, default=6)
    p.add_argument("--p-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("homology", help="weight-graded homology report")
    common(p)
    p.add_argument("--p", default="0..3", help="chain degree range, e.g. 0..3")
    p.add_argument("--w", default="0..6", help="weight range, e.g. 0..6")
    p.add_argument("--delta", default="alg")
    p.add_argument("--mu", default="alg")
    p.add_argument("--module", action="store_true", help="coefficients in the tensor algebra")
    p.add_argument("--no-induced", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("deform", help="deformation checks for a 2-vector")
    common(p)
    p.add_argument("--A", help="wedge element, e.g. 'N(a1)^N(b1)'")
    p.add_argument("--A-file", help="JSON file with the 2-vector")
    p.add_argument("--cells", help="JSON list of [p,w] cells")
    p.add_argument("--mod-cells", help="JSON list of module [p,w] cells")
    p.add_argument("--w-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-lemma31", action="store_true",
                   help="homotopy identity + induced-map invariance")
    p.add_argument("--check-all", action="store_true")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("expand", help="construct a symplectic expansion")
    common(p)
    p.add_argument("--degree", type=int, required=True, help="weight cutoff D >= 2")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("compare", help="change-of-expansion derivation")
    common(p)
    p.add_argument("theta", nargs=2, help="two expansion JSON files")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("loop", help="cyclic invariant of a free-group word")
    common(p)
    p.add_argument("--theta", required=True, help="expansion JSON file")
    p.add_argument("--word", required=True, help="e.g. 'x1 x2^-1'")
    p.set_defaults(func=_cmd_loop)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.g < 1:
            raise ParseError(f"--g must be >= 1, got {args.g}")
        return args.func(args)
    except (ParseError, FileNotFoundError, GenusMismatch, CellTooLarge) as exc:
        # a letter outside the alphabet of --g, or a range with a cell over
        # the size budget, is bad input too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NecklacesError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
