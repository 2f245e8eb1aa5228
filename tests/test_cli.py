import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from necklaces import DerivationElem, ParseError, Tensor
from necklaces import words as W
from necklaces.cli import main, parse_element, parse_range, parse_wedge
from necklaces.complexes import ChainVector, WedgeBasis, wedge_basis
from necklaces.lie import algebra

# 2-vectors in the kernel of the bracket contraction, of genus 1 and of genus 2
KERNEL_FILES = {
    "G1": {"g": 1, "p": 2, "w": 4, "terms": [{"wedge": ["a1", "a1 a1 a1"], "coeff": "1"}]},
    "G2": {"g": 2, "p": 2, "w": 4, "terms": [{"wedge": ["a1", "a1 b1 a2"], "coeff": "-1"},
                                             {"wedge": ["a1", "a1 a2 b1"], "coeff": "1"}]},
}


class TestParseElement:
    def test_necklace(self):
        got = parse_element("N(a1 b1)", 1)
        assert got == DerivationElem.necklace(1, (0, 1))

    def test_tensor_two_terms(self):
        got = parse_element("3/2 a1 b1 - a2 a2", 2)
        assert isinstance(got, Tensor)
        assert got.terms == {(0, 1): Fraction(3, 2), (2, 2): -1}

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_element("N(a1 b1", 1)
        assert err.value.position == 8

    def test_bare_coefficient_is_unit(self):
        got = parse_element("2", 1)
        assert got == Tensor.unit(1).scale(2)

    def test_signs_and_sums(self):
        got = parse_element("-N(a1) + 2 N(b1) - 1/3 N(a1 b1)", 1)
        assert got.terms == {(0,): -1, (1,): 2, (0, 1): Fraction(-1, 3)}

    def test_mixing_rejected(self):
        with pytest.raises(ParseError):
            parse_element("N(a1) + a1 b1", 1)

    def test_json_roundtrip(self):
        elem = parse_element("N(a1 b1) - 2 N(a2 a2 b2)", 2)
        assert DerivationElem.from_json_dict(elem.to_json_dict()) == elem

    def test_parse_wedge(self):
        v = parse_wedge("N(a1)^N(b1)", 1)
        assert v.basis is wedge_basis(1, 2, 2)
        assert not v.is_zero()
        v2 = parse_wedge("N(b1)^N(a1)", 1)
        assert v2 == v.scale(-1)

    def test_parse_wedge_ranks_without_the_basis_maps(self, monkeypatch):
        # the parsed pairs are ranked by cell_positions: no basis's monomial
        # list or position dict is read while parsing, whichever ones other
        # tests have built on the shared (cached) bases
        def refuse(basis):
            raise AssertionError("parse_wedge read a basis's monomials or positions")

        with monkeypatch.context() as patch:
            patch.setattr(WedgeBasis, "monomials", property(refuse))
            patch.setattr(WedgeBasis, "position", property(refuse))
            v = parse_wedge("N(a3 b3 a3 b2)^N(a1) - 2 N(a1)^N(b2 a3 b3 a3) + N(a1)^N(b1 a2 a3 b3)", 3)
        basis = wedge_basis(3, 2, 5)
        ctx = algebra(3)
        a1, x, y = (ctx.index_of_word(w) for w in ((0,), (3, 4, 5, 4), (1, 2, 4, 5)))
        assert v == ChainVector.from_terms(basis, [((a1, x), -3), ((a1, y), 1)])

    def test_parse_wedge_matches_its_terms(self):
        # seeded: 2-vectors written out from known terms, with leading
        # signs, int and p/q coefficients, rotated or swapped factors and
        # any spacing, parse to the ChainVector of those terms
        rng = random.Random(2718)
        for _ in range(300):
            g, w = rng.choice((1, 2)), rng.randint(2, 7)
            ctx = algebra(g)
            terms, parts = [], []
            for k in range(rng.randint(1, 4)):
                m = rng.randint(1, w - 1)
                u, v = rng.choice(ctx.basis_words(m)), rng.choice(ctx.basis_words(w - m))
                c = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
                ia, ib = ctx.index_of_word(u), ctx.index_of_word(v)
                if ia != ib:
                    terms.append(((ia, ib), c) if ia < ib else ((ib, ia), -c))
                r = rng.randrange(m)
                left, right = f"N({W.word_name(u[r:] + u[:r])})", f"N({W.word_name(v)})"
                if rng.random() < 0.5:
                    left, right, c = right, left, -c
                sign = "-" if c < 0 else rng.choice(("+", "") if k == 0 else ("+",))
                size = "" if abs(c) == 1 and rng.random() < 0.5 else str(abs(c))
                pad = [rng.choice(("", " ", "  ")) for _ in range(5)]
                parts.append(f"{pad[0]}{sign}{pad[1]}{size}{pad[2]}{left}{pad[3]}^{pad[4]}{right}")
            text = "".join(parts)
            got = parse_wedge(text, g)
            assert got == ChainVector.from_terms(wedge_basis(g, 2, w), terms), text
            assert all(type(c) is Fraction for c in got.coeffs.values()), text

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("foo N(a1)^N(b1)", 1),
            ("2/0 N(a1)^N(b1)", 1),
            ("N(a1)^N(b1)+", 12),
            ("N(a1)^N(c1)", 9),
            ("N(a1)^N(b1)^N(a1)", 12),
            ("N(a1)^", 6),
            ("N(a1) + N(a1)^N(b1)", 1),
            ("1 + + N(a1)^N(b1)", 5),
            ("N(a1 a1)^N(b1) + N(a1)^N(b1)", 18),
        ],
    )
    def test_parse_wedge_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_wedge(text, 1)
        assert err.value.position == offset

    @pytest.mark.parametrize(
        "text, offset",
        [("N(a1) + a1 b1", 9), ("N(a1)^N(b1)", 1), ("1 + + a1", 5), ("N(a1 b1 x1)", 9)],
    )
    def test_parse_element_error_offsets(self, text, offset):
        # a term of the other kind, a wedge, a sign with no term, a letter
        # inside N(...)
        with pytest.raises(ParseError) as err:
            parse_element(text, 1)
        assert err.value.position == offset

    def test_parse_range(self):
        assert parse_range("0..3") == (0, 3)
        assert parse_range("2") == (2, 2)


class TestCliCommands:
    def test_bracket(self, capsys):
        rc = main(["bracket", "--g", "1", "N(a1 a1)", "N(b1)"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["result"]["terms"] == [{"coeff": "2", "necklace": "a1"}]

    def test_cobracket(self, capsys):
        rc = main(["cobracket", "--g", "2", "N(a1 a2 b1 b2)"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(out["result"]["terms"]) == 4

    def test_mu(self, capsys):
        rc = main(["mu", "--g", "1", "a1 a1 b1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["result"]["terms"] == [
            {"coeff": "1", "necklace": "a1", "word": ""}
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cobracket", "--g", "1", "N(a1 b1"],
            ["bracket", "--g", "1", "a1", "N(b1)"],
            ["homology", "--p", "x"],
            ["homology", "--p", "3..1"],
            ["expand", "--degree", "1"],
            ["bracket", "--g", "0", "N(a1)", "N(b1)"],
            ["bracket", "--g", "1", "N(a2)", "N(b1)"],
            ["deform", "--g", "1", "--A", "N(a3)^N(b1)"],
            ["deform", "--g", "1", "--A", "foo N(a1)^N(b1)"],
            ["deform", "--g", "1", "--A", "2/0 N(a1)^N(b1)"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)+"],
            ["homology", "--g", "1", "--mu", "bogus"],
            ["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "0"],
            ["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "-1"],
            ["verify", "--suite", "ce-matrix", "--g", "1", "--w-max", "-1"],
            ["verify", "--suite", "module-matrix", "--g", "1", "--p-max", "-1"],
            ["verify", "--suite", "bimodule", "--g", "1", "--samples", "0"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--w-max", "0", "--check-all"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--w-max", "-1", "--check-all"],
            ["homology", "--g", "1", "--p=-1..1", "--w", "0..2"],
            ["homology", "--g", "1", "--w=-2..2"],
            # --cells and --mod-cells take a JSON list of [p, w] pairs of ints >= 0
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--cells", "notjson", "--check-all"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--cells", "[[1]]", "--check-all"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--cells", "[[-1,2]]", "--check-all"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--cells", "[[true,2]]"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--cells", "{}"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--mod-cells", "[[1,2,3]]", "--check-all"],
            ["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--mod-cells", "[[0,1.5]]", "--check-all"],
            # a deformation element whose genus is not --g (@G1, @G2: files of genus 1 and 2)
            ["cobracket", "--g", "1", "N(a1 b1 a1 b1)", "--delta", "deformed:@G2"],
            ["mu", "--g", "1", "a1 b1 a1 b1", "--mu", "deformed:@G2"],
            ["cobracket", "--g", "2", "N(a1 b1 a2 b2 a1)", "--delta", "deformed:@G1"],
            ["mu", "--g", "2", "a1 b1 a2 b2", "--mu", "deformed:@G1"],
            ["deform", "--g", "1", "--A-file", "@G2", "--check-lemma31"],
            ["deform", "--g", "1", "--A-file", "@G2"],
        ],
    )
    def test_usage_error_exit_2(self, argv, tmp_path, capsys):
        for name, data in KERNEL_FILES.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            argv = [arg.replace(f"@{name}", str(path)) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        # a bad argument has no position; a syntax error names its offset
        (["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "0"],
         "verify needs --w-max >= 1, got 0"),
        (["homology", "--p", "3..1"], "empty range '3..1'"),
        (["deform", "--g", "1", "--A", "N(a1)^N(b1)+"], "dangling sign (at offset 12)"),
    ])
    def test_usage_error_message(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "--module", "--g", "3", "--p", "0..2", "--w", "0..14"],
            ["homology", "--g", "3", "--p", "0..2", "--w", "0..14"],
            ["verify", "--suite", "module-matrix", "--g", "3", "--p-max", "2", "--w-max", "10"],
            # a weight-12 necklace: its 4^12 words are sized before the basis
            ["deform", "--g", "2", "--A", "N(a1 b1 a1 b1 a1 b1 a1 b1 a1 a2 b2 b2)^N(a1)"],
        ],
    )
    def test_cell_too_large_exit_2(self, argv, capsys):
        # the ranges are sized before anything is computed, so the
        # rejection comes at once
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "over the budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, coeff", [("-N(a1)^N(b1)", "-1"), ("+N(a1)^N(b1)", "1"),
                                             ("- 2 N(a1)^N(b1)", "-2")])
    def test_deform_leading_sign(self, text, coeff, capsys):
        assert main(["deform", "--g", "1", f"--A={text}"]) == 0
        assert json.loads(capsys.readouterr().out)["A"]["terms"][0]["coeff"] == coeff

    @pytest.mark.parametrize("flags", [["--delta", "deformed:FILE"],
                                       ["--module", "--mu", "deformed:FILE"]])
    def test_homology_refuses_a_deformed_handle(self, flags, tmp_path, capsys):
        # N(a1 a1)^N(b1) is not in the kernel, so reading it as a cobracket
        # raises NotInN (exit 1); the flag is refused before the file is read
        path = tmp_path / "a.json"
        path.write_text(json.dumps(
            {"g": 1, "p": 2, "w": 3, "terms": [{"coeff": "1", "wedge": ["a1 a1", "b1"]}]}
        ))
        argv = ["homology", "--g", "1", "--p", "0..1", "--w", "0..3"]
        assert main(argv + [f.replace("FILE", str(path)) for f in flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: homology needs --") and "Traceback" not in err

    def test_verify_exit_0(self, capsys):
        rc = main(
            ["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "3",
             "--seed", "5", "--samples", "3"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["ok"] and out["seed"] == 5

    def test_homology_report(self, tmp_path, capsys):
        out_file = tmp_path / "hom.json"
        rc = main(
            ["homology", "--g", "1", "--p", "0..2", "--w", "0..4",
             "--out", str(out_file)]
        )
        assert rc == 0
        rep = json.loads(out_file.read_text())
        assert rep["euler_ok"]
        assert {"cells", "induced", "euler_checks"} <= set(rep)

    def test_deform_check(self, capsys):
        rc = main(["deform", "--g", "1", "--A", "N(a1)^N(b1)", "--check-lemma31"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["homotopy_identity"] and out["invariance"]["ok"]

    def test_deform_long_necklace(self, tmp_path):
        # with weight-3 factors, the weight-8 necklace of this A would need
        # a whole-weight bracket table of weights 3 and 8, over the budget;
        # the identity check splices only the pairs present.  The report is
        # byte for byte the one the per-monomial check gave
        out = tmp_path / "w9.json"
        argv = ["deform", "--g", "2", "--A", "N(a1 b1 a1 b1 a1 b1 a1 a2)^N(a1)", "--check-lemma31"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (
            b'{\n  "A": {\n    "g": 2,\n    "p": 2,\n    "terms": [\n      {\n'
            b'        "coeff": "-1",\n        "wedge": [\n          "a1",\n'
            b'          "a1 b1 a1 b1 a1 b1 a1 a2"\n        ]\n      }\n    ],\n'
            b'    "w": 9\n  },\n  "g": 2,\n  "homotopy_identity": true,\n'
            b'  "in_kernel": false,\n  "invariance": "skipped: A not in the kernel",\n'
            b'  "seed": 0\n}\n'
        )

    def test_expand_and_compare(self, tmp_path, capsys):
        th1 = tmp_path / "t1.json"
        th2 = tmp_path / "t2.json"
        assert main(["expand", "--g", "1", "--degree", "4", "--out", str(th1)]) == 0
        assert main(["expand", "--g", "1", "--degree", "4", "--out", str(th2)]) == 0
        assert th1.read_bytes() == th2.read_bytes()
        rc = main(["compare", str(th1), str(th2)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["u"]["terms"] == []

    def test_compare_inconsistent_exit_1(self, tmp_path, capsys):
        from necklaces.expansion import Expansion

        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        assert main(["expand", "--g", "1", "--degree", "4", "--out", str(good)]) == 0
        bad.write_text(json.dumps(Expansion.naive_exponential(1, 4).to_json_dict()))
        assert main(["compare", str(good), str(bad)]) == 1

    def test_loop(self, tmp_path, capsys):
        th = tmp_path / "t.json"
        assert main(["expand", "--g", "1", "--degree", "4", "--out", str(th)]) == 0
        rc = main(["loop", "--theta", str(th), "--word", "x1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["result"]["terms"][0] == {"coeff": "-1", "necklace": "a1"}

    @pytest.mark.parametrize("word", ["x5", "y1"])
    def test_loop_bad_word_exit_2(self, word, tmp_path, capsys):
        # x5 is outside genus 1; y1 is not a generator at all
        th = tmp_path / "t.json"
        assert main(["expand", "--g", "1", "--degree", "3", "--out", str(th)]) == 0
        capsys.readouterr()
        assert main(["loop", "--theta", str(th), "--word", word]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["loop", "--theta", "FILE", "--word", "x1"], ["compare", "FILE", "FILE"]]
    )
    def test_expansion_file_over_another_genus_exit_2(self, argv, tmp_path, capsys):
        # "g": 2 with genus-1 tensors is refused when the file is read
        th = tmp_path / "t.json"
        assert main(["expand", "--g", "1", "--degree", "3", "--out", str(th)]) == 0
        data = json.loads(th.read_text())
        data["g"] = 2
        data["theta"].update(x3=data["theta"]["x1"], x4=data["theta"]["x2"])
        th.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([a.replace("FILE", str(th)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the series of x1 is over genus 1, not 2")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", ["2", None])  # None: the term is deleted
    @pytest.mark.parametrize(
        "argv",
        [
            ["loop", "--theta", "FILE", "--word", "x1^-1"],
            ["loop", "--theta", "FILE", "--word", "x1 x2"],
            ["compare", "FILE", "FILE"],
        ],
    )
    def test_expansion_file_with_a_bad_weight_0_coefficient_exit_2(self, argv, edit, tmp_path, capsys):
        # a generator series whose empty-word coefficient is not 1 is not an
        # expansion: refused when the file is read, before an inverse is taken
        th = tmp_path / "t.json"
        assert main(["expand", "--g", "1", "--degree", "3", "--out", str(th)]) == 0
        data = json.loads(th.read_text())
        terms = data["theta"]["x1"]["terms"]
        if edit is None:
            terms[:] = [t for t in terms if t["word"]]
        else:
            next(t for t in terms if not t["word"])["coeff"] = edit
        th.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([a.replace("FILE", str(th)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"the series of x1 has weight-0 coefficient {edit or 0}, not 1" in err

    @pytest.mark.parametrize("edit", ["2", None])  # None: the term is deleted
    def test_loop_on_an_expansion_file_that_is_not_normalised_exit_2(self, edit, tmp_path, capsys):
        # theta(x1) must be 1 + a1 modulo weight 2: loop refuses the file,
        # while compare reads it and finds it not symplectic (exit 1)
        th = tmp_path / "t.json"
        assert main(["expand", "--g", "1", "--degree", "3", "--out", str(th)]) == 0
        data = json.loads(th.read_text())
        terms = data["theta"]["x1"]["terms"]
        if edit is None:
            terms[:] = [t for t in terms if t["word"] != "a1"]
        else:
            next(t for t in terms if t["word"] == "a1")["coeff"] = edit
        th.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["loop", "--g", "1", "--theta", str(th), "--word", "x1 x2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {th}: the series of x1 is not normalised: its weight-1 part is not a1\n"
        assert main(["compare", str(th), str(th)]) == 1
        assert "the first expansion is not symplectic" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{}", "not json", None])  # None: a directory
    @pytest.mark.parametrize(
        "argv",
        [
            ["loop", "--theta", "FILE", "--word", "x1"],
            ["compare", "FILE", "FILE"],
            ["deform", "--A-file", "FILE"],
            ["homology", "--delta", "deformed:FILE"],
        ],
    )
    def test_malformed_file_exit_2(self, argv, content, tmp_path, capsys):
        path = tmp_path / "in.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        argv = [a.replace("FILE", str(path)) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("coeff, code", [("1/2", 0), (2, 0), (0.5, 2), (True, 2)])
    def test_a_file_coefficient_types(self, coeff, code, tmp_path, capsys):
        # a JSON coefficient is a string or an int; a float is inexact
        path = tmp_path / "a.json"
        path.write_text(json.dumps(
            {"g": 1, "p": 2, "w": 2, "terms": [{"coeff": coeff, "wedge": ["a1", "b1"]}]}
        ))
        assert main(["deform", "--g", "1", "--A-file", str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("error:") and "Traceback" not in err
        else:
            assert json.loads(out)["A"]["terms"][0]["coeff"] == str(Fraction(coeff))

    def test_table_format(self, capsys):
        rc = main(["bracket", "--g", "1", "--format", "table", "N(a1 a1)", "N(b1)"])
        out = capsys.readouterr().out
        assert rc == 0 and "necklace: a1" in out


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        for args in (
            ["verify", "--suite", "bialgebra", "--g", "1", "--w-max", "3",
             "--seed", "7", "--samples", "4"],
            ["homology", "--g", "1", "--p", "0..2", "--w", "0..4"],
            ["cobracket", "--g", "2", "N(a1 a2 b1 b2)"],
        ):
            a = tmp_path / "a.json"
            b = tmp_path / "b.json"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_subprocess_determinism(self, tmp_path):
        # fresh interpreters (different hash seeds) must agree byte for byte
        outs = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "necklaces.cli", "expand", "--g", "1",
                 "--degree", "4", "--out", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
