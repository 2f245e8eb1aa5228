"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "necklaces"


def test_no_assert_statements():
    # python -O strips assert statements, so a guard must raise instead:
    # no module anywhere under src/ has one
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_public_names_import():
    import necklaces

    missing = [name for name in necklaces.__all__ if not hasattr(necklaces, name)]
    assert not missing, f"names in necklaces.__all__ that do not resolve: {missing}"
    assert len(set(necklaces.__all__)) == len(necklaces.__all__)


def test_only_linalg_imports_scipy():
    # int_csc, with its value guard, is then the one way into scipy's
    # int64 matrices
    found = sorted(
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    )
    assert found == ["linalg.py"], f"modules that import scipy: {found}"


def test_cell_operators_emit_no_monomial():
    # the operator matrices are built from tables by array arithmetic: no
    # method of CellOperators goes through the per-monomial emitters or
    # looks a monomial up in a materialised basis
    tree = ast.parse((SRC / "complexes.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CellOperators"]
    found = []
    for node in ast.walk(cls):
        name = getattr(node, "id", getattr(node, "attr", None))
        if name in ("boundary_monomial", "cochain_monomial"):
            found.append(f"{name} at line {node.lineno}")
        call = node.value if isinstance(node, ast.Attribute) and node.attr == "position" else None
        if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == "wedge_basis":
            found.append(f"wedge_basis(...).position at line {node.lineno}")
    assert not found, f"per-monomial emission in CellOperators: {found}"


def test_identity_checks_emit_no_monomial():
    # homotopy_check, mod_homotopy_check and every function, method or
    # constructor of deform.py that they reach by name work on arrays of
    # tuples: none of them names a per-monomial emitter or the bracket memo
    tree = ast.parse((SRC / "deform.py").read_text(encoding="utf-8"))
    defs: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.ClassDef):
            defs.setdefault(node.name, []).extend(
                n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    forbidden = {"boundary_monomial", "cochain_monomial", "mod_boundary_monomial", "_insert2",
                 "bracket_idx"}
    seen, todo, found = set(), ["homotopy_check", "mod_homotopy_check"], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in defs.get(name, ()):
            for node in ast.walk(fn):
                ref = getattr(node, "id", getattr(node, "attr", None))
                if ref in forbidden:
                    found.append(f"{ref} in {name} at line {node.lineno}")
                elif ref in defs:
                    todo.append(ref)
    assert {"_wedge_into", "sigma_csr", "_gamma_terms",
            "DeformationElement", "nabla_contract_chain"} <= seen
    assert not found, f"per-monomial emission in the identity checks: {found}"


def test_deform_has_one_bracket_source():
    # every bracket of the identity checks comes from
    # NecklaceContext.brackets, and the deformed handles give their values
    # without a per-piece list: deform.py defines no bracket source of its
    # own and no pieces()
    gone = {"_bracket_source", "brackets", "pieces"}
    found = [
        f"{node.name} at line {node.lineno}"
        for node in ast.walk(ast.parse((SRC / "deform.py").read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone
    ]
    assert not found, f"removed bracket sources or piece lists in deform.py: {found}"


def test_homology_has_one_rank_path():
    # every boundary rank, Lie or module, is a sum of block ranks:
    # homology.py defines no whole-matrix rank bound, and boundary_rank
    # neither forks on the engine kind nor reads a cached echelon form
    tree = ast.parse((SRC / "homology.py").read_text(encoding="utf-8"))
    found = [
        f"_rank_bound at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_rank_bound"
    ]
    (rank,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "boundary_rank"]
    found += [
        f"self.{node.attr} in boundary_rank at line {node.lineno}"
        for node in ast.walk(rank)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self" and node.attr in {"module", "_echelon"}
    ]
    assert not found, f"a second rank path in homology.py: {found}"


def test_per_monomial_emitters_live_in_the_tests():
    # the chain-vector operators are products with the CellOperators
    # matrices; the per-monomial emitters are the reference in
    # tests/oracles.py, and no package module defines, imports or names one
    moved = {"_insert1", "_insert2", "boundary_monomial", "sigma_monomial", "cochain_monomial",
             "gamma_monomial", "mod_boundary_monomial", "mod_cochain_monomial",
             "module_coboundary", "emit_vector"}
    found = [
        f"{name} in {path.name} at line {getattr(node, 'lineno', '?')}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None))
        if name in moved
    ]
    assert not found, f"per-monomial emitters in the package: {found}"


def test_expansion_certificates_form_no_fraction_terms():
    # is_grouplike, is_lie_element and _correct_logs, and every function of
    # tensors.py and expansion.py that they reach by name, sum integer word
    # arrays: none names the term-by-term coproduct, outer square, Dynkin map
    # or Tensor product, and the last two live only in tests/oracles.py
    defs: dict = {}
    for module in ("tensors.py", "expansion.py"):
        for node in ast.parse((SRC / module).read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    forbidden = {"coproduct", "outer_square", "left_bracketing", "concat_mul"}
    seen, todo, found = set(), ["is_grouplike", "is_lie_element", "_correct_logs"], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in defs.get(name, ()):
            for node in ast.walk(fn):
                ref = getattr(node, "id", getattr(node, "attr", None))
                if ref in forbidden:
                    found.append(f"{ref} in {name} at line {node.lineno}")
                elif ref in defs:
                    todo.append(ref)
    assert not found, f"term-by-term Fraction paths in the certificates: {found}"
    assert {"_delta_terms", "_square_terms", "_bracket_terms", "_folded", "lie_basis"} <= seen
    defined = [
        f"{node.name} in {path.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in ("left_bracketing", "outer_square")
    ]
    assert not defined, f"Fraction certificate paths defined in the package: {defined}"


def test_exact_term_arithmetic_lives_in_tensors():
    # one kernel of exact term arithmetic: its helpers are defined in
    # tensors.py only, and the per-module copies they replaced nowhere
    kernel = {"_exact", "_product", "_summed", "_folded", "_vanishes", "_joined", "_csr",
              "_INT64_SAFE"}
    gone = {"_exact_values", "_exact_sum", "_cancels", "_max_abs", "_emitted", "_coo"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{name} in {path.name} at line {node.lineno}" for name in names
                      if name in gone or name in kernel and path.name != "tensors.py"]
    assert not found, f"exact term arithmetic outside tensors.py: {found}"


def test_handles_have_one_index_level_form():
    # the index-level values of the structure maps are the tables of
    # NecklaceContext only (delta_table(m, local), mu_table(k, local)): no
    # def, attribute or name in the package is a per-item form or the
    # adapter that read a table off a handle
    gone = {"wedge_terms", "mu_terms", "delta_table_of"}
    found = [
        f"{name} in {path.name} at line {node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None))
        if name in gone
    ]
    assert not found, f"per-item handle forms in the package: {found}"


def test_cli_has_one_element_grammar():
    # parse_wedge reads its terms through _tokenize and the term loop of
    # parse_element: cli.py defines no hand-split wedge parser
    gone = {"_split_signed", "_parse_necklace_text"}
    found = [
        f"{node.name} at line {node.lineno}"
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in gone
    ]
    assert not found, f"a second element parser in cli.py: {found}"


def test_suites_keep_no_first_failure_flags():
    # every first-failure check is a lazy generator read by _sweep: no suite
    # function of verify.py, nor anything nested in one, binds an ok or a
    # detail local
    suites = {"bialgebra_suite", "bimodule_suite", "bracket_oracle_sweep", "matrix_identity_suite"}
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in suites]
    assert {fn.name for fn in fns} == suites
    found = [
        f"{node.id} in {fn.name} at line {node.lineno}"
        for fn in fns
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id in {"ok", "detail"}
    ]
    assert not found, f"first-failure flags in the suites: {found}"


def test_one_deformation_element():
    # a DeformationElement holds the int arrays of L*A itself: no class
    # under src/ subclasses it, and it defines no scaled copy, no second
    # sigma form and no copy of its chain's terms
    found, classes = [], []
    for path in sorted(SRC.parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(ast.unparse(base).split(".")[-1] == "DeformationElement" for base in node.bases):
                found.append(f"{node.name} subclasses it in {path.name} at line {node.lineno}")
            if node.name == "DeformationElement":
                classes.append(node)
                found += [
                    f"DeformationElement.{fn.name} at line {fn.lineno}"
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and fn.name in {"scaled", "delta_table", "wedge_pairs"}
                ]
    assert len(classes) == 1
    assert not found, f"a second form of the deformation element: {found}"


HANDLES = {"AlgCobracket", "AlgComodule", "DeformedCobracket", "DeformedComodule",
           "ExpAdCobracket", "ExpAdComodule"}


def test_matrix_path_reads_the_canonical_tables():
    # the matrices and the chain-vector coboundaries read NecklaceContext's
    # tables: no other class under src/ defines delta_table or mu_table, the
    # matrix entry points take no cobracket or comodule handle, and no
    # handle takes or keeps a name
    entry = {("complexes.py", "CellOperators.__init__"), ("homology.py", "HomologyEngine.__init__"),
             ("complexes.py", "assemble"), ("complexes.py", "cochain_d"),
             ("complexes.py", "mod_cochain_d")}
    found, seen, handles = [], set(), set()
    for path in sorted(SRC.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fns = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            fns += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body if isinstance(fn, ast.FunctionDef)]
            found += [f"{cls.name}.{fn.name} in {path.name} at line {fn.lineno}" for fn in cls.body
                      if isinstance(fn, ast.FunctionDef) and fn.name in {"delta_table", "mu_table"}
                      and cls.name != "NecklaceContext"]
            if cls.name in HANDLES:
                handles.add(cls.name)
                found += [f"{cls.name} name at line {node.lineno} in {path.name}"
                          for node in ast.walk(cls)
                          if isinstance(node, ast.arg) and node.arg == "name"
                          or isinstance(node, ast.Attribute) and node.attr == "name"
                          or isinstance(node, ast.Name) and node.id == "name"
                          and isinstance(node.ctx, ast.Store)]
        for name, fn in fns:
            if (path.name, name) in entry:
                seen.add((path.name, name))
                found += [f"{name} takes {a.arg} in {path.name}" for a in ast.walk(fn.args)
                          if isinstance(a, ast.arg) and a.arg in {"delta", "mu"}]
    assert seen == entry and handles == HANDLES
    assert not found, f"the table-handle extension point is back: {found}"


def test_deform_composes_the_complexes_emitters():
    # Gamma and sigma are emitted by complexes.gamma_terms and sigma_terms
    # only, and the element's int arrays are its one coefficient form:
    # deform.py keeps no action helper of its own and never names
    # action_table, DeformedComodule keeps no nabla list, action_table and
    # sigma_csr take no local rows, check_coaction no sample words, and
    # verify_deformation_invariance defines no inner sigma table
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8"))
             for name in ("complexes.py", "deform.py")}
    fns = {(name, fn.name): fn for name, tree in trees.items()
           for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            fns.update({(name, f"{cls.name}.{fn.name}"): fn for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)})
    deform = trees["deform.py"]
    found = [f"_action_terms at line {fn.lineno}" for (name, f), fn in fns.items()
             if name == "deform.py" and f == "_action_terms"]
    found += [f"action_table at line {node.lineno}" for node in ast.walk(deform)
              if getattr(node, "id", getattr(node, "attr", None)) == "action_table"]
    found += [f"DeformedComodule._nablas at line {node.lineno}"
              for node in ast.walk(fns["deform.py", "DeformedComodule.__init__"])
              if isinstance(node, ast.Attribute) and node.attr == "_nablas"]
    for key, arg in ((("complexes.py", "action_table"), "local"),
                     (("deform.py", "DeformationElement.sigma_csr"), "local"),
                     (("deform.py", "check_coaction"), "sample_words")):
        found += [f"{key[1]} takes {arg}" for a in ast.walk(fns[key].args)
                  if isinstance(a, ast.arg) and a.arg == arg]
    verify = fns["deform.py", "verify_deformation_invariance"]
    found += [f"{node.name} inside verify_deformation_invariance at line {node.lineno}"
              for node in ast.walk(verify) if isinstance(node, ast.FunctionDef) and node is not verify]
    assert not found, f"a private Gamma, sigma or Fraction path in deform.py: {found}"
    assert {("complexes.py", "gamma_terms"), ("complexes.py", "sigma_terms")} <= set(fns)


def test_one_bracket_reader():
    # array code reads every bracket through NecklaceContext.brackets,
    # which alone chooses between the whole table and the pairs: no module
    # under src/ defines a bracket callback, boundary_terms takes none, and
    # no module but lie.py names bracket_table
    gone = {"table_bracket", "_pair_bracket", "_plain_bracket"}
    found, boundary = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in gone:
                found.append(f"{node.name} in {path.name} at line {node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "boundary_terms" and path.name == "complexes.py":
                boundary.append([a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)])
            if getattr(node, "id", getattr(node, "attr", None)) == "bracket_table" and path.name != "lie.py":
                found.append(f"bracket_table in {path.name} at line {node.lineno}")
    assert boundary == [["ctx", "tuples"]], boundary
    assert not found, f"a bracket read outside NecklaceContext.brackets: {found}"


def test_series_arithmetic_has_one_product_loop():
    # exp_series, log_series and inverse_series are one nested Horner pass
    # (_nested) and Expansion.evaluate one numerator chain (_series_product):
    # none of them loops, so no second product path comes back; the pair
    # loop itself is _pair_sums, which __mul__, _nested and _series_product
    # all run
    def functions(module):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        return {f"{cls.name}.{fn.name}" if cls else fn.name: fn
                for cls in [None] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
                for fn in (cls.body if cls else tree.body) if isinstance(fn, ast.FunctionDef)}

    def loops(fn, kinds):
        return [f"{type(n).__name__} in {fn.name} at line {n.lineno}" for n in ast.walk(fn)
                if isinstance(n, kinds)]

    def names(fn):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(fn)}

    tensors, expansion = functions("tensors.py"), functions("expansion.py")
    found = [hit for name in ("exp_series", "log_series", "inverse_series")
             for hit in loops(tensors[name], (ast.For, ast.While, ast.comprehension))]
    found += loops(expansion["Expansion.evaluate"], (ast.For, ast.comprehension))
    assert not found, f"a loop in the series functions: {found}"
    assert all("_nested" in names(tensors[n]) for n in ("exp_series", "log_series", "inverse_series"))
    assert "_series_product" in names(expansion["Expansion.evaluate"])
    assert all("_pair_sums" in names(tensors[n])
               for n in ("TruncatedSeries.__mul__", "_nested", "_series_product"))
