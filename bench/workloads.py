"""The four benchmark workloads, as run inside one fresh interpreter.

Each entry of ``WORKLOADS`` is a pair of functions:

* ``make_inputs(seed)`` runs during set-up: it draws the seeded inputs and
  calls no package code, so the cold ``NecklaceContext`` memo fill that a
  CLI user pays on every run stays inside the timed region;
* ``run(inputs, scratch)`` is the timed region: every package call from
  the first one to the verified result.  It returns ``(ok, digest,
  detail)``: ``ok`` is the conjunction of the report's own flags, and
  ``digest`` the sha256 of the canonical JSON of the output.

Package functions are always looked up on their module at call time
(``deform.homotopy_check``, not a name imported at set-up), so the traced
run's wrappers see every call.

Only ``deform-g2`` reads the seed.  The CLI workloads have fixed
arguments, so their outputs, and the digests recorded in ``EXPECTED``,
are the same for every seed.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0

# sha256 of the canonical output JSON (see ``canonical_digest``), recorded
# at the commit that added this benchmark.  For the CLI workloads the
# output does not depend on the seed; ``deform-g2`` is recorded for
# DEFAULT_SEED only, and on other seeds its exact identity checks are the
# correctness gate.
EXPECTED = {
    "homology-g2": "11bbb8c63064adeef5cd452c0e6d31dc290b4e204148e92d28068e3f29456531",
    "verify-module-g2": "72aa9c3f46e1ad22ab9e6f7ee9854d64e186f671c2680bae30affd95419916ac",
    "expand-g2": "24189ec183c362e566b7fb69b782bad8c1cc12742695b62648a027b4dd6e3af7",
    "deform-g2": "4593c6db217e0b670430322f9b7befba2afe3a901bcf7e63c0f4a68b9f6b3641",
}


def canonical_digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- CLI workloads ------------------------------------------------------------


def _run_cli(argv, scratch, flags_ok):
    from necklaces import cli

    out = os.path.join(scratch, "out.json")
    code = cli.main(argv + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    ok = code == 0 and flags_ok(report)
    return ok, canonical_digest(report), {"exit_code": code}


def _homology_ok(rep):
    return rep["euler_ok"] is True and all(e["ok"] for e in rep["euler_checks"])


def _verify_ok(rep):
    return rep["ok"] is True and all(
        s["ok"] and s["checks"] and all(c["ok"] for c in s["checks"]) for s in rep["suites"]
    )


def _expand_ok(rep):
    return set(rep["checks"]) == {"normalization", "grouplike", "boundary"} and all(
        v is True for v in rep["checks"].values()
    )


HOMOLOGY_ARGV = ["homology", "--g", "2", "--p", "0..3", "--w", "0..6"]
VERIFY_ARGV = ["verify", "--suite", "module-matrix", "--g", "2", "--p-max", "3", "--w-max", "8"]
EXPAND_ARGV = ["expand", "--g", "2", "--degree", "7"]


# -- deform-g2 ----------------------------------------------------------------

DEFORM_G = 2
DEFORM_WEIGHTS = (2, 3, 4)
DEFORM_PER_WEIGHT = 4
DEFORM_TERMS = 3
# len(n_space_basis(2, w)); the recipe draws indices below these, and the
# run checks that the package still agrees
KERNEL_DIMS = {2: 6, 3: 36, 4: 131}
LIE_CELLS_MAX = (2, 6)  # every nonzero Lie cell with p <= 2, w <= 6
PIECE_TARGET_W_MAX = 7
MOD_CELLS = ((0, 2), (1, 3), (1, 4))


def deform_recipe(seed: int):
    """Seeded choice of the 2-vectors: for each weight, DEFORM_PER_WEIGHT
    combinations of DEFORM_TERMS distinct kernel basis vectors with
    coefficients +-1 or +-2 over 1, 2 or 3."""
    rng = random.Random(seed)
    recipe = []
    for w_a in DEFORM_WEIGHTS:
        for _ in range(DEFORM_PER_WEIGHT):
            idxs = rng.sample(range(KERNEL_DIMS[w_a]), DEFORM_TERMS)
            coeffs = [
                Fraction(rng.choice((1, -1, 2, -2)), rng.choice((1, 2, 3)))
                for _ in idxs
            ]
            recipe.append((w_a, tuple(zip(idxs, coeffs))))
    return recipe


def _run_deform(recipe, scratch):
    from necklaces import deform, homology

    engine = homology.HomologyEngine(DEFORM_G)
    pmax, wmax = LIE_CELLS_MAX
    kernels = {}
    results = []
    for k, (w_a, combo) in enumerate(recipe):
        if w_a not in kernels:
            kernels[w_a] = deform.n_space_basis(DEFORM_G, w_a)
            if len(kernels[w_a]) != KERNEL_DIMS[w_a]:
                raise RuntimeError(f"kernel dimension changed at weight {w_a}")
        chain = None
        for idx, c in combo:
            term = kernels[w_a][idx].scale(c)
            chain = term if chain is None else chain + term
        a = deform.DeformationElement(chain)
        b = deform.DeformationElement(chain.scale(-1))
        entry = {"k": k, "wA": w_a, "A": a.to_json_dict(), "in_kernel": a.in_n, "checks": []}
        checks = entry["checks"]
        for p in range(pmax + 1):
            for w in range(wmax + 1):
                if engine.cell_dim(p, w) == 0:
                    continue
                checks.append(["homotopy", p, w, deform.homotopy_check(a, p, w)])
                tgt_w = w + w_a - 2
                if engine.homology_dim(p, w) > 0 and tgt_w <= PIECE_TARGET_W_MAX:
                    piece = deform.assemble_sigma_piece(a, p, w)
                    checks.append(
                        ["piece_zero", p, w, deform.piece_induces_zero(engine, piece, p, w, tgt_w)]
                    )
        for p, w in MOD_CELLS:
            checks.append(["mod_homotopy", p, w, deform.mod_homotopy_check(a, b, p, w)])
        results.append(entry)
    ok = all(e["in_kernel"] for e in results) and all(c[3] is True for e in results for c in e["checks"])
    return ok, canonical_digest(results), {"checks": sum(len(e["checks"]) for e in results)}


# -- registry -------------------------------------------------------------------


WORKLOADS = {
    "homology-g2": (lambda seed: HOMOLOGY_ARGV, lambda argv, s: _run_cli(argv, s, _homology_ok)),
    "verify-module-g2": (lambda seed: VERIFY_ARGV, lambda argv, s: _run_cli(argv, s, _verify_ok)),
    "deform-g2": (deform_recipe, _run_deform),
    "expand-g2": (lambda seed: EXPAND_ARGV, lambda argv, s: _run_cli(argv, s, _expand_ok)),
}

SEED_DEPENDENT = {"deform-g2"}


def expected_digest(name: str, seed: int):
    """The recorded digest for this workload and seed, or None where none
    is recorded."""
    if name in SEED_DEPENDENT and seed != DEFAULT_SEED:
        return None
    return EXPECTED[name]
