"""Span tracer for the benchmark's traced runs.

Wrappers are put around public functions and methods of the package from
the outside; no file under ``src/`` is touched.  A module-level function
is rebound on every ``necklaces`` module that holds it under its name
(``necklaces.homology`` imports ``column_echelon_int`` and
``kernel_basis`` by name), and a method is replaced on its class.
``uninstall`` puts every original back.

Spans are kept in memory as parallel lists (name, start, end, parent, run
id) and written out at the end.  A span's self time is its duration minus
the durations of its child spans; the program is single-threaded, so the
children of a span never overlap.  Time spent in a function that is not
wrapped counts towards the nearest wrapped caller.  The counting hooks run
in spans of their own (``trace.hook``), which no metric reports.

Two ``lie`` methods run hundreds of thousands of times per workload; they
are counted only (calls and distinct arguments), with no span.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

WRAPPED = "__bench_wrapped__"


def _matrix_key(m):
    return (m.rows, m.cols, tuple(tuple(sorted(col.items())) for col in m.columns))


def _echelon_done(t, result, args, kwargs):
    t.distinct["linalg.echelon"].add(_matrix_key(args[0]))
    t.counts["linalg.echelon.rank_total"] += len(result)
    bits = max((abs(v).bit_length() for vec in result.values() for v in vec.values()), default=0)
    t.counts["linalg.echelon.max_bits"] = max(t.counts["linalg.echelon.max_bits"], bits)


def _basis_done(t, result, args, kwargs):
    t.counts["complexes.basis.dim_total"] += len(args[0].monomials)


def _assemble_done(t, result, args, kwargs):
    t.counts["complexes.assemble.nnz"] += result.nnz()


def _solve_done(t, result, args, kwargs):
    columns = args[0] if args else kwargs["columns"]
    t.counts["linalg.solve.columns"] += len(columns)


def _int_csc_done(t, result, args, kwargs):
    t.counts["linalg.int_csc.nnz"] += int(result.nnz)


def _suite_done(t, result, args, kwargs):
    t.counts["verify.checks.count"] += len(result["checks"])


# (span name, module, attribute path, hook run on the result).  Several
# targets may share a span name; their calls and self time add up.
SPAN_TARGETS = (
    ("complexes.basis", "necklaces.complexes", "WedgeBasis.__init__", _basis_done),
    ("complexes.basis", "necklaces.complexes", "ModWedgeBasis.__init__", _basis_done),
    ("complexes.assemble", "necklaces.complexes", "assemble", _assemble_done),
    ("linalg.echelon", "necklaces.linalg", "column_echelon_int", _echelon_done),
    ("linalg.kernel", "necklaces.linalg", "kernel_basis", None),
    ("linalg.reducer", "necklaces.linalg", "EchelonReducer.reduce", None),
    ("linalg.reducer", "necklaces.linalg", "EchelonReducer.insert", None),
    ("linalg.matmul", "necklaces.linalg", "SparseRationalMatrix.__matmul__", None),
    ("linalg.solve", "necklaces.linalg", "solve_columns", _solve_done),
    ("linalg.int_csc", "necklaces.linalg", "int_csc", _int_csc_done),
    ("homology.homology", "necklaces.homology", "HomologyEngine.homology", None),
    ("homology.induced_d", "necklaces.homology", "HomologyEngine.induced_d", None),
    ("homology.boundary_rank", "necklaces.homology", "HomologyEngine.boundary_rank", None),
    ("deform.homotopy_check", "necklaces.deform", "homotopy_check", None),
    ("deform.mod_homotopy_check", "necklaces.deform", "mod_homotopy_check", None),
    ("deform.piece", "necklaces.deform", "assemble_sigma_piece", None),
    ("deform.piece", "necklaces.deform", "assemble_mod_piece", None),
    ("expansion.solver", "necklaces.expansion", "symplectic_expansion", None),
    ("expansion.boundary_log_defect", "necklaces.expansion", "Expansion.boundary_log_defect", None),
    ("tensors.series", "necklaces.tensors", "exp_series", None),
    ("tensors.series", "necklaces.tensors", "log_series", None),
    ("tensors.series", "necklaces.tensors", "inverse_series", None),
    ("tensors.is_lie_element", "necklaces.tensors", "is_lie_element", None),
    ("verify.matrix_identity_suite", "necklaces.verify", "matrix_identity_suite", _suite_done),
    ("cli.main", "necklaces.cli", "main", None),
)

# counted without spans: (name, module, attribute path)
COUNT_TARGETS = (
    ("lie.bracket_idx", "necklaces.lie", "NecklaceContext.bracket_idx"),
    ("lie.delta_wedge", "necklaces.lie", "NecklaceContext.delta_wedge"),
)

# per-layer metrics reported by the benchmark, in order: (name, unit, better)
_SPAN_STATS = {
    "complexes.basis": ("calls", "self_s", "dim_total"),
    "complexes.assemble": ("calls", "self_s", "nnz"),
    "linalg.echelon": ("calls", "self_s", "distinct", "rank_total", "max_bits"),
    "linalg.kernel": ("calls", "self_s"),
    "linalg.reducer": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s", "columns"),
    "linalg.int_csc": ("calls", "self_s", "nnz"),
    "homology.homology": ("calls", "self_s"),
    "homology.induced_d": ("calls", "self_s"),
    "homology.boundary_rank": ("calls", "self_s"),
    "lie.bracket_idx": ("calls", "miss_ratio"),
    "lie.delta_wedge": ("calls", "miss_ratio"),
    "deform.homotopy_check": ("calls", "self_s"),
    "deform.mod_homotopy_check": ("calls", "self_s"),
    "deform.piece": ("calls", "self_s"),
    "expansion.solver": ("self_s",),
    "expansion.boundary_log_defect": ("calls", "self_s"),
    "tensors.series": ("calls", "self_s"),
    "tensors.is_lie_element": ("calls", "self_s"),
    "verify.matrix_identity_suite": ("self_s",),
    "verify.checks": ("count",),
    "cli.main": ("self_s",),
}
_UNITS = {"self_s": "s", "max_bits": "bits", "miss_ratio": "ratio"}
_HIGHER = {"verify.checks.count"}

LAYER_METRICS = tuple(
    (f"{span}.{stat}", _UNITS.get(stat, "count"), "higher" if f"{span}.{stat}" in _HIGHER else "lower")
    for span, stats in _SPAN_STATS.items()
    for stat in stats
) + (("trace.overhead_s", "s", "lower"),)

LAYERS = sorted({name.split(".")[0] for name, _, _, _ in SPAN_TARGETS} | {"lie"})


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "necklaces" or name.startswith("necklaces."))
    ]


def find_wrappers():
    """Every (owner, attribute) in the package that holds a tracer
    wrapper: module attributes, and attributes of the package's classes."""
    found = []
    for mod in package_modules():
        for attr, val in list(vars(mod).items()):
            if getattr(val, WRAPPED, False):
                found.append((mod.__name__, attr))
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    if getattr(cval, WRAPPED, False):
                        found.append((f"{mod.__name__}.{val.__name__}", cattr))
    return found


class Tracer:
    """Collects spans and counts for one traced run.  ``clock`` is the
    time source; tests pass a fake one."""

    def __init__(self, run_id: str = "", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.errors = defaultdict(int)
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper that records a span named ``name`` around ``fn``."""
        layer = name.split(".")[0]
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        calls, clock = self.calls, self.clock

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                # the hook's own span keeps its work out of the caller's
                # self time
                hook = len(names)
                names.append("trace.hook")
                parents.append(stack[-1] if stack else -1)
                starts.append(clock())
                ends.append(0.0)
                on_result(self, result, args, kwargs)
                ends[hook] = clock()
            return result

        setattr(wrapper, WRAPPED, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name: str, fn):
        """A wrapper that counts calls and distinct arguments only."""
        layer = name.split(".")[0]
        calls, seen = self.calls, self.distinct[name]

        def wrapper(ctx, *args):
            calls[name] += 1
            seen.add((ctx.g,) + args)
            try:
                return fn(ctx, *args)
            except BaseException:
                self.errors[layer] += 1
                raise

        setattr(wrapper, WRAPPED, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- binding ---------------------------------------------------------

    def _bind(self, module: str, path: str, make):
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            # a refactor removed the target: its metrics read 0 and the
            # results file names it
            self.missing.append(f"{module}:{path}")
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrapper)
            return
        for mod in package_modules():
            if vars(mod).get(attr) is original:
                self._patches.append((mod, attr, original, True))
                setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, module, path, hook in SPAN_TARGETS:
                self._bind(module, path, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
            for name, module, path in COUNT_TARGETS:
                self._bind(module, path, lambda fn, n=name: self.count(n, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        self_s = defaultdict(float)
        for name, st in zip(self.names, self.self_times()):
            self_s[name] += st
        out = {}
        for metric, _unit, _better in LAYER_METRICS:
            span, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = self.calls[span]
            elif stat == "self_s":
                out[metric] = self_s[span]
            elif stat == "distinct":
                out[metric] = len(self.distinct[span])
            elif stat == "miss_ratio":
                out[metric] = len(self.distinct[span]) / self.calls[span] if self.calls[span] else 0.0
            elif metric != "trace.overhead_s":
                out[metric] = self.counts[metric]
        return out

    def layer_errors(self) -> dict[str, int]:
        return {f"{layer}.errors": self.errors[layer] for layer in LAYERS}

    def dump_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "name": self.names,
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                },
                fh,
            )
