"""One iteration of one workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_PATH]

MODE is ``setup`` (set up, then exit), ``plain`` (an untraced iteration)
or ``traced`` (a traced iteration whose spans go to SPANS_PATH).
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` covers interpreter
start, imports and seeded input generation.  The last line of standard
output is a JSON record of the iteration.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback

import tracer as tracer_mod
import workloads

MODES = ("setup", "plain", "traced")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import necklaces
    import necklaces.cli  # noqa: F401  (imports every module the CLI uses)

    where = os.path.dirname(os.path.abspath(necklaces.__file__))
    if where != os.path.join(SRC, "necklaces"):
        raise ImportError(f"necklaces imported from {where}, not from {SRC}")
    return necklaces


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def prepare(name: str, seed: int, trace: bool, run_id: str = ""):
    """Set-up half of an iteration: import, draw inputs and, for a traced
    iteration, install the tracer.  Returns (inputs, run, tracer)."""
    import_package()
    make_inputs, run = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)
    tracer = None
    if trace:
        tracer = tracer_mod.Tracer(run_id)
        tracer.install()
    elif tracer_mod.find_wrappers():
        raise RuntimeError("an untraced iteration found tracer wrappers installed")
    return inputs, run, tracer


def main(argv) -> int:
    name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected one of {MODES}")
    spans_path = argv[4] if mode == "traced" else None
    run_id = os.path.splitext(os.path.basename(spans_path))[0] if spans_path else ""
    inputs, run, tracer = prepare(name, seed, mode == "traced", run_id)
    record = {"setup_s": time.monotonic() - spawned_at}
    if mode != "setup":
        scratch = os.path.join(HERE, "results", "tmp", str(os.getpid()))
        os.makedirs(scratch, exist_ok=True)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            ok, digest, detail = run(inputs, scratch)
            error = None
        except Exception:
            ok, digest, detail = False, None, {}
            error = traceback.format_exc(limit=8)
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
        expected = workloads.expected_digest(name, seed)
        record.update(
            wall_s=wall,
            cpu_s=cpu,
            ok=ok,
            digest=digest,
            digest_ok=expected is None or digest == expected,
            digest_checked=expected is not None,
            detail=detail,
            error=error,
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
            record["errors"] = tracer.layer_errors()
            record["missing_targets"] = tracer.missing
            tracer.dump_spans(spans_path)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
