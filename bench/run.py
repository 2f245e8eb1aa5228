"""Benchmark of the necklaces engine: one command, four workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each iteration is one fresh interpreter (``bench/child.py``), started one
after another, so every iteration pays interpreter start, imports and the
cold ``NecklaceContext`` memo fill, as a CLI user does.  Iterations repeat
until the next one would end after ``--seconds``; at least one always
runs.  Set-up is sampled at least SETUP_SAMPLES times per run (extra
set-up-only interpreters make up the count).

With ``--trace 0`` the run reports the end-to-end metrics: medians over
its iterations.  With ``--trace 1`` it alternates an untraced and a traced
iteration and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s`` (median traced minus median untraced ``wall_s``).

The last line of standard output is the result object; a results file
with the environment and every iteration goes to ``bench/results/``.
An iteration whose output fails its check (false flag, digest mismatch,
exception) counts in ``failed``.  If the package cannot be imported at
all, the run exits with status 2 and prints no result.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_child(name: str, seed: int, mode: str, spans_path: str | None = None) -> dict:
    """One iteration in a fresh interpreter; ``mode`` as in child.py."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), mode]
    spawned_at = time.monotonic()
    argv.append(repr(spawned_at))
    if spans_path:
        argv.append(spans_path)
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(proc.stderr.strip()[-2000:] or f"exit status {proc.returncode}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.monotonic() - spawned_at
    return record


def environment(seed: int) -> dict:
    env = child_env()
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "child_env": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")},
    }


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def iteration_ok(rec: dict) -> bool:
    return bool(rec.get("ok")) and bool(rec.get("digest_ok")) and rec.get("error") is None


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run iterations until the budget is spent.  Returns (iterations,
    setup samples)."""
    start = time.monotonic()
    iterations = []
    last = 0.0
    k = 0
    while not iterations or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        if trace:
            # an untraced iteration, then a traced one on the same input
            iterations.append(dict(run_child(name, seed, "plain"), traced=False))
            spans = os.path.join(RESULTS, f"spans-{name}-seed{seed}-{k}.json")
            iterations.append(dict(run_child(name, seed, "traced", spans), traced=True))
        else:
            iterations.append(dict(run_child(name, seed, "plain"), traced=False))
        last = time.monotonic() - t
        k += 1
    setups = [it["setup_s"] for it in iterations]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(name, seed, "setup")["setup_s"])
    return iterations, setups


def end_to_end(iterations, setups) -> dict:
    med = lambda key: statistics.median(it[key] for it in iterations)  # noqa: E731
    values = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def per_layer(iterations) -> dict:
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    out = {}
    for metric, unit, _better in tracer.LAYER_METRICS:
        if metric == "trace.overhead_s":
            value = statistics.median(it["wall_s"] for it in traced) - statistics.median(
                it["wall_s"] for it in plain
            )
        else:
            value = statistics.median(it["layers"][metric] for it in traced)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    os.makedirs(RESULTS, exist_ok=True)
    try:
        iterations, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: an iteration could not run: {exc}", file=sys.stderr)
        return 2

    failed = sum(not iteration_ok(it) for it in iterations)
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations, setups)
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seed_dependent": args.workload in workloads.SEED_DEPENDENT,
        "environment": environment(args.seed),
        "setup_samples": setups,
        "iterations": iterations,
        "result": result,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
