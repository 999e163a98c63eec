"""Benchmark of the missingmass toolkit, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py):

    tail_small_k     simulate --task tail on zipf:200:1, one thread
    risk_wide_k      risk, bias and Dirichlet Monte Carlo on 1000+ letters, two threads
    bound_sweep      240 bounds commands over g, n and family, plus fig1
    estimate_tokens  estimate on 2e6 generated tokens, then the phi re-read

Each invocation generates the workload's inputs from the seed (not timed),
then starts fresh processes: one warm-up set-up probe, then one worker that
runs passes over the workload's operations for the given seconds and, between
passes, starts eight more set-up probes spread over the run.  A probe stops
once the package is imported and the inputs parsed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are end to end:

    setup_s      median over the probes and the worker of the time from process
                 start to package imported and inputs parsed
    wall_s       mean time of one pass over the workload's operations
    items_per_s  work per second of wall_s: Monte Carlo trials, eps points of
                 bounds and fig1, or token lines read
    peak_rss_mb  peak resident memory of the worker
    ok_frac      share of operations that succeeded and passed their check

With ``--trace 1`` they are per layer (one layer per package module), from a
worker whose every second pass runs with spans around the package's public
functions; see worker.py and tracer.py.

An operation is one CLI command or public call.  It fails if it raises,
exits non-zero or fails its check; a failure is counted, never fatal.
The 30 bound_sweep cells that die on the Chernoff-residual defect are not
measured operations: they run once per run, apart, and each one that still
fails is printed as a ``known defect`` line (see workloads.known_defect).
``correct`` is false when an operation that ran produced a wrong output,
when outputs differ between passes, from an earlier run of the same code and
seed, or between one and two threads, or when the trace does not add up.
Full results, provenance and the failing cells go to bench/out/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from worker import spawn  # noqa: E402

#: Set-up probes per run, besides the worker's own set-up.
SETUP_PROBES = 8
#: Every child must end within this many seconds of the start.
BUDGET_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Set-up is measured with cached bytecode, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def code_digest() -> str:
    """sha256 over the package sources and the benchmark itself."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "missingmass", "*.py")))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_digest(key: str, digest: str) -> bool:
    """Record the output digest of (code, workload, seed); False if an earlier
    run of the same key recorded another."""
    path = os.path.join(OUT, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}
EXTRA_UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_missingmass_s": "s",
    "bench.self_s": "s",
    "risk_lab.trials": "count",
    "risk_lab.self_us_per_trial": "us",
    "ustar_engine.u_star.misses": "count",
    "ustar_engine.u_star.hits": "count",
    "ustar_engine.ms_per_miss": "ms",
    "tail_bounds.chernoff_solves": "count",
    "tail_bounds.us_per_solve": "us",
    "tail_bounds.residual_failures": "count",
    "cli.read_tokens.lines": "count",
    "empirical.symbols": "count",
    "distributions.expected_missing.calls": "count",
    "trace.overhead_frac": "frac",
}


def _unit(name: str) -> str:
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    tag = f"{workload}-seed{seed}"
    workdir = os.path.join(OUT, "work", tag)
    spec = workloads.build(workload, seed, workdir)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = os.path.join(workdir, "worker.json")
    env = _child_env()

    def remaining() -> float:
        return deadline - time.monotonic()

    # warm-up: byte-compiles the package and fills the page cache
    spawn(["--spec", spec_path, "--setup-only"], result_path, remaining(), env)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    spans_path = os.path.join(OUT, "results", f"spans-{tag}.npz")
    worker = spawn(["--spec", spec_path, "--seconds", str(seconds), "--trace", str(int(trace)),
                    "--spans", spans_path, "--probes", str(SETUP_PROBES),
                    "--timeout", str(remaining())], result_path, remaining(), env)
    probes = worker.pop("probes") + [worker]

    setup = {"setup_s": statistics.median(p["setup_s"] for p in probes)}
    for part in ("import_numpy_s", "import_scipy_s", "import_missingmass_s"):
        setup[f"setup.{part}"] = statistics.median(p["setup_split"][part] for p in probes)

    digest = code_digest()
    repeatable = check_digest(f"{digest}:{workload}:{seed}", worker["digest"])
    correct = (not worker["check_failures"] and worker["deterministic"] and repeatable
               and worker["thread_check"]["ok"])
    if trace:
        correct = correct and worker["trace_consistent"] and worker["counts_repeat"]
        values = dict(worker["per_layer"])
        values.update({k: v for k, v in setup.items() if k.startswith("setup.")})
        metrics = {name: _metric(v, _unit(name)) for name, v in values.items()}
    else:
        # The mean, not the median: the host's speed switches between two
        # levels for seconds at a time, and a median of a few passes jumps
        # between them where the mean moves smoothly.
        wall = statistics.fmean(worker["walls"])
        metrics = {
            "setup_s": _metric(setup["setup_s"], "s"),
            "wall_s": _metric(wall, "s"),
            "items_per_s": _metric(worker["items"] / wall, "1/s"),
            "peak_rss_mb": _metric(worker["peak_rss_mb"], "MB"),
            "ok_frac": _metric(1.0 - worker["ops_failed"] / worker["ops_attempted"], "frac"),
        }
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": git_commit(), "code_sha256": digest, "nproc": os.cpu_count(),
        "threads": spec["threads"], "item_unit": spec["item_unit"],
        "items_per_pass": worker["items"], "passes": worker["passes"],
        **worker["versions"],
    }
    report = {
        "correct": bool(correct),
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    full = dict(report, provenance=provenance, setup=setup, setup_samples=[
        {"setup_s": p["setup_s"], **p["setup_split"]} for p in probes],
        output_sha256=worker["digest"], repeatable=repeatable,
        **{k: v for k, v in worker.items() if k not in ("setup_s", "setup_split", "versions")})
    with open(os.path.join(OUT, "results", f"{tag}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    return full


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "missingmass", "__init__.py")):
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    try:
        full = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": full["provenance"], "setup": full["setup"]}))
    for label, info in sorted(full["known_defects"]["failed"].items()):
        print(f"known defect: {label}: {info['error']}")
    for label, info in sorted(full["failures"].items()):
        print(f"failed: {label}: {info['error']}")
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
