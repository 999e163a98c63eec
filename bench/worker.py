"""Run one benchmark workload in a fresh process and write its measurements.

Started by run.py:

    python3 bench/worker.py --spec SPEC.json --result OUT.json --spawned-at T
        [--setup-only] [--seconds S] [--trace 0|1] [--spans P] [--probes N]

Set-up is everything from process start (``--spawned-at``, a
``time.monotonic`` reading taken by the parent just before the spawn) to the
package imported and the workload spec parsed.  With ``--setup-only`` the
process stops there: it is a set-up probe.  Otherwise it runs passes over the
workload's operations for ``--seconds`` seconds, timing each pass, and
checks every output outside the timed region.  Before the passes it runs
the workload's known-defect operations once, untimed and not counted.  Between passes it starts the
``--probes`` set-up probes, spread over the run.  With ``--trace 1`` every
second pass runs with spans around the package's public functions (see
tracer.py); the other passes give the untraced time the overhead is taken
against.
"""

import builtins
import time

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

PACKAGE = "missingmass"
LAYER_MODULES = ("cli", "gfunction", "distributions", "empirical", "estimators",
                 "ustar_engine", "tail_bounds", "risk_lab")


class _ScipyImportClock:
    """Times the first import of scipy made while installed.

    The package imports scipy for itself; timing it from inside
    ``__import__`` keeps the split honest when the package stops doing so.
    """

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._original = builtins.__import__

    def __enter__(self):
        builtins.__import__ = self._import
        return self

    def __exit__(self, *exc):
        builtins.__import__ = self._original

    def _import(self, name, *args, **kwargs):
        if self._depth or not name.startswith("scipy") or "scipy" in sys.modules:
            return self._original(name, *args, **kwargs)
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return self._original(name, *args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0
            self._depth -= 1


def timed_setup(spec_path: str):
    """Import numpy and the package, parse the spec; returns (modules, spec, split)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    with _ScipyImportClock() as scipy_clock:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYER_MODULES}
    t2 = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    split = {
        "import_numpy_s": t1 - t0,
        "import_scipy_s": scipy_clock.seconds,
        "import_missingmass_s": t2 - t1 - scipy_clock.seconds,
    }
    return mods, spec, split


def run_op(op: dict, mods: dict) -> dict:
    """One operation: a CLI command through cli.main, or a public call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        if op["kind"] == "cli":
            with redirect_stdout(out), redirect_stderr(err):
                rc = mods["cli"].main(op["argv"])
            text = out.getvalue()
        else:  # mc_bias: the bias task has no CLI subcommand
            a = op["args"]
            mean, se = mods["risk_lab"].mc_bias(
                mods["distributions"].uniform(a["k"]),
                mods["estimators"].generalized_good_turing(a["alpha"]),
                mods["gfunction"].power(float(a["alpha"])),
                a["n"], a["trials"], a["seed"], threads=a["threads"])
            rc, text = 0, json.dumps([mean, se])
    except Exception as exc:  # an escaped exception is a failed operation
        return {"rc": None, "stdout": out.getvalue(),
                "error": f"{type(exc).__name__}: {exc}"}
    error = None if rc == 0 else f"exit {rc}: {err.getvalue().strip()[-300:]}"
    return {"rc": rc, "stdout": text, "error": error}


def clear_caches(mods: dict) -> None:
    """Empty the package's memo caches, so each pass starts cold like a
    fresh CLI process."""
    for mod in mods.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


def judge(spec: dict, outs: list, check_op) -> dict:
    """Read output files, digest all outputs and check every operation."""
    digest = hashlib.sha256()
    failed, check_failures = {}, {}
    for op, out in zip(spec["ops"], outs):
        files = []
        if out["rc"] == 0:
            for path in op["files"]:
                with open(path, encoding="utf-8") as fh:
                    files.append(fh.read())
        out["files"] = files
        digest.update(json.dumps([op["label"], out["rc"], out["error"], out["stdout"], files])
                      .encode())
    for op, out in zip(spec["ops"], outs):
        message = out["error"]
        if message is None:
            message = check_op(out, op["check"], outs)
            if message is not None:
                check_failures[op["label"]] = message
        if message is not None:
            failed[op["label"]] = {"argv": op.get("argv", op.get("args")), "error": message}
    return {"digest": digest.hexdigest(), "failed": failed, "check_failures": check_failures}


def thread_check(spec: dict, mods: dict) -> dict:
    """The README contract: a short mc_tail gives the same bytes at 1 and 2 threads."""
    outs = [run_op({"kind": "cli", "argv": spec["thread_check_argv"] + ["--threads", t]}, mods)
            for t in ("1", "2")]
    ok = all(o["rc"] == 0 for o in outs) and outs[0]["stdout"] == outs[1]["stdout"]
    return {"ok": ok, "errors": [o["error"] for o in outs if o["error"]]}


def defect_probe(spec: dict, mods: dict, check_op) -> dict:
    """Run each known-defect operation once, untimed: the cells that still
    fail, with their errors, and the check failures of those that succeed."""
    clear_caches(mods)
    defects = spec["known_defects"]
    outs = [run_op(op, mods) for op in defects]
    verdict = judge({"ops": defects}, outs, check_op)
    residual = sum(1 for info in verdict["failed"].values()
                   if info["error"].startswith("AssertionError") and "residual" in info["error"])
    return {"run": len(defects), "failed": verdict["failed"],
            "check_failures": verdict["check_failures"], "residual_failures": residual}


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(traced: list, untraced_walls: list, defects: dict) -> dict:
    """The per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over the traced passes.  Residual failures
    also count the known-defect operations (see defect_probe)."""
    from tracer import LAYERS, BENCH

    first = traced[0]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = first["layers"][layer]["calls"]
        m[f"{layer}.self_s"] = _median([t["layers"][layer]["self_s"] for t in traced])
        m[f"{layer}.errors"] = first["layers"][layer]["errors"]
    m["bench.self_s"] = _median([t["layers"][BENCH]["self_s"] for t in traced])
    c = first["counters"]
    trials = c.get("trials", 0)
    m["risk_lab.trials"] = trials
    m["risk_lab.self_us_per_trial"] = m["risk_lab.self_s"] / trials * 1e6 if trials else 0.0
    misses = first["u_star"]["misses"]
    m["ustar_engine.u_star.misses"] = misses
    m["ustar_engine.u_star.hits"] = first["u_star"]["hits"]
    miss_s = _median([t["counters"].get("u_star.miss_s", 0.0) for t in traced])
    m["ustar_engine.ms_per_miss"] = miss_s / misses * 1e3 if misses else 0.0
    solves = c.get("chernoff_solves", 0)
    solve_s = _median([t["counters"].get("chernoff_s", 0.0) for t in traced])
    m["tail_bounds.chernoff_solves"] = solves
    m["tail_bounds.us_per_solve"] = solve_s / solves * 1e6 if solves else 0.0
    m["tail_bounds.residual_failures"] = (c.get("residual_failures", 0)
                                          + defects["residual_failures"])
    m["cli.read_tokens.lines"] = c.get("read_tokens.lines", 0)
    m["empirical.symbols"] = c.get("symbols", 0)
    m["distributions.expected_missing.calls"] = first["calls_by_name"].get(
        "distributions.expected_missing", 0)
    traced_wall = _median([t["wall_s"] for t in traced])
    m["trace.overhead_frac"] = traced_wall / _median(untraced_walls) - 1.0
    return m


def _repeatable(summary: dict) -> tuple:
    """The parts of a traced pass that must repeat exactly."""
    counts = {k: v for k, v in summary["counters"].items() if isinstance(v, int)}
    return (json.dumps({l: (v["calls"], v["errors"]) for l, v in summary["layers"].items()},
                       sort_keys=True),
            json.dumps(counts, sort_keys=True), json.dumps(summary["u_star"], sort_keys=True))


def spawn(args: list, result_path: str, timeout: float, env=None) -> dict:
    """Start a worker process, wait for it and return the result it wrote.

    Raises RuntimeError if it fails, subprocess.TimeoutExpired (after
    killing it) if it outlives ``timeout``.
    """
    if os.path.exists(result_path):
        os.remove(result_path)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--result", result_path,
         "--spawned-at", repr(spawned_at)] + args,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def timed_pass(spec: dict, mods: dict) -> tuple:
    """Run every operation once; returns (outputs, seconds)."""
    ops = spec["ops"]
    outs = [None] * len(ops)
    t0 = time.perf_counter()
    for i in spec["order"]:
        outs[i] = run_op(ops[i], mods)
    return outs, time.perf_counter() - t0


def traced_pass(spec: dict, mods: dict, tracer) -> tuple:
    """Run every operation once under spans; returns (outputs, summary)."""
    from tracer import pass_summary

    ops = spec["ops"]
    outs = [None] * len(ops)
    tracer.counters.clear()
    tracer.patch()
    root = tracer.begin("bench.body")
    for i in spec["order"]:
        outs[i] = run_op(ops[i], mods)
    tracer.finish(root)
    tracer.unpatch()
    info = mods["ustar_engine"].u_star.cache_info()
    summary = pass_summary(tracer, root, len(tracer.start))
    summary["counters"] = dict(tracer.counters)
    summary["u_star"] = {"hits": info.hits, "misses": info.misses}
    summary["span_range"] = [root, len(tracer.start)]
    return outs, summary


def measure(spec: dict, mods: dict, args) -> dict:
    """Run passes over the workload for ``args.seconds``, checking each pass's
    outputs outside the timed region.  Between passes, the ``args.probes``
    set-up probes are started at evenly spread times, so that they sample
    the whole run."""
    from tracer import Tracer
    from workloads import check_op

    threads = thread_check(spec, mods)
    defects = defect_probe(spec, mods, check_op)
    tracer = Tracer(PACKAGE, spec["line_counts"]) if args.trace else None
    walls, summaries, digests, probes = [], [], [], []
    failures, check_failures = {}, {}
    probe_args = ["--spec", args.spec, "--setup-only"]
    probe_path = args.result + ".probe.json"
    failed = passes = 0
    start = time.perf_counter()
    while True:
        clear_caches(mods)
        if args.trace and passes % 2 == 1:
            outs, summary = traced_pass(spec, mods, tracer)
            summaries.append(summary)
        else:
            outs, wall = timed_pass(spec, mods)
            walls.append(wall)
        verdict = judge(spec, outs, check_op)
        digests.append(verdict["digest"])
        failed += len(verdict["failed"])
        failures.update(verdict["failed"])
        check_failures.update(verdict["check_failures"])
        passes += 1
        elapsed = time.perf_counter() - start
        while len(probes) < args.probes and elapsed >= args.seconds * len(probes) / args.probes:
            probes.append(spawn(probe_args, probe_path, args.timeout))
            elapsed = time.perf_counter() - start
        if passes >= (2 if args.trace else 1) and elapsed + elapsed / passes > args.seconds:
            break
    while len(probes) < args.probes:
        probes.append(spawn(probe_args, probe_path, args.timeout))
    result = {
        "passes": passes,
        "walls": walls,
        "ops_attempted": passes * len(spec["ops"]),
        "ops_failed": failed,
        "attempted": passes * len(spec["ops"]) + 1,
        "failed": failed + (0 if threads["ok"] else 1),
        "failures": failures,
        "check_failures": dict(check_failures, **defects["check_failures"]),
        "known_defects": defects,
        "thread_check": threads,
        "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
        "items": sum(op["items"] for op in spec["ops"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes": probes,
    }
    if args.trace:
        tracer.save(args.spans, [s["span_range"] for s in summaries])
        result.update(
            per_layer=per_layer_metrics(summaries, walls, defects),
            traced_walls=[s["wall_s"] for s in summaries],
            self_sum_s=[s["self_sum_s"] for s in summaries],
            trace_consistent=all(s["consistent"] for s in summaries),
            counts_repeat=len({_repeatable(s) for s in summaries}) == 1,
            offthread_calls=tracer.offthread_calls,
        )
    return result


def versions() -> dict:
    from importlib import metadata

    import numpy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        out["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        out["scipy"] = None
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--probes", type=int, default=0, help="set-up probes to take between passes")
    p.add_argument("--timeout", type=float, default=60.0, help="seconds allowed per probe")
    args = p.parse_args()
    mods, spec, split = timed_setup(args.spec)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "setup_split": split}
    if not args.setup_only:
        result.update(measure(spec, mods, args))
        result["versions"] = versions()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
