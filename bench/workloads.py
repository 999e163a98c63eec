"""Benchmark workloads: the operations each one runs and how each output is checked.

Building a workload needs only numpy and the standard library, never the
package under test, so every oracle computed here is independent of the code
it checks.  A workload is a JSON-serialisable spec: a list of operations, the
order to run them in, and per-operation checks.  ``check_op`` judges one
operation's captured output against its check.

A spec may also list ``known_defects``: operations of the workload's sweep
that die on a known package defect.  They are kept out of the measured
operations, so that no measured operation fails, and are run once per run
apart from the measurement, where each is listed with its error and, if it
succeeds, checked like any other operation.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import List, Optional

import numpy as np

#: The deviations of the tail-dominance matrix (acceptance criterion 08).
TAIL_EPS = "0.01,0.02,0.05,0.1,0.15,0.2,0.3"
#: The dense grid of a sample-size planning sweep: 141 points.
SWEEP_EPS = "0:0.7:0.005"
#: Deviations passed to ``estimate --eps``.
ESTIMATE_EPS = "0.001,0.002,0.005"

TAIL_TRIALS = 10_000
RISK_TRIALS = 10_000
BIAS_TRIALS = 10_000
DIRICHLET_TRIALS = 4_000
TOKENS = 2_000_000
TOKEN_SUPPORT = 100_000
TOKEN_EXPONENT = 1.1

#: Order-5 spot values of acceptance criterion 03: (n, eps, reference bound).
ORDER5_SPOTS = ((20, 0.1, 0.721339884229093), (100, 0.15, 0.0386964506497133))

WORKLOADS = ("tail_small_k", "risk_wide_k", "bound_sweep", "estimate_tokens")


def sweep_sizes() -> List[int]:
    """30 log-spaced sample sizes in [10, 1e4], including 20, 100 and 1000."""
    grid = np.geomspace(10, 10_000, 27)
    return sorted({int(round(x)) for x in grid} | {20, 100, 1000})


def _cli(label: str, argv: List[str], items: int, check: dict,
         files: Optional[List[str]] = None) -> dict:
    return {"label": label, "kind": "cli", "argv": argv, "items": items,
            "check": check, "files": files or []}


def _tail_small_k(seed: int, workdir: str) -> dict:
    ops = []
    for g in ("power:1", "power:2"):
        for n in (20, 100):
            argv = ["simulate", "--task", "tail", "--g", g, "--dist", "zipf:200:1",
                    "--n-list", str(n), "--trials", str(TAIL_TRIALS),
                    "--seed", str(13 + seed), "--threads", "1",
                    "--eps-grid", TAIL_EPS]
            ops.append(_cli(f"tail {g} n={n}", argv, TAIL_TRIALS, {"type": "tail"}))
    return {"threads": 1, "item_unit": "trials", "ops": ops}


def _risk_wide_k(seed: int, workdir: str) -> dict:
    n = 100
    risk = ["simulate", "--task", "risk", "--g", "power:1", "--dist", "uniform:1000",
            "--n-list", str(n), "--estimator", "goodturing",
            "--trials", str(RISK_TRIALS), "--seed", str(7 + seed), "--threads", "2"]
    dirichlet = ["simulate", "--task", "dirichlet", "--alpha", "1", "--c", "1",
                 "--n-list", "40", "--trials", str(DIRICHLET_TRIALS),
                 "--seed", str(29 + seed), "--threads", "2"]
    bias = {"label": "mc_bias generalized:2 uniform:1000 n=100", "kind": "mc_bias",
            "items": BIAS_TRIALS,
            "args": {"k": 1000, "alpha": 2, "n": n, "trials": BIAS_TRIALS,
                     "seed": 101 + seed, "threads": 2},
            "check": {"type": "bias", "n": n, "alpha": 2}, "files": []}
    ops = [
        _cli("risk goodturing uniform:1000 n=100", risk, RISK_TRIALS,
             {"type": "risk_mse", "n": n, "coef": 0.65}),
        bias,
        _cli("dirichlet alpha=1 c=1 n=40", dirichlet, DIRICHLET_TRIALS,
             {"type": "dirichlet", "rel": 0.05}),
    ]
    return {"threads": 2, "item_unit": "trials", "ops": ops}


def known_defect(g: str, family: str, n: int) -> bool:
    """The sweep cells that die with the bare AssertionError "Chernoff
    bisection residual ... exceeds tolerance" from
    tail_bounds.poly_filtered_exponent: power:2 with poly:5 at n >= 143 and
    with poly:2 at n >= 702, 30 of the 270."""
    return g == "power:2" and ((family == "poly:5" and n >= 143)
                               or (family == "poly:2" and n >= 702))


def _bound_sweep(seed: int, workdir: str) -> dict:
    eps_points = len(np.arange(0.0, 0.7 + 0.0025, 0.005))
    ops, defects = [], []
    for g in ("power:1", "power:2", "entropy:64"):
        for n in sweep_sizes():
            for family in ("subgamma", "poly:2", "poly:5"):
                spots = []
                if g == "power:1" and family == "poly:5":
                    spots = [[e, want] for m, e, want in ORDER5_SPOTS if m == n]
                argv = ["bounds", "--family", family, "--g", g, "--n", str(n),
                        "--eps-grid", SWEEP_EPS]
                op = _cli(f"bounds {family} {g} n={n}", argv, eps_points,
                          {"type": "bounds", "spots": spots})
                (defects if known_defect(g, family, n) else ops).append(op)
    outdir = os.path.join(workdir, "fig1")
    os.makedirs(outdir, exist_ok=True)
    files = [os.path.join(outdir, f"tail_curves_n{n}.csv") for n in (20, 100, 1000)]
    ops.append(_cli("fig1", ["fig1", "--outdir", outdir], 3 * 15,
                    {"type": "fig1", "ns": [20, 100, 1000]}, files=files))
    # The seed only reorders the commands; every order does the same work.
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return {"threads": 1, "item_unit": "eps points", "ops": ops, "order": order,
            "known_defects": defects}


def _write_tokens(seed: int, path: str) -> np.ndarray:
    """Draw TOKENS letters from zipf(TOKEN_SUPPORT, TOKEN_EXPONENT) and write
    them one per line; returns the per-letter counts."""
    weights = 1.0 / np.arange(1, TOKEN_SUPPORT + 1, dtype=float) ** TOKEN_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(TOKENS), side="right")
    idx = np.minimum(idx, TOKEN_SUPPORT - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["w%d" % i for i in idx.tolist()]))
        fh.write("\n")
    return np.bincount(idx, minlength=TOKEN_SUPPORT)


def _estimate_tokens(seed: int, workdir: str) -> dict:
    tokens = os.path.join(workdir, "tokens.txt")
    counts = _write_tokens(seed, tokens)
    occ = np.bincount(counts[counts > 0])
    phi = {str(l): int(c) for l, c in enumerate(occ.tolist()) if l > 0 and c > 0}
    ops = []
    for alpha in (1, 2, 3):
        phi_path = os.path.join(workdir, f"phi_alpha{alpha}.csv")
        check = {"type": "estimate", "n": TOKENS, "alpha": alpha, "phi": phi}
        ops.append(_cli(f"estimate tokens alpha={alpha}",
                        ["estimate", "--input", tokens, "--alpha", str(alpha),
                         "--eps", ESTIMATE_EPS, "--emit-phi", phi_path],
                        TOKENS, check, files=[phi_path]))
        ops.append(_cli(f"estimate phi alpha={alpha}",
                        ["estimate", "--input", phi_path, "--format", "phi",
                         "--n", str(TOKENS), "--alpha", str(alpha),
                         "--eps", ESTIMATE_EPS],
                        0, dict(check, same_as=len(ops) - 1)))
    return {"threads": 1, "item_unit": "tokens", "ops": ops,
            "line_counts": {tokens: TOKENS}}


def thread_check_argv(seed: int) -> List[str]:
    """A short tail run, to be repeated with --threads 1 and --threads 2."""
    return ["simulate", "--task", "tail", "--g", "power:1", "--dist", "zipf:200:1",
            "--n-list", "20", "--trials", "2000", "--seed", str(13 + seed),
            "--eps-grid", TAIL_EPS]


_BUILDERS = {
    "tail_small_k": _tail_small_k,
    "risk_wide_k": _risk_wide_k,
    "bound_sweep": _bound_sweep,
    "estimate_tokens": _estimate_tokens,
}


def build(name: str, seed: int, workdir: str) -> dict:
    """The spec of workload ``name`` for ``seed``; inputs go under workdir."""
    os.makedirs(workdir, exist_ok=True)
    spec = _BUILDERS[name](seed, workdir)
    spec.setdefault("order", list(range(len(spec["ops"]))))
    spec.setdefault("line_counts", {})
    spec.setdefault("known_defects", [])
    spec.update(workload=name, seed=seed, thread_check_argv=thread_check_argv(seed))
    return spec


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a message


def _csv(text: str):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header))


def _monotone_bound(eps: np.ndarray, bound: np.ndarray, what: str) -> Optional[str]:
    if np.any(bound < 0.0) or np.any(bound > 1.0):
        return f"{what}: a bound lies outside [0, 1]"
    if np.any(np.diff(bound) > 1e-12 * bound[:-1]):
        return f"{what}: bound increases with eps"
    if eps[0] == 0.0 and bound[0] != 1.0:
        return f"{what}: bound at eps=0 is {bound[0]!r}, not 1"
    return None


def _check_tail(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    header, rows = _csv(out["stdout"])
    col = {name: i for i, name in enumerate(header)}
    for name in header[6:]:  # after n, eps and the four frequency columns
        side = "right" if name.startswith("right") else "left"
        freq, se = rows[:, col[side + "_freq"]], rows[:, col[side + "_se"]]
        bad = freq > rows[:, col[name]] + 3.0 * se
        if np.any(bad):
            e = rows[np.argmax(bad), col["eps"]]
            return f"{name} below the observed {side} tail frequency at eps={e}"
    return None


def _check_risk_mse(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    _, rows = _csv(out["stdout"])
    mse = rows[0, 2]
    limit = check["coef"] / check["n"]
    return None if mse <= limit else f"mse {mse!r} > {limit!r}"


def _check_bias(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    mean, se = json.loads(out["stdout"])
    alpha, n = check["alpha"], check["n"]
    bound = float(alpha) ** (alpha + 1) / float(n) ** alpha
    if -3.0 * se <= mean <= bound + 3.0 * se:
        return None
    return f"bias {mean!r} outside [-3se, bound+3se] = [{-3 * se!r}, {bound + 3 * se!r}]"


def _check_dirichlet(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    _, rows = _csv(out["stdout"])
    closed, mc = rows[0, 1], rows[0, 2]
    rel = abs(mc - closed) / closed
    return None if rel <= check["rel"] else f"MC {mc!r} is {rel:.2%} from closed form {closed!r}"


def _check_bounds(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    _, rows = _csv(out["stdout"])
    eps, bound = rows[:, 0], rows[:, 1]
    msg = _monotone_bound(eps, bound, "bounds")
    if msg:
        return msg
    for e, want in check["spots"]:
        got = bound[np.argmin(np.abs(eps - e))]
        if abs(got - want) / want > 0.01:
            return f"order-5 spot at eps={e}: {got!r}, reference {want!r}"
    return None


def _check_fig1(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    for n, text in zip(check["ns"], out["files"]):
        header, rows = _csv(text)
        eps = rows[:, 0]
        want = np.minimum(1.0, np.exp(-n * eps * eps))
        err = np.max(np.abs(rows[:, header.index("subgauss")] - want))
        if err > 1e-9:
            return f"fig1 n={n}: subgauss is {err:.3g} from exp(-n eps^2)"
        for name in ("r2", "r5"):
            msg = _monotone_bound(eps, rows[:, header.index(name)], f"fig1 n={n} {name}")
            if msg:
                return msg
    return None


def _close(got, want: float) -> bool:
    return got is not None and abs(got - want) <= 1e-12 * abs(want)


def _check_estimate(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    report = json.loads(out["stdout"])
    if "same_as" in check:
        first = outs[check["same_as"]]
        if first["rc"] != 0 or json.loads(first["stdout"]) != report:
            return "the --format phi re-read differs from the token read"
        return None
    n, alpha, phi = check["n"], check["alpha"], check["phi"]
    if report["n"] != n or report["phi"] != phi:
        return "profile differs from the generated tokens"
    if not _close(report["good_turing"], phi.get("1", 0) / n):
        return f"good_turing {report['good_turing']!r} != phi_1/n"
    gen = report["generalized"]
    if not _close(gen["estimate"], phi.get(str(alpha), 0) / math.comb(n, alpha)):
        return f"generalized {gen['estimate']!r} != phi_alpha/C(n, alpha)"
    if not _close(gen["bias_bound"], float(alpha) ** (alpha + 1) / float(n) ** alpha):
        return f"bias bound {gen['bias_bound']!r} != alpha^(alpha+1)/n^alpha"
    dev = report["deviation_bounds"]
    if any(not 0.0 <= b <= 1.0 for b in dev["right"] + dev["left"]):
        return "a deviation bound lies outside [0, 1]"
    expected_phi = "l,phi_l\n" + "".join(
        f"{l},{phi[str(l)]}\n" for l in sorted(int(k) for k in phi))
    if out["files"][0] != expected_phi:
        return "the emitted phi table differs from the generated tokens"
    return None


_CHECKS = {
    "tail": _check_tail,
    "risk_mse": _check_risk_mse,
    "bias": _check_bias,
    "dirichlet": _check_dirichlet,
    "bounds": _check_bounds,
    "fig1": _check_fig1,
    "estimate": _check_estimate,
}


def check_op(out: dict, check: dict, outs: List[dict]) -> Optional[str]:
    """None if the captured output ``out`` passes ``check``, else a message.

    ``outs`` holds the outputs of all operations of the pass, in spec
    order, for checks that compare two operations.
    """
    try:
        return _CHECKS[check["type"]](out, check, outs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
