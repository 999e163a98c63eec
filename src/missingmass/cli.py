"""Command-line interface for missing-mass estimation and tail bounds.

Subcommands
-----------
estimate   Read a sample (tokens, token counts, or an occupancy profile),
           report Good-Turing style estimates and optional deviation bounds.
fig1       Emit reference tail-bound curves (sub-Gaussian, order-2 and
           order-5 polynomial filters) for n in {20, 100, 1000}.
bounds     Evaluate a single bound family on an epsilon grid.
ustar      Maximize g(p)^r (1-p)^n (1-(1-p)^n) / p over p.
simulate   Monte Carlo: estimator risk curves, tail-frequency dominance
           checks, or Dirichlet-prior variance curves.

Exit codes: 0 success, 2 malformed input, 3 out-of-regime parameters,
4 I/O failure, 5 numerical failure.  Relative output paths are resolved
against the MISSINGMASS_OUTDIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import distributions as dist_mod
from . import estimators as est
from . import gfunction as gf
from . import risk_lab
from . import tail_bounds as tb
from .empirical import SampleProfile, profile_from_counts, profile_from_phi
from .errors import InvalidInputError, NumericalError, RegimeError
from .ustar_engine import u_star

OUTDIR_ENV = "MISSINGMASS_OUTDIR"

_FIG_NS = (20, 100, 1000)
_FIG_EPS = np.arange(15) * 0.05


def _fmt(x: float) -> str:
    return "%.15g" % float(x)


def _resolve_path(path: str) -> str:
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def parse_g(text: str) -> gf.GFunction:
    """Parse a g-function descriptor: power:ALPHA or entropy:K."""
    parts = text.split(":")
    if parts[0] == "power" and len(parts) == 2:
        try:
            alpha = float(parts[1])
        except ValueError:
            raise InvalidInputError(f"bad power exponent: {parts[1]!r}")
        return gf.power(alpha)
    if parts[0] == "entropy" and len(parts) == 2:
        try:
            k = int(parts[1])
        except ValueError:
            raise InvalidInputError(f"bad entropy support size: {parts[1]!r}")
        return gf.entropy_log2(k)
    raise InvalidInputError(
        f"unknown g descriptor {text!r}; expected power:ALPHA or entropy:K"
    )


def parse_dist(text: str) -> dist_mod.DiscreteDistribution:
    """Parse uniform:K, zipf:K:S, geometric:K:Q, or explicit:PATH."""
    parts = text.split(":", 1)
    if parts[0] == "explicit":
        if len(parts) != 2 or not parts[1]:
            raise InvalidInputError("explicit distribution needs a file path")
        return dist_mod.from_file(parts[1])
    arity = {"uniform": (int,), "zipf": (int, float), "geometric": (int, float)}
    if parts[0] not in arity:
        raise InvalidInputError(f"unknown distribution family {parts[0]!r}")
    raw = text.split(":")[1:]
    casts = arity[parts[0]]
    if len(raw) != len(casts):
        raise InvalidInputError(
            f"{parts[0]} takes {len(casts)} parameter(s), got {len(raw)}")
    try:
        params = [cast(v) for cast, v in zip(casts, raw)]
    except ValueError:
        raise InvalidInputError(f"malformed distribution descriptor {text!r}")
    return dist_mod.make_family(parts[0], *params)


def parse_eps_grid(text: str) -> np.ndarray:
    """Parse 'a:b:step' (inclusive of b up to step/2) or 'e1,e2,...'."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise InvalidInputError(f"bad grid spec {text!r}; want a:b:step")
        try:
            a, b, step = (float(p) for p in pieces)
        except ValueError:
            raise InvalidInputError(f"non-numeric grid spec {text!r}")
        if step <= 0 or b < a:
            raise InvalidInputError("grid requires step > 0 and b >= a")
        grid = np.arange(a, b + 0.5 * step, step)
    else:
        try:
            grid = np.array([float(p) for p in text.split(",") if p], dtype=float)
        except ValueError:
            raise InvalidInputError(f"non-numeric grid spec {text!r}")
    if grid.size == 0 or np.any(grid < 0):
        raise InvalidInputError("epsilon grid must be nonempty and nonnegative")
    return grid


def parse_n_list(text: str) -> List[int]:
    try:
        ns = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise InvalidInputError(f"bad sample-size list {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise InvalidInputError("sample sizes must be positive integers")
    return ns


# ---------------------------------------------------------------------------
# profile readers


def _read_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh]


def read_tokens(path: str) -> SampleProfile:
    """One token per line; blank lines ignored."""
    counts: Dict[str, int] = {}
    for tok in _read_lines(path):
        if tok:
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise InvalidInputError(f"no tokens found in {path}")
    return profile_from_counts(counts)


def _split_pair(line: str, path: str) -> Tuple[str, str]:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 2:
        raise InvalidInputError(f"{path}: expected two comma-separated fields, got {line!r}")
    return parts[0], parts[1]


def read_count_csv(path: str) -> SampleProfile:
    """Lines of token,count; a leading header row is skipped."""
    counts: Dict[str, int] = {}
    for i, line in enumerate(_read_lines(path)):
        if not line:
            continue
        key, val = _split_pair(line, path)
        try:
            c = int(val)
        except ValueError:
            if i == 0:
                continue
            raise InvalidInputError(f"{path}: bad count {val!r}")
        if key in counts:
            raise InvalidInputError(f"{path}: duplicate token {key!r}")
        counts[key] = c
    if not counts:
        raise InvalidInputError(f"no counts found in {path}")
    return profile_from_counts(counts)


def read_phi_csv(path: str, n: int) -> SampleProfile:
    """Lines of l,phi_l; requires the total sample size n."""
    phi: Dict[int, int] = {}
    for i, line in enumerate(_read_lines(path)):
        if not line:
            continue
        key, val = _split_pair(line, path)
        try:
            l, count = int(key), int(val)
        except ValueError:
            if i == 0:
                continue
            raise InvalidInputError(f"{path}: bad profile row {line!r}")
        if l in phi:
            raise InvalidInputError(f"{path}: duplicate multiplicity {l}")
        phi[l] = count
    return profile_from_phi(phi, n)


def write_phi_csv(profile: SampleProfile, out: TextIO) -> None:
    out.write("l,phi_l\n")
    for l in sorted(profile.phi):
        out.write(f"{l},{profile.phi[l]}\n")


# ---------------------------------------------------------------------------
# table output


def _write_table(header: Sequence[str], rows: Sequence[Sequence[float]],
                 fmt: str, out: TextIO, meta: Optional[dict] = None) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = dict(meta or {})
        payload["columns"] = list(header)
        payload["rows"] = [[float(v) for v in row] for row in rows]
        json.dump(payload, out, indent=2)
        out.write("\n")


def read_csv_table(path: str) -> Tuple[List[str], np.ndarray]:
    """Read back a CSV emitted by this CLI: header plus a float matrix."""
    lines = [line for line in _read_lines(path) if line]
    if not lines:
        raise InvalidInputError(f"{path}: empty table")
    header = lines[0].split(",")
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        raise InvalidInputError(f"{path}: non-numeric table body")
    if data.ndim != 2 or data.shape[1] != len(header):
        raise InvalidInputError(f"{path}: ragged table")
    return header, data


def _open_out(path: Optional[str]) -> Tuple[TextIO, bool]:
    if path is None or path == "-":
        return sys.stdout, False
    return open(_resolve_path(path), "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.format == "tokens":
        profile = read_tokens(args.input)
    elif args.format == "counts":
        profile = read_count_csv(args.input)
    else:
        if args.n is None:
            raise InvalidInputError("--format phi requires --n")
        profile = read_phi_csv(args.input, args.n)

    if args.emit_phi:
        with open(_resolve_path(args.emit_phi), "w", encoding="utf-8") as fh:
            write_phi_csv(profile, fh)

    def _maybe_clamp(x: float) -> float:
        return min(1.0, max(0.0, x)) if args.clamp else x

    report: Dict[str, object] = {
        "n": profile.n,
        "phi": {str(l): profile.phi[l] for l in sorted(profile.phi)},
        "good_turing": _maybe_clamp(est.estimate(est.good_turing(), profile)),
    }
    alpha = args.alpha
    if alpha is not None:
        kind = est.generalized_good_turing(alpha)
        report["generalized"] = {
            "alpha": alpha,
            "estimate": _maybe_clamp(est.estimate(kind, profile)),
            "bias_bound": (est.gt_bias_bound(profile.n, alpha)
                           if profile.n > 2 * alpha else None),
        }
    if args.eps:
        g_alpha = float(alpha) if alpha is not None else 1.0
        kind_name = "m0" if g_alpha == 1.0 else "m0alpha"
        eps = parse_eps_grid(args.eps)
        report["deviation_bounds"] = {
            "g": f"power:{g_alpha:g}",
            "eps": [float(e) for e in eps],
            "right": [tb.corollary_right_tail(kind_name, profile.n, float(e),
                                              alpha=g_alpha) for e in eps],
            "left": [tb.corollary_left_tail("m0alpha", profile.n, float(e),
                                            alpha=g_alpha) for e in eps],
        }

    out, close = _open_out(args.out)
    try:
        json.dump(report, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0


def fig1_rows(n: int) -> Tuple[List[str], List[List[float]]]:
    """Bound curves on eps = 0, 0.05, ..., 0.7 for the identity g."""
    g = gf.power(1.0)
    curves = [tb.curve(family, n, g, _FIG_EPS)
              for family in ("subgauss", "poly:2", "poly:5")]
    rows = [[e] + [c.bounds[j] for c in curves] for j, e in enumerate(curves[0].eps)]
    return ["eps", "subgauss", "r2", "r5"], rows


def cmd_fig1(args: argparse.Namespace) -> int:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    for n in _FIG_NS:
        header, rows = fig1_rows(n)
        path = os.path.join(outdir, f"tail_curves_n{n}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            _write_table(header, rows, "csv", fh)
        print(path)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    g = parse_g(args.g)
    eps = parse_eps_grid(args.eps_grid)
    curve = tb.curve(args.family, args.n, g, eps)
    rows = [[float(e), float(b), float(x)]
            for e, b, x in zip(curve.eps, curve.bounds, curve.exponents)]
    out, close = _open_out(args.path)
    try:
        _write_table(["eps", "bound", "exponent"], rows, args.out, out,
                     meta={"family": curve.family, "n": curve.n,
                           "g": curve.g_descriptor})
    finally:
        if close:
            out.close()
    return 0


def cmd_ustar(args: argparse.Namespace) -> int:
    g = parse_g(args.g)
    res = u_star(args.n, g, args.r)
    json.dump({"value": res.value, "argmax": res.argmax, "n": res.n,
               "r": res.r}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _estimator_for(args: argparse.Namespace, g: gf.GFunction) -> est.EstimatorKind:
    if args.estimator == "plugin":
        return est.plugin()
    if args.estimator == "goodturing":
        return est.good_turing()
    if args.estimator == "generalized":
        alpha = args.alpha if args.alpha is not None else (
            int(g.alpha) if g.kind == "power" else None)
        if alpha is None:
            raise InvalidInputError("generalized estimator needs --alpha")
        return est.generalized_good_turing(int(alpha))
    # auto: match the target functional when possible
    if g.kind == "power" and float(g.alpha) == int(g.alpha):
        return est.generalized_good_turing(int(g.alpha))
    return est.plugin()


def cmd_simulate(args: argparse.Namespace) -> int:
    out, close = _open_out(args.path)
    try:
        if args.task == "dirichlet":
            if args.alpha is None:
                raise InvalidInputError("--task dirichlet requires --alpha")
            ns = parse_n_list(args.n_list)
            header = ["n", "variance"]
            rows: List[List[float]] = []
            mc = args.trials is not None and args.trials > 0
            if mc:
                header += ["mc_variance", "mc_se"]
            for n in ns:
                row = [float(n),
                       risk_lab.dirichlet_prior_variance(n, args.c, int(args.alpha))]
                if mc:
                    m, se = risk_lab.dirichlet_mc_variance(
                        n, args.c, int(args.alpha), args.trials, args.seed)
                    row += [m, se]
                rows.append(row)
            _write_table(header, rows, args.out, out,
                         meta={"task": "dirichlet", "alpha": int(args.alpha),
                               "c": args.c})
            return 0

        if args.g is None or args.dist is None:
            raise InvalidInputError(f"--task {args.task} requires --g and --dist")
        g = parse_g(args.g)
        dist = parse_dist(args.dist)
        ns = parse_n_list(args.n_list)

        if args.task == "risk":
            kind = _estimator_for(args, g)
            report = risk_lab.mc_risk(dist, kind, g, ns, args.trials, args.seed)
            rows = [[float(r.n), float(r.trials), r.mse, r.se]
                    for r in report.rows]
            meta = {"task": "risk", "estimator": report.estimator,
                    "g": report.g_descriptor, "dist": report.dist_descriptor}
            if math.isfinite(report.slope):
                meta["slope"] = report.slope
                meta["intercept"] = report.intercept
            _write_table(["n", "trials", "mse", "se"], rows, args.out,
                         out, meta=meta)
            return 0

        # tail dominance
        eps = parse_eps_grid(args.eps_grid or "0.01:0.3:0.05")
        header_set: List[str] = []
        all_rows: List[List[float]] = []
        for n in ns:
            rep = risk_lab.mc_tail(dist, g, n, args.trials, eps, args.seed)
            names = sorted(rep.bounds)
            if not header_set:
                header_set = (["n", "eps", "right_freq", "right_se",
                               "left_freq", "left_se"] + names)
            for j, e in enumerate(rep.eps):
                row = [float(n), float(e), rep.right_freq[j], rep.right_se[j],
                       rep.left_freq[j], rep.left_se[j]]
                row += [rep.bounds[name][j] for name in names]
                all_rows.append(row)
        _write_table(header_set, all_rows, args.out, out,
                     meta={"task": "tail", "g": g.descriptor(),
                           "dist": dist.label, "trials": args.trials})
        return 0
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="missingmass",
        description="Missing-mass estimation, concentration bounds, and "
                    "Monte Carlo checks for discrete distributions.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="estimate missing mass from a sample")
    pe.add_argument("--input", required=True, help="input file path")
    pe.add_argument("--format", choices=("tokens", "counts", "phi"),
                    default="tokens",
                    help="tokens: one token per line; counts: token,count "
                         "rows; phi: l,phi_l rows (needs --n)")
    pe.add_argument("--n", type=int, help="sample size (phi format only)")
    pe.add_argument("--alpha", type=int,
                    help="also report the order-alpha estimator; bias bound "
                         "needs n > 2*alpha")
    pe.add_argument("--eps", help="comma list or a:b:step grid of deviations "
                                  "to bound (right bounds need n >= 3)")
    pe.add_argument("--clamp", action="store_true",
                    help="clamp estimates into [0, 1]")
    pe.add_argument("--emit-phi", help="write the occupancy profile as CSV")
    pe.add_argument("--out", help="output JSON path (default stdout)")
    pe.set_defaults(func=cmd_estimate)

    pf = sub.add_parser("fig1", help="emit reference tail-curve CSVs "
                                     "for n in {20, 100, 1000}")
    pf.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} "
                                     "or the working directory)")
    pf.set_defaults(func=cmd_fig1)

    pb = sub.add_parser("bounds", help="evaluate one bound family on a grid")
    pb.add_argument("--family", required=True,
                    help="subgauss | subgamma | ssg | poly:R (subgamma, ssg "
                         "and poly need n >= 3)")
    pb.add_argument("--g", required=True, help="power:ALPHA or entropy:K "
                                               "(power needs alpha >= 1 here)")
    pb.add_argument("--n", type=int, required=True, help="sample size")
    pb.add_argument("--eps-grid", required=True, help="a:b:step or comma list")
    pb.add_argument("--out", choices=("csv", "json"), default="csv",
                    help="output format")
    pb.add_argument("--path", help="output file (default stdout)")
    pb.set_defaults(func=cmd_bounds)

    pu = sub.add_parser("ustar", help="maximize g(p)^r(1-p)^n(1-(1-p)^n)/p")
    pu.add_argument("--g", required=True, help="power:ALPHA or entropy:K")
    pu.add_argument("--n", type=int, required=True, help="sample size (>= 1)")
    pu.add_argument("--r", type=int, required=True, help="moment order (>= 2)")
    pu.set_defaults(func=cmd_ustar)

    ps = sub.add_parser("simulate", help="Monte Carlo risk / tail / Dirichlet")
    ps.add_argument("--task", choices=("risk", "tail", "dirichlet"),
                    required=True)
    ps.add_argument("--g", help="target functional (risk and tail tasks)")
    ps.add_argument("--dist", help="uniform:K | zipf:K:S | geometric:K:Q | "
                                   "explicit:PATH")
    ps.add_argument("--n-list", required=True, help="comma list of sample sizes")
    ps.add_argument("--trials", type=int, default=10000,
                    help="Monte Carlo trials (risk >= 100, tail >= 1000; "
                         "dirichlet: 0 skips the posterior check)")
    ps.add_argument("--seed", type=int, default=0, help="master seed")
    ps.add_argument("--alpha", type=int,
                    help="power exponent (dirichlet task, generalized estimator)")
    ps.add_argument("--c", type=float, default=1.0,
                    help="support scale: the prior uses k = round(c*n^2) atoms")
    ps.add_argument("--estimator",
                    choices=("auto", "goodturing", "generalized", "plugin"),
                    default="auto", help="risk task estimator")
    ps.add_argument("--eps-grid", help="deviations for the tail task")
    ps.add_argument("--threads", type=int, default=0,
                    help="accepted for compatibility; changes neither the "
                         "results nor the speed")
    ps.add_argument("--out", choices=("csv", "json"), default="csv",
                    help="output format")
    ps.add_argument("--path", help="output file (default stdout)")
    ps.set_defaults(func=cmd_simulate)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
