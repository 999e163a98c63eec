"""Command-line interface for missing-mass estimation and tail bounds.

Subcommands
-----------
estimate   Good-Turing style estimates and optional deviation bounds of a
           sample file, profiled by the readers of empirical.
fig1       Emit reference tail-bound curves (sub-Gaussian, order-2 and
           order-5 polynomial filters) for n in {20, 100, 1000}.
bounds     Evaluate one bound family of tail_bounds.FAMILIES on an epsilon grid.
ustar      Maximize g(p)^r (1-p)^n (1-(1-p)^n) / p over p.
simulate   Monte Carlo: estimator risk curves, tail-frequency dominance
           checks, or Dirichlet-prior variance curves.

Exit codes: 0 success, 2 malformed input, 3 out-of-regime parameters
(including sizes whose arrays cannot be allocated), 4 I/O failure,
5 numerical failure.  Relative output paths are resolved
against the MISSINGMASS_OUTDIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import distributions as dist_mod
from . import estimators as est
from . import gfunction as gf
from . import risk_lab
from . import tail_bounds as tb
from .empirical import (SampleProfile, _not_utf8, phi_csv, profile_from_lines, read_count_csv,
                        read_phi_csv)
from .errors import InvalidInputError, NumericalError, RegimeError
from .ustar_engine import u_star

OUTDIR_ENV = "MISSINGMASS_OUTDIR"

#: Most points an a:b:step epsilon grid may have.
MAX_EPS_GRID_POINTS = 10**6

_FIG_NS = (20, 100, 1000)
_FIG_EPS = np.arange(15) * 0.05


def _resolve_path(path: Optional[str]) -> Optional[str]:
    """The file an output option names: None for stdout (no option or "-"),
    else the path, resolved against $MISSINGMASS_OUTDIR when relative."""
    if path is None or path == "-":
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def parse_eps_grid(text: str) -> np.ndarray:
    """Parse 'a:b:step' (inclusive of b up to step/2, at most
    MAX_EPS_GRID_POINTS points; b = a is the one point a) or 'e1,e2,...'."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise InvalidInputError(f"bad grid spec {text!r}; want a:b:step")
        try:
            a, b, step = (float(p) for p in pieces)
        except ValueError:
            raise InvalidInputError(f"non-numeric grid spec {text!r}")
        if not all(map(math.isfinite, (a, b, step))):
            raise InvalidInputError(f"non-finite grid spec {text!r}")
        if step <= 0 or b < a:
            raise InvalidInputError("grid requires step > 0 and b >= a")
        # The grid has ceil((b - a)/step + 1/2) points; check before allocating.
        if (b - a) / step + 0.5 > MAX_EPS_GRID_POINTS:
            raise InvalidInputError(
                f"grid spec {text!r} has more than {MAX_EPS_GRID_POINTS} points"
            )
        stop = b + 0.5 * step
        if stop == math.inf:
            raise InvalidInputError(f"grid spec {text!r}: b + step/2 is past the double range")
        # stop rounds to a only where b = a
        grid = np.arange(a, stop, step) if stop > a else np.array([a])
    else:
        try:
            grid = np.array([float(p) for p in text.split(",") if p], dtype=float)
        except ValueError:
            raise InvalidInputError(f"non-numeric grid spec {text!r}")
    if grid.size == 0 or not np.all((grid >= 0) & np.isfinite(grid)):
        raise InvalidInputError("epsilon grid must be nonempty, finite and nonnegative")
    return grid


def parse_n_list(text: str) -> List[int]:
    try:
        ns = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise InvalidInputError(f"bad sample-size list {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise InvalidInputError("sample sizes must be positive integers")
    return ns


def read_tokens(path: str) -> SampleProfile:
    """Profile of a UTF-8 file with one token per line (empirical.profile_from_lines)."""
    try:
        with open(path, "rb") as fh:
            profile = profile_from_lines(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc)
    if not profile.phi:
        raise InvalidInputError(f"no tokens found in {path}")
    return profile


# ---------------------------------------------------------------------------
# output: every command builds its whole output as one string, then _emit
# writes it, so bad input never creates or truncates a file.


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(header: Sequence[str], rows: Sequence[Sequence[float]],
           fmt: str, meta: Optional[dict] = None) -> str:
    """CSV (15 significant digits) or JSON (meta, columns, rows) text; JSON
    writes an infinity as the string CSV prints for it, "inf" or "-inf"."""
    if fmt == "csv":
        lines = (",".join(["%.15g"] * len(header)) + "\n") * len(rows)
        return ",".join(header) + "\n" + lines % tuple(itertools.chain.from_iterable(rows))
    payload = dict(meta or {})
    payload["columns"] = list(header)
    payload["rows"] = [[v if math.isfinite(v) else "%.15g" % v for v in map(float, row)]
                       for row in rows]
    return _json(payload)


def _emit(text: str, path: Optional[str]) -> None:
    """Write text to stdout (path None) or to the file at path."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.format == "tokens":
        profile = read_tokens(args.input)
    elif args.format == "counts":
        profile = read_count_csv(args.input)
    else:
        profile = read_phi_csv(args.input)
        if not profile.n:
            raise InvalidInputError(f"no sample found in {args.input}: sum of l*phi_l = 0")
        if args.n not in (None, profile.n):
            raise InvalidInputError(
                f"inconsistent profile: sum of l*phi_l = {profile.n} != --n {args.n}")

    report: Dict[str, object] = {
        "n": profile.n,
        "phi": {str(l): profile.phi[l] for l in sorted(profile.phi)},
        "good_turing": est.estimate(est.good_turing(), profile),
    }
    alpha = args.alpha
    if alpha is not None:
        kind = est.generalized_good_turing(alpha)
        report["generalized"] = {
            "alpha": alpha,
            "estimate": est.estimate(kind, profile),
            "bias_bound": (est.gt_bias_bound(profile.n, alpha)
                           if profile.n > 2 * alpha else None),
        }
    if args.eps:
        g = gf.power(alpha or 1)
        eps = parse_eps_grid(args.eps).tolist()
        report["deviation_bounds"] = {
            "g": g.descriptor(),
            "eps": eps,
            "right": list(tb.curve("right_corollary", profile.n, g, eps)["bound"]),
            "left": list(tb.curve("left_corollary", profile.n, g, eps)["bound"]),
        }

    text = _json(report)
    if args.emit_phi:
        _emit(phi_csv(profile), _resolve_path(args.emit_phi))
    _emit(text, _resolve_path(args.out))
    return 0


def fig1_rows(n: int) -> Tuple[List[str], List[List[float]]]:
    """Bound curves on eps = 0, 0.05, ..., 0.7 for the identity g."""
    g = gf.power(1.0)
    curves = [tb.curve(family, n, g, _FIG_EPS)
              for family in ("subgauss", "poly:2", "poly:5")]
    rows = [list(row) for row in zip(_FIG_EPS.tolist(), *(c["bound"] for c in curves))]
    return ["eps", "subgauss", "r2", "r5"], rows


def cmd_fig1(args: argparse.Namespace) -> int:
    outdir = _resolve_path(args.outdir) or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    tables = [_table(*fig1_rows(n), "csv") for n in _FIG_NS]
    for n, text in zip(_FIG_NS, tables):
        path = os.path.join(outdir, f"tail_curves_n{n}.csv")
        _emit(text, path)
        print(path)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    g = gf.parse(args.g)
    eps = parse_eps_grid(args.eps_grid)
    table = tb.curve(args.family, args.n, g, eps)
    rows = list(zip(eps.tolist(), *table.values()))
    meta = {"family": tb.parse_family(args.family).name, "n": args.n, "g": g.descriptor()}
    _emit(_table(["eps", *table], rows, args.out, meta), _resolve_path(args.path))
    return 0


def cmd_ustar(args: argparse.Namespace) -> int:
    g = gf.parse(args.g)
    res = u_star(args.n, g, args.r)
    if res.value == 0.0:
        # u_r > 0 on (0, 1), so a maximum of 0 is an underflow: the value
        # printed would be wrong.
        raise NumericalError(f"u*_{args.r} underflows to 0 "
                             f"(log u*_{args.r} = {res.log_value:.6g})")
    _emit(_json({"value": res.value, "argmax": res.argmax, "n": args.n, "r": args.r}), None)
    return 0


def _estimator_for(args: argparse.Namespace, g: gf.GFunction) -> est.EstimatorKind:
    if args.estimator == "plugin":
        return est.plugin()
    if args.estimator == "goodturing":
        return est.good_turing()
    power_order = g.alpha if g.kind == "power" else None
    if args.estimator == "generalized":
        alpha = args.alpha if args.alpha is not None else power_order
        if alpha is None:
            raise InvalidInputError("generalized estimator needs --alpha")
        return est.generalized_good_turing(alpha)
    # auto: the order-alpha estimator when g = power(alpha), alpha an integer, else the plugin
    integral = power_order is not None and power_order.is_integer()
    return est.EstimatorKind(power_order if integral else 0)


def _simulate_table(args: argparse.Namespace) -> Tuple[List[str], List[Sequence[float]], dict]:
    """Header, rows and JSON meta of one simulate task."""
    if args.task == "dirichlet":
        if args.alpha is None:
            raise InvalidInputError("--task dirichlet requires --alpha")
        ns = parse_n_list(args.n_list)
        table = risk_lab.dirichlet_table(ns, args.c, args.alpha, args.trials, args.seed)
        rows = list(zip(ns, *table.values()))
        return ["n", *table], rows, {"task": "dirichlet", "alpha": args.alpha, "c": args.c}

    if args.g is None or args.dist is None:
        raise InvalidInputError(f"--task {args.task} requires --g and --dist")
    g = gf.parse(args.g)
    dist = dist_mod.parse(args.dist)
    ns = parse_n_list(args.n_list)

    if args.task == "risk":
        kind = _estimator_for(args, g)
        table = risk_lab.mc_risk(dist, kind, g, ns, args.trials, args.seed)
        rows = list(zip(ns, [args.trials] * len(ns), *table.values()))
        meta = {"task": "risk", "estimator": kind.descriptor(),
                "g": g.descriptor(), "dist": dist.label}
        if len(ns) >= 3 and all(mse > 0.0 for mse in table["mse"]):
            meta["slope"], meta["intercept"] = risk_lab.rate_fit(list(zip(ns, table["mse"])))
        return ["n", "trials", *table], rows, meta

    # tail dominance
    eps = parse_eps_grid(args.eps_grid or "0.01:0.3:0.05")
    rows = []
    for n in ns:
        table = risk_lab.mc_tail(dist, g, n, args.trials, eps, args.seed)
        rows += [[n, *cells] for cells in zip(eps.tolist(), *table.values())]
    return ["n", "eps", *table], rows, {"task": "tail", "g": g.descriptor(),
                                        "dist": dist.label, "trials": args.trials}


def cmd_simulate(args: argparse.Namespace) -> int:
    header, rows, meta = _simulate_table(args)
    _emit(_table(header, rows, args.out, meta), _resolve_path(args.path))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, so every main() call in one process can share it."""
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
                         "rows; phi: l,phi_l rows")
    pe.add_argument("--n", type=int, help="phi format only: the sample size, checked "
                                          "against sum l*phi_l (default: that sum)")
    pe.add_argument("--alpha", type=int,
                    help="also report the order-alpha estimator; bias bound "
                         "needs n > 2*alpha")
    pe.add_argument("--eps", help="comma list or a:b:step grid of deviations "
                                  "to bound (right bounds need n >= 3)")
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
                    help=f"{tb.FAMILY_LIST}: the tails each bounds, and the one g where named "
                         "(any other exits 3); most need n >= 3, or more by g")
    pb.add_argument("--g", required=True, help="power:ALPHA or entropy:K "
                                               "(power needs 1 <= alpha <= 1e300 here)")
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
                    help="Monte Carlo trials (risk >= 100, tail >= 1000, "
                         "dirichlet >= 0, where 0 skips the posterior check)")
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
                    help="accepted for compatibility (bench/worker.py passes "
                         "it); changes neither the results nor the speed")
    ps.add_argument("--out", choices=("csv", "json"), default="csv",
                    help="output format")
    ps.add_argument("--path", help="output file (default stdout)")
    ps.set_defaults(func=cmd_simulate)

    return p


#: Exit code and stderr prefix of each error class a command may raise.
_EXITS = {InvalidInputError: (2, "error"), RegimeError: (3, "out of regime"),
          MemoryError: (3, "out of memory"), OSError: (4, "i/o failure"),
          NumericalError: (5, "numerical failure"), OverflowError: (5, "numerical failure")}
#: How numpy's ValueError begins when it refuses an array size it cannot
#: address; it exits as a MemoryError does.
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded",
            "Maximum allowed size exceeded")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (*_EXITS, ValueError) as exc:
        cls = MemoryError if str(exc).startswith(_TOO_BIG) else type(exc)
        if not issubclass(cls, tuple(_EXITS)):
            raise
        code, prefix = next(_EXITS[c] for c in cls.__mro__ if c in _EXITS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
