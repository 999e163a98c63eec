"""Monte Carlo lab: estimator risk, empirical tails versus bounds, Dirichlet lower bound.

Reproducibility contract: trials run in blocks of a fixed size that depends
only on the support size K and the sample size n (at most _BLOCK_BUDGET
elements per block array), never on the thread count.  Block b of an
experiment at sample size n draws from its own RNG, seeded with
SeedSequence((seed, n, b)), so a fixed seed gives byte-identical results, and
a run of T trials reproduces the first T trials of any longer run.  The
``threads`` arguments are accepted for compatibility and change neither the
results nor the speed.  Monte Carlo numbers differ from those of versions
that seeded one RNG per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import tail_bounds
from .distributions import DiscreteDistribution, expected_missing
from .errors import InvalidInputError, RegimeError
from .estimators import GENERALIZED, GOOD_TURING, PLUGIN, EstimatorKind, choose_float
from .gfunction import GFunction

#: Elements per block array; a block holds max(1, _BLOCK_BUDGET // width)
#: trials.  Larger budgets cost resident memory and gain little speed.
_BLOCK_BUDGET = 2**16


@dataclass(frozen=True)
class RiskRow:
    n: int
    trials: int
    mse: float
    se: float


@dataclass(frozen=True)
class RiskReport:
    estimator: str
    g_descriptor: str
    dist_descriptor: str
    rows: Tuple[RiskRow, ...]
    slope: float
    intercept: float


@dataclass(frozen=True)
class TailReport:
    n: int
    g_descriptor: str
    dist_descriptor: str
    trials: int
    eps: Tuple[float, ...]
    right_freq: Tuple[float, ...]
    right_se: Tuple[float, ...]
    left_freq: Tuple[float, ...]
    left_se: Tuple[float, ...]
    bounds: Dict[str, Tuple[float, ...]]


def _block_rng(seed: int, n: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n, block))))


def _blocks(trials: int, width: int) -> Iterator[Tuple[int, int, int]]:
    """(block index, first trial, end trial) over blocks of
    max(1, _BLOCK_BUDGET // width) trials."""
    size = max(1, _BLOCK_BUDGET // width)
    for block, lo in enumerate(range(0, trials, size)):
        yield block, lo, min(lo + size, trials)


def _occupancy(
    probs: np.ndarray, gvec: np.ndarray, n: int, trials: int, seed: int, alpha: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial missing mass G0 = sum_x g(p_x) [F_x = 0] and phi_alpha =
    #{x : F_x = alpha} over `trials` iid samples of size n from probs.

    A block of B trials draws a (B, n) array of uniforms, maps them to
    letters by inverse CDF as distributions.sample does, and counts all B
    samples with one bincount over the flat offsets row*K + letter.
    """
    k = probs.size
    cum = np.cumsum(probs)
    g0 = np.empty(trials, dtype=float)
    phi = np.empty(trials, dtype=np.int64)
    for block, lo, hi in _blocks(trials, max(k, n)):
        rows = hi - lo
        u = _block_rng(seed, n, block).random((rows, n))
        idx = np.minimum(np.searchsorted(cum, u, side="right"), k - 1)
        idx += k * np.arange(rows)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * k).reshape(rows, k)
        g0[lo:hi] = (counts == 0) @ gvec
        phi[lo:hi] = np.count_nonzero(counts == alpha, axis=1)
    return g0, phi


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    trials = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(values)), se


def _g_vector(dist: DiscreteDistribution, g: GFunction) -> np.ndarray:
    """g(p_x) aligned with the support; zero-probability letters contribute 0."""
    gv = np.zeros(dist.size, dtype=float)
    mask = dist.probs > 0.0
    gv[mask] = g.eval(dist.probs[mask])
    return gv


def _check_compatible(kind: EstimatorKind, g: GFunction) -> int:
    """Returns the order alpha the estimator targets; 0 for plugin."""
    if kind.variant == PLUGIN:
        return 0
    alpha = 1 if kind.variant == GOOD_TURING else kind.alpha
    if g.kind != "power" or not float(g.alpha).is_integer() or int(g.alpha) != alpha:
        raise InvalidInputError(
            f"estimator {kind.descriptor()} targets g = power:{alpha}; "
            f"got {g.descriptor()}"
        )
    return alpha


def _estimate_errors(
    dist: DiscreteDistribution, kind: EstimatorKind, g: GFunction, n: int,
    trials: int, seed: int,
) -> np.ndarray:
    """Per-trial estimate - realized missing mass G0 at sample size n."""
    if trials < 100:
        raise InvalidInputError("Monte Carlo risk and bias need trials >= 100")
    alpha = _check_compatible(kind, g)
    if alpha > 0 and n < alpha:
        raise RegimeError(f"n = {n} < alpha = {alpha}")
    g0, phi = _occupancy(dist.probs, _g_vector(dist, g), n, trials, seed, alpha)
    est = phi / choose_float(n, alpha) if alpha > 0 else 0.0
    return est - g0


def mc_risk(
    dist: DiscreteDistribution,
    kind: EstimatorKind,
    g: GFunction,
    n_list: Sequence[int],
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> RiskReport:
    """Mean squared error (estimate - realized missing mass)^2 per n, with a
    log-log rate fit across n."""
    rows = []
    for n in n_list:
        n = int(n)
        mse, se = _mean_se(np.square(_estimate_errors(dist, kind, g, n, trials, seed)))
        rows.append(RiskRow(n=n, trials=trials, mse=mse, se=se))
    if len(rows) >= 3 and all(r.mse > 0.0 for r in rows):
        slope, intercept, _ = rate_fit([(r.n, r.mse) for r in rows])
    else:
        slope, intercept = math.nan, math.nan
    return RiskReport(
        estimator=kind.descriptor(),
        g_descriptor=g.descriptor(),
        dist_descriptor=dist.label,
        rows=tuple(rows),
        slope=slope,
        intercept=intercept,
    )


def mc_bias(
    dist: DiscreteDistribution,
    kind: EstimatorKind,
    g: GFunction,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> Tuple[float, float]:
    """Empirical bias (mean of estimate - realized missing mass) and its
    standard error."""
    return _mean_se(_estimate_errors(dist, kind, g, int(n), trials, seed))


def _bound_columns(
    n: int, g: GFunction, eps: Sequence[float]
) -> Dict[str, Tuple[float, ...]]:
    """Bound values per family for the deviation of the missing mass of g."""
    cols: Dict[str, Tuple[float, ...]] = {}
    cols["right_subgauss_519"] = tuple(
        tail_bounds.theorem2_sub_gaussian_right(n, g, e) for e in eps
    )
    cols["left_subgauss_519"] = cols["right_subgauss_519"]
    cols["left_exact_u2"] = tuple(tail_bounds.left_tail(n, g, e) for e in eps)
    spec_r2 = tail_bounds.build_spec(n, g, 2)
    cols["right_poly_r2"] = tuple(tail_bounds.tail_bound(spec_r2, e) for e in eps)
    if g.kind == "power":
        a = g.alpha
        cols["left_corollary"] = tuple(
            tail_bounds.corollary_left_tail("m0alpha", n, e, alpha=a) for e in eps
        )
        if a == 1.0:
            cols["right_corollary"] = tuple(
                tail_bounds.corollary_right_tail("m0", n, e) for e in eps
            )
        elif a > 1.0:
            cols["right_corollary"] = tuple(
                tail_bounds.corollary_right_tail("m0alpha", n, e, alpha=a) for e in eps
            )
    elif g.kind == "entropy_log2":
        k = g.k_floor
        cols["left_corollary"] = tuple(
            tail_bounds.corollary_left_tail("entropy", n, e, k=k) for e in eps
        )
        cols["right_corollary"] = tuple(
            tail_bounds.corollary_right_tail("entropy", n, e, k=k) for e in eps
        )
    return cols


def mc_tail(
    dist: DiscreteDistribution,
    g: GFunction,
    n: int,
    trials: int,
    eps_grid: Sequence[float],
    seed: int,
    threads: Optional[int] = None,
) -> TailReport:
    """Empirical Pr(G0 - E[G0] >= eps) and Pr(G0 - E[G0] <= -eps) per eps,
    against the bound families; E[G0] is analytic.

    Binomial standard errors are floored at 1/trials so that dominance checks
    at empirical frequency 0 stay meaningful.
    """
    if trials < 10**3:
        raise InvalidInputError("mc_tail needs trials >= 1000")
    n = int(n)
    eps = tuple(float(e) for e in eps_grid)
    g0, _ = _occupancy(dist.probs, _g_vector(dist, g), n, trials, seed, 0)
    dev = g0 - expected_missing(dist, n, g)
    floor = 1.0 / trials

    def freq_and_se(mask_counts: np.ndarray) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        freqs = tuple(float(c) / trials for c in mask_counts)
        ses = tuple(
            max(math.sqrt(f * (1.0 - f) / trials), floor) for f in freqs
        )
        return freqs, ses

    right_counts = [int(np.count_nonzero(dev >= e)) for e in eps]
    left_counts = [int(np.count_nonzero(dev <= -e)) for e in eps]
    right_freq, right_se = freq_and_se(right_counts)
    left_freq, left_se = freq_and_se(left_counts)
    return TailReport(
        n=n,
        g_descriptor=g.descriptor(),
        dist_descriptor=dist.label,
        trials=trials,
        eps=eps,
        right_freq=right_freq,
        right_se=right_se,
        left_freq=left_freq,
        left_se=left_se,
        bounds=_bound_columns(n, g, eps),
    )


def _tau_log(u: float, v: float) -> float:
    """log tau(u, v) = log Gamma(u+v) - log Gamma(u)."""
    return math.lgamma(u + v) - math.lgamma(u)


def _dirichlet_setup(n: int, c_param: float, alpha: int) -> Tuple[int, float]:
    if int(n) != n or n < 2:
        raise InvalidInputError("need integer n >= 2")
    if not (c_param > 0.0):
        raise InvalidInputError("need c > 0")
    if int(alpha) != alpha or alpha < 1:
        raise InvalidInputError("need integer alpha >= 1")
    k = int(round(c_param * n * n))
    if k < 2:
        raise InvalidInputError(f"k = round(c n^2) = {k} < 2")
    return k, k / n


def dirichlet_prior_variance(n: int, c_param: float, alpha: int) -> float:
    """Average conditional variance of the order-alpha missing mass under a
    symmetric Dirichlet prior with k = c n^2 letters and weights 1/n:

        T = k A1 (A2 - A3) + k(k-1) A4 A5 (A6 - A7).

    A1, A4 (products of n near-unity factors) go through sum-log1p; the
    near-cancelling differences go through exp/expm1.  Falls like n^-(2a-1)
    and lower-bounds the minimax risk of estimating M_[0,alpha].
    """
    k, beta0 = _dirichlet_setup(n, c_param, alpha)
    n = int(n)
    alpha = int(alpha)
    l_n = np.arange(n, dtype=float)
    denom = n * (beta0 + l_n)
    log_a1 = float(np.sum(np.log1p(-1.0 / denom)))
    log_a4 = float(np.sum(np.log1p(-2.0 / denom)))

    l2 = np.arange(2 * alpha, dtype=float)
    l1 = np.arange(alpha, dtype=float)
    log_a2 = float(np.sum(np.log(1.0 / n + l2) - np.log(beta0 + n + l2)))
    log_a3 = 2.0 * float(np.sum(np.log(1.0 / n + l1) - np.log(beta0 + n + l1)))
    log_a5 = 2.0 * float(np.sum(np.log(1.0 / n + l1)))
    log_a6 = -float(np.sum(np.log(beta0 + n + l2)))
    log_a7 = -2.0 * float(np.sum(np.log(beta0 + n + l1)))

    diff_23 = -math.exp(log_a2) * math.expm1(log_a3 - log_a2)
    diff_67 = -math.exp(log_a6) * math.expm1(log_a7 - log_a6)
    return k * math.exp(log_a1) * diff_23 + k * (k - 1.0) * math.exp(log_a4 + log_a5) * diff_67


def _polya_unseen(k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Per-trial number of letters left unseen by n draws from the symmetric
    Dirichlet-multinomial with k letters of weight u = 1/n each.

    Uses the Polya-urn form (Blackwell & MacQueen 1973): draw i (from 0) is
    a new letter with probability (k - seen) u / (k u + i).  O(n) work per
    trial, vectorized across a block of trials.
    """
    u = 1.0 / n
    unseen = np.empty(trials, dtype=np.int64)
    for block, lo, hi in _blocks(trials, n):
        draws = _block_rng(seed, n, block).random((hi - lo, n))
        seen = np.zeros(hi - lo, dtype=np.int64)
        for i in range(n):
            seen += draws[:, i] < (k - seen) * u / (k * u + i)
        unseen[lo:hi] = k - seen
    return unseen


def dirichlet_mc_variance(
    n: int,
    c_param: float,
    alpha: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> Tuple[float, float]:
    """Monte Carlo estimate (mean, se) of E[Var(M_[0,alpha] | X^n)] under the
    same Dirichlet prior, via the posterior tau-ratio closed form.

    Given the sample, the conditional variance depends only on the number m
    of unseen letters: Var = A m(m-1) + B m with A, B from posterior moments
    (unseen letters are exchangeable with weight 1/n each).
    """
    if trials < 100:
        raise InvalidInputError("needs trials >= 100")
    k, beta0 = _dirichlet_setup(n, c_param, alpha)
    n = int(n)
    u, total = 1.0 / n, beta0 + n
    e1_log = _tau_log(u, alpha) - _tau_log(total, alpha)
    e2_log = _tau_log(u, 2 * alpha) - _tau_log(total, 2 * alpha)
    e11_log = 2.0 * _tau_log(u, alpha) - _tau_log(total, 2 * alpha)
    pair_coef = math.exp(e11_log) - math.exp(2.0 * e1_log)
    single_coef = math.exp(e2_log) - math.exp(2.0 * e1_log)
    m = _polya_unseen(k, n, trials, seed)
    return _mean_se(pair_coef * m * (m - 1.0) + single_coef * m)


def rate_fit(pairs) -> Tuple[float, float, float]:
    """OLS fit of log(value) on log(n); returns (slope, intercept, rms residual)."""
    if isinstance(pairs, RiskReport):
        pairs = [(row.n, row.mse) for row in pairs.rows]
    pts = [(float(n), float(v)) for n, v in pairs]
    if len(pts) < 3:
        raise InvalidInputError("rate fit needs at least 3 points")
    if any(v <= 0.0 for _, v in pts):
        raise InvalidInputError("rate fit needs positive values")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))
