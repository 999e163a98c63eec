"""Monte Carlo lab: estimator risk, empirical tails versus bounds, Dirichlet lower bound.

Reproducibility contract: trials run in blocks of a fixed size that depends
only on the support size K and the sample size n (at most _BLOCK_BUDGET
elements per block array), never on the thread count.  Block b of an
experiment at sample size n draws from its own RNG, seeded with
SeedSequence((seed, n, b)), so a fixed seed gives byte-identical results, and
a run of T trials reproduces the first T trials of any longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import tail_bounds
from .distributions import DiscreteDistribution, _inverse_cdf, expected_missing
from .errors import InvalidInputError, NumericalError, RegimeError
from .estimators import EstimatorKind, gt_value
from .gfunction import GFunction, power

#: Elements per block array; a block holds max(1, _BLOCK_BUDGET // width)
#: trials.  Larger budgets cost resident memory and gain little speed.
_BLOCK_BUDGET = 2**16

#: Largest estimated relative rounding error dirichlet_prior_variance returns.
_DIRICHLET_REL_TOL = 1e-6


@dataclass(frozen=True)
class RiskRow:
    n: int
    mse: float
    se: float


@dataclass(frozen=True)
class TailReport:
    """Empirical tail frequencies, their standard errors and the bound
    columns, one entry per eps of the grid."""

    right_freq: Tuple[float, ...]
    right_se: Tuple[float, ...]
    left_freq: Tuple[float, ...]
    left_se: Tuple[float, ...]
    bounds: Dict[str, Tuple[float, ...]]


def _block_rng(seed: int, n: int, block: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n, block))))


def _block_size(width: int) -> int:
    """Trials per block for per-trial arrays of `width` elements."""
    return max(1, _BLOCK_BUDGET // width)


def _blocks(trials: int, width: int) -> Iterator[Tuple[int, int, int]]:
    """(block index, first trial, end trial) over blocks of
    _block_size(width) trials."""
    size = _block_size(width)
    for block, lo in enumerate(range(0, trials, size)):
        yield block, lo, min(lo + size, trials)


def _occupancy(
    probs: np.ndarray, gvec: np.ndarray, n: int, trials: int, seed: int, alpha: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-trial missing mass G0 = sum_x g(p_x) [F_x = 0] and, for alpha >= 1,
    phi_alpha = #{x : F_x = alpha} over `trials` iid samples of size n from
    probs.  phi is computed only when it is read: alpha = 0 returns None.

    A block of B trials draws a (B, n) array of uniforms and maps them to
    letters through the guide table of distributions._inverse_cdf (the same
    letters distributions.sample draws by binary search).  G0 comes from a
    0/1 "unseen" matrix: one buffer of B*K doubles, allocated per call and
    reused by every block, is filled with 1 and zeroed at the drawn cells
    row*K + letter, then multiplied by gvec.  For phi, one bincount over the
    same cells gives each draw the count of its letter; a letter seen alpha
    times is drawn alpha times, so phi_alpha is the number of draws whose
    count is alpha, divided by alpha.
    """
    k = probs.size
    letters = _inverse_cdf(probs)
    width = max(k, n)
    unseen = np.empty(_block_size(width) * k)
    g0 = np.empty(trials, dtype=float)
    phi = np.empty(trials, dtype=np.int64) if alpha else None
    for block, lo, hi in _blocks(trials, width):
        rows = hi - lo
        idx = letters(_block_rng(seed, n, block).random((rows, n)))
        idx += k * np.arange(rows)[:, None]
        cells = unseen[: rows * k]
        cells.fill(1.0)
        cells[idx] = 0.0
        g0[lo:hi] = cells.reshape(rows, k) @ gvec
        if alpha:
            counts = np.bincount(idx.ravel(), minlength=rows * k)
            phi[lo:hi] = np.count_nonzero(counts[idx] == alpha, axis=1) // alpha
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


def _estimate_errors(
    dist: DiscreteDistribution, kind: EstimatorKind, g: GFunction, n: int,
    trials: int, seed: int,
) -> np.ndarray:
    """Per-trial estimate - realized missing mass G0 at sample size n.  The
    order-alpha estimator targets g = power(alpha); the plugin (order 0) any g."""
    if trials < 100:
        raise InvalidInputError("Monte Carlo risk and bias need trials >= 100")
    alpha = kind.alpha
    if alpha > 0 and g != power(alpha):
        raise InvalidInputError(
            f"estimator {kind.descriptor()} targets g = power:{alpha}; got {g.descriptor()}"
        )
    if n < alpha:
        raise RegimeError(f"n = {n} < alpha = {alpha}")
    g0, phi = _occupancy(dist.probs, _g_vector(dist, g), n, trials, seed, alpha)
    # The order-0 (plugin) estimate is 0 and reads no phi.
    est = gt_value(phi, n, alpha) if alpha > 0 else 0.0
    return est - g0


def mc_risk(
    dist: DiscreteDistribution,
    kind: EstimatorKind,
    g: GFunction,
    n_list: Sequence[int],
    trials: int,
    seed: int,
) -> Tuple[RiskRow, ...]:
    """Mean squared error (estimate - realized missing mass)^2 per n;
    rate_fit turns the rows into a log-log rate."""
    rows = []
    for n in n_list:
        n = int(n)
        mse, se = _mean_se(np.square(_estimate_errors(dist, kind, g, n, trials, seed)))
        rows.append(RiskRow(n=n, mse=mse, se=se))
    return tuple(rows)


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
    standard error.

    ``threads`` changes neither the result nor the speed; it stays because
    bench/worker.py passes it."""
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
    cols["left_corollary"] = tuple(tail_bounds.corollary_left_tail(n, g, e) for e in eps)
    cols["right_corollary"] = tuple(tail_bounds.corollary_right_tail(n, g, e) for e in eps)
    return cols


def mc_tail(
    dist: DiscreteDistribution,
    g: GFunction,
    n: int,
    trials: int,
    eps_grid: Sequence[float],
    seed: int,
) -> TailReport:
    """Empirical Pr(G0 - E[G0] >= eps) and Pr(G0 - E[G0] <= -eps) per eps,
    against the bound families; E[G0] is analytic.  The bounds come first,
    so that a spec that cannot be built fails before the Monte Carlo runs.

    Binomial standard errors are floored at 1/trials so that dominance checks
    at empirical frequency 0 stay meaningful.
    """
    if trials < 10**3:
        raise InvalidInputError("mc_tail needs trials >= 1000")
    n = int(n)
    eps = tuple(float(e) for e in eps_grid)
    bounds = _bound_columns(n, g, eps)
    g0, _ = _occupancy(dist.probs, _g_vector(dist, g), n, trials, seed, 0)
    dev = np.sort(g0 - expected_missing(dist, n, g))
    e = np.asarray(eps)
    # rows: Pr(dev >= eps), Pr(dev <= -eps)
    freq = np.stack([trials - np.searchsorted(dev, e, "left"),
                     np.searchsorted(dev, -e, "right")]) / trials
    se = np.maximum(np.sqrt(freq * (1.0 - freq) / trials), 1.0 / trials)
    return TailReport(
        right_freq=tuple(freq[0].tolist()),
        right_se=tuple(se[0].tolist()),
        left_freq=tuple(freq[1].tolist()),
        left_se=tuple(se[1].tolist()),
        bounds=bounds,
    )


def _tau_log(u: float, v: float) -> float:
    """log tau(u, v) = log Gamma(u+v) - log Gamma(u)."""
    return math.lgamma(u + v) - math.lgamma(u)


def _dirichlet_setup(n: int, c_param: float, alpha: int) -> Tuple[int, float]:
    if int(n) != n or n < 2:
        raise InvalidInputError("need integer n >= 2")
    if not (0.0 < c_param * n * n < math.inf):
        raise InvalidInputError("need c > 0 with c n^2 finite")
    if int(alpha) != alpha or alpha < 1:
        raise InvalidInputError("need integer alpha >= 1")
    k = int(round(c_param * n * n))
    if k < 2:
        raise InvalidInputError(f"k = round(c n^2) = {k} < 2")
    return k, k / n


def _expm1_gain(d: float) -> float:
    """Bound 1 + 1/|d| on the factor by which expm1(d) magnifies an absolute
    error in d into a relative one; inf at d = 0."""
    return 1.0 + 1.0 / abs(d) if d else math.inf


def dirichlet_prior_variance(n: int, c_param: float, alpha: int) -> float:
    """Average conditional variance of the order-alpha missing mass under a
    symmetric Dirichlet prior with k = c n^2 letters and weights 1/n:

        T = k A1 (A2 - A3) + k(k-1) A4 A5 (A6 - A7).

    A1, A4 (products of n near-unity factors) go through sum-log1p; the
    near-cancelling differences go through exp/expm1.  Falls like
    n^-(2a-1) and lower-bounds the minimax risk of estimating M_[0,alpha].

    Raises NumericalError where T leaves the double range, and where the two
    terms cancel past what their own rounding supports: each term carries
    the rounding of its logs, about 2^-52 times their total size, which
    expm1(d) of a log difference d magnifies by up to 1 + 1/|d|.  Once that
    error of the two terms exceeds _DIRICHLET_REL_TOL of T, T has no
    reliable digits: at n = 20 from c near 1.6e3 (alpha = 1) or 1.6e6
    (alpha = 2), at n = 200 from c near 450 or 1.6e5.
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

    d23, d67 = log_a3 - log_a2, log_a7 - log_a6
    try:
        term1 = k * math.exp(log_a1) * (-math.exp(log_a2) * math.expm1(d23))
        term2 = k * (k - 1.0) * math.exp(log_a4 + log_a5) * (-math.exp(log_a6) * math.expm1(d67))
    except OverflowError:
        term1 = term2 = math.nan
    out = term1 + term2
    if not math.isfinite(out):
        raise NumericalError(f"Dirichlet prior variance at k = {k:.3g} leaves the double range")
    logs = sum(map(abs, (log_a1, log_a2, log_a3, log_a4, log_a5, log_a6, log_a7)))
    err = 2.0**-52 * logs * (abs(term1) * _expm1_gain(d23) + abs(term2) * _expm1_gain(d67))
    if not err <= _DIRICHLET_REL_TOL * abs(out):
        raise NumericalError(
            f"Dirichlet prior variance at k = {k:.3g}: its two terms cancel below their rounding"
        )
    return out


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


def rate_fit(pairs: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """OLS fit of log(value) on log(n); returns (slope, intercept)."""
    pts = [(float(n), float(v)) for n, v in pairs]
    if len(pts) < 3:
        raise InvalidInputError("rate fit needs at least 3 points")
    if any(v <= 0.0 for _, v in pts):
        raise InvalidInputError("rate fit needs positive values")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)
