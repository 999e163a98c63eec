"""Monte Carlo lab: estimator risk, empirical tails versus bounds, Dirichlet lower bound.

Reproducibility contract: trials run in blocks of a fixed size that depends
only on the support size K and the sample size n (at most _BLOCK_BUDGET
elements per block array), never on the thread count.  Block b of an
experiment at sample size n draws from its own RNG, seeded with
SeedSequence((seed, n, b)), so a fixed seed gives byte-identical results, and
a run of T trials reproduces the first T trials of any longer run.

g on the support is distributions._g_vector, the vector expected_missing
reads.  The Dirichlet closed form and its Monte Carlo check read one set of
posterior factors, _posterior_factors.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import tail_bounds
from .distributions import DiscreteDistribution, _g_vector, _inverse_cdf, expected_missing
from .errors import (InvalidInputError, NumericalError, RegimeError, require_int,
                     require_real, require_real_array)
from .estimators import EstimatorKind, gt_value
from .gfunction import GFunction, power

#: Elements per block array; a block holds max(1, _BLOCK_BUDGET // width)
#: trials.  Larger budgets cost resident memory and gain little speed.
_BLOCK_BUDGET = 2**16

#: Largest estimated relative rounding error dirichlet_prior_variance returns.
_DIRICHLET_REL_TOL = 1e-6


def _block_rng(seed: int, n: int, block: int) -> np.random.Generator:
    seed = require_int("seed", seed, 0)
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


def _columns(names: Sequence[str], rows: Sequence[Sequence[float]]) -> Dict[str, Tuple[float, ...]]:
    """The table of rows: column name -> the column's values, in row order."""
    return {name: tuple(row[i] for row in rows) for i, name in enumerate(names)}


def _estimate_errors(
    dist: DiscreteDistribution, kind: EstimatorKind, g: GFunction, n: int,
    trials: int, seed: int,
) -> np.ndarray:
    """Per-trial estimate - realized missing mass G0 at sample size n.  The
    order-alpha estimator targets g = power(alpha); the plugin (order 0) any g."""
    trials = require_int("trials", trials, 100)
    alpha = kind.alpha
    if alpha > 0 and g != power(alpha):
        raise InvalidInputError(f"estimator {kind.descriptor()} targets g = "
                                f"{power(alpha).descriptor()}; got {g.descriptor()}")
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
) -> Dict[str, Tuple[float, ...]]:
    """The table simulate --task risk prints: mse, the mean squared error
    (estimate - realized missing mass)^2, and se, its standard error, one
    value per n of n_list; rate_fit turns (n, mse) into a log-log rate."""
    return _columns(("mse", "se"), [_mean_se(np.square(
        _estimate_errors(dist, kind, g, require_int("n", n, 0), trials, seed))) for n in n_list])


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
    return _mean_se(_estimate_errors(dist, kind, g, require_int("n", n, 0), trials, seed))


#: Tail table column -> the tail_bounds.curve family it shows (theorem2 is two-sided).
_BOUND_FAMILIES = {"right_subgauss_519": "theorem2", "left_subgauss_519": "theorem2",
                   "left_exact_u2": "left_u2", "right_poly_r2": "poly:2",
                   "left_corollary": "left_corollary", "right_corollary": "right_corollary"}


def mc_tail(
    dist: DiscreteDistribution,
    g: GFunction,
    n: int,
    trials: int,
    eps_grid: Sequence[float],
    seed: int,
) -> Dict[str, Tuple[float, ...]]:
    """The tail table at sample size n: column name -> one value per eps, in
    the order simulate --task tail prints them.  right_freq and left_freq
    are the empirical Pr(G0 - E[G0] >= eps) and Pr(G0 - E[G0] <= -eps),
    E[G0] analytic; right_se and left_se their binomial standard errors,
    floored at 1/trials so that dominance checks at empirical frequency 0
    stay meaningful.  The bound columns of _BOUND_FAMILIES follow, sorted
    by name, each prefixed by the tail it bounds.

    Each family's curve is computed once, in _BOUND_FAMILIES order, before
    the Monte Carlo, so that a spec that cannot be built fails first.
    """
    trials, n = require_int("trials", trials, 10**3), require_int("n", n, 1)
    e = require_real_array("eps grid", eps_grid)
    curves = {family: tail_bounds.curve(family, n, g, e)["bound"]
              for family in dict.fromkeys(_BOUND_FAMILIES.values())}
    g0, _ = _occupancy(dist.probs, _g_vector(dist, g), n, trials, seed, 0)
    dev = np.sort(g0 - expected_missing(dist, n, g))
    # rows: Pr(dev >= eps), Pr(dev <= -eps)
    freq = np.stack([trials - np.searchsorted(dev, e, "left"),
                     np.searchsorted(dev, -e, "right")]) / trials
    se = np.maximum(np.sqrt(freq * (1.0 - freq) / trials), 1.0 / trials)
    table = {}
    for side, f, s in zip(("right", "left"), freq.tolist(), se.tolist()):
        table[side + "_freq"], table[side + "_se"] = tuple(f), tuple(s)
    for name in sorted(_BOUND_FAMILIES):
        table[name] = curves[_BOUND_FAMILIES[name]]
    return table


def _dirichlet_setup(n: int, c_param: float, alpha: int) -> Tuple[int, int, int, float]:
    """The checked (n, alpha), k = round(c n^2) letters and beta0 = k/n."""
    n, c, alpha = require_int("n", n, 2), require_real("c", c_param), require_int("alpha", alpha, 1)
    if not (0.0 < c * n * n < math.inf):
        raise InvalidInputError("need c > 0 with c n^2 finite")
    k = round(c * n * n)
    if k < 2:
        raise InvalidInputError(f"k = round(c n^2) = {k} < 2")
    return n, alpha, k, k / n


def _expm1_gain(d: float) -> float:
    """Bound 1 + 1/|d| on the factor by which expm1(d) magnifies an absolute
    error in d into a relative one; inf at d = 0."""
    return 1.0 + 1.0 / abs(d) if d else math.inf


def _posterior_factors(
    n: int, beta0: float, alpha: int, log_scale: float = 0.0
) -> Tuple[Tuple[float, float], Tuple[float, float, float]]:
    """Posterior factors of Var(M_[0,alpha] | m unseen letters), each of
    weight u = 1/n out of beta0 + n: for unseen w != w', E[w^2a] - E[w^a]^2
    = A2 - A3 and E[w^a w'^a] - E[w^a]^2 = A5 (A6 - A7), so that
    Var = (A2 - A3) m + A5 (A6 - A7) m(m-1).  Both differences nearly
    cancel: each is -A expm1(d) from its log gap d = log(A3/A2), log(A7/A6).
    A5 (A6 - A7), scaled by exp(log_scale), is -exp(log_scale + log A5 +
    log A6) expm1(d67), all in one exponent: A5 alone overflows, and A6 - A7
    underflows, from alpha near 100.
    Returns (A2 - A3, exp(log_scale) A5 (A6 - A7)) and, for a rounding
    estimate, (sum of |log A_i|, d23, d67).
    """
    l2 = np.arange(2 * alpha, dtype=float)
    l1 = np.arange(alpha, dtype=float)
    log_a2 = float(np.sum(np.log(1.0 / n + l2) - np.log(beta0 + n + l2)))
    log_a3 = 2.0 * float(np.sum(np.log(1.0 / n + l1) - np.log(beta0 + n + l1)))
    log_a5 = 2.0 * float(np.sum(np.log(1.0 / n + l1)))
    log_a6 = -float(np.sum(np.log(beta0 + n + l2)))
    log_a7 = -2.0 * float(np.sum(np.log(beta0 + n + l1)))
    d23, d67 = log_a3 - log_a2, log_a7 - log_a6
    logs = sum(map(abs, (log_a2, log_a3, log_a5, log_a6, log_a7)))
    factors = (-math.exp(log_a2) * math.expm1(d23),
               -math.exp(log_scale + log_a5 + log_a6) * math.expm1(d67))
    return factors, (logs, d23, d67)


def dirichlet_prior_variance(n: int, c_param: float, alpha: int) -> float:
    """Average conditional variance of the order-alpha missing mass under a
    symmetric Dirichlet prior with k = c n^2 letters and weights 1/n:

        T = k A1 (A2 - A3) + k(k-1) A4 A5 (A6 - A7),

    where k A1 = E[m] and k(k-1) A4 = E[m(m-1)] for the number m of unseen
    letters, and the rest are _posterior_factors.  A1, A4 (products of n
    near-unity factors) go through sum-log1p.  Falls like n^-(2a-1) and
    lower-bounds the minimax risk of estimating M_[0,alpha].

    Raises NumericalError where T leaves the double range (above, or below
    the normal doubles), and where the two terms cancel past what their
    own rounding supports: each term carries
    the rounding of its logs, about 2^-52 times their total size, which
    expm1(d) of a log difference d magnifies by up to 1 + 1/|d|.  Once that
    error of the two terms exceeds _DIRICHLET_REL_TOL of T, T has no
    reliable digits: at n = 20 from c near 1.6e3 (alpha = 1) or 1.6e6
    (alpha = 2), at n = 200 from c near 450 or 1.6e5.
    """
    n, alpha, k, beta0 = _dirichlet_setup(n, c_param, alpha)
    denom = n * (beta0 + np.arange(n, dtype=float))
    log_a1 = float(np.sum(np.log1p(-1.0 / denom)))
    # at k = 2 at most one letter is unseen, so A4 = 0 exactly, with no rounding
    log_a4 = float(np.sum(np.log1p(-2.0 / denom))) if k > 2 else -math.inf
    (single, pair), (logs, d23, d67) = _posterior_factors(n, beta0, alpha, log_a4)
    term1 = k * math.exp(log_a1) * single
    term2 = k * (k - 1.0) * pair
    out = term1 + term2
    if not math.isfinite(out):
        raise NumericalError(f"Dirichlet prior variance at k = {k:.3g} leaves the double range")
    logs += abs(log_a1) + (abs(log_a4) if k > 2 else 0.0)
    err = 2.0**-52 * logs * (abs(term1) * _expm1_gain(d23) + abs(term2) * _expm1_gain(d67))
    if not err <= _DIRICHLET_REL_TOL * abs(out):
        raise NumericalError(
            f"Dirichlet prior variance at k = {k:.3g}: its two terms cancel below their rounding"
        )
    if out < sys.float_info.min:
        raise NumericalError(f"Dirichlet prior variance at k = {k:.3g} underflows")
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
    same Dirichlet prior.

    Given the sample, the conditional variance depends only on the number m
    of unseen letters (they are exchangeable, with weight 1/n each):
    Var = (A2 - A3) m + A5 (A6 - A7) m(m-1), from _posterior_factors.
    """
    trials = require_int("trials", trials, 100)
    n, alpha, k, beta0 = _dirichlet_setup(n, c_param, alpha)
    (single, pair), _ = _posterior_factors(n, beta0, alpha)
    m = _polya_unseen(k, n, trials, seed)
    return _mean_se(pair * m * (m - 1.0) + single * m)


def dirichlet_table(n_list: Sequence[int], c: float, alpha: int, trials: int,
                    seed: int) -> Dict[str, Tuple[float, ...]]:
    """The table simulate --task dirichlet prints: variance, the closed form,
    then, for trials > 0, mc_variance and mc_se, its Monte Carlo check; one
    value per n of n_list, n by n, each closed form before its check."""
    trials = require_int("trials", trials, 0)
    rows = [(dirichlet_prior_variance(n, c, alpha),)
            + (dirichlet_mc_variance(n, c, alpha, trials, seed) if trials else ())
            for n in n_list]
    return _columns(("variance", "mc_variance", "mc_se")[:3 if trials else 1], rows)


def rate_fit(pairs: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """OLS fit of log(value) on log(n); returns (slope, intercept)."""
    pts = require_real_array("rate fit pairs", pairs)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise InvalidInputError("rate fit needs at least 3 (n, value) points")
    if not ((pts > 0.0) & (pts < math.inf)).all():
        raise InvalidInputError("rate fit needs finite n > 0 and finite values > 0")
    slope, intercept = np.polyfit(*np.log(pts).T, 1)
    return float(slope), float(intercept)
