import hashlib
import math

import numpy as np
import pytest

from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass.errors import InvalidInputError, NumericalError

P1 = gf.power(1.0)
P2 = gf.power(2.0)


def test_block_rng_streams_are_reproducible_and_distinct():
    a = rl._block_rng(7, 20, 3).random(5)
    np.testing.assert_array_equal(a, rl._block_rng(7, 20, 3).random(5))
    for other in ((7, 20, 4), (7, 21, 3), (8, 20, 3)):
        assert not np.array_equal(a, rl._block_rng(*other).random(5))


def test_partial_block_repeats_the_leading_trials_of_a_longer_run():
    d = dm.zipf(200, 1.0)
    gvec = rl._g_vector(d, P1)
    size = rl._BLOCK_BUDGET // d.size  # trials per block at n = 20
    short = rl._occupancy(d.probs, gvec, 20, 2 * size + 5, 3, 1)
    long = rl._occupancy(d.probs, gvec, 20, 3 * size, 3, 1)
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a, b[: 2 * size + 5])
    # later blocks draw fresh streams: no block repeats the first
    g0 = long[0]
    assert not np.array_equal(g0[:size], g0[size : 2 * size])
    m_short = rl._polya_unseen(1600, 40, rl._BLOCK_BUDGET // 40 + 7, 3)
    m_long = rl._polya_unseen(1600, 40, 2 * (rl._BLOCK_BUDGET // 40), 3)
    np.testing.assert_array_equal(m_short, m_long[: m_short.size])


@pytest.mark.parametrize("d,n,want", [
    (dm.zipf(200, 1.0), 20, "2f1737116d5c9f1292e35a47505022696538127f96401a4a86b98dc347505bd3"),
    (dm.zipf(200, 1.0), 100, "e55e3d70f72f23fb44cb7d83024a70593e43c198d9d3329737caa73555434f6e"),
    (dm.uniform(1000), 20, "6e72399f76d5c27db6540fb63da7dd84de276aa73ace00a227254d2d75b34060"),
    (dm.uniform(1000), 100, "78e1c9ca767264de9b59cbdb2874cc60fddda893f6a1f142ec87566da60139c9"),
], ids=["zipf200_n20", "zipf200_n100", "uniform1000_n20", "uniform1000_n100"])
def test_occupancy_stream_is_pinned(d, n, want):
    # sha256 of the g0 and phi bytes over two full blocks and a partial one;
    # computed with the binary-search lookup that the guide table replaced.
    size = rl._BLOCK_BUDGET // max(d.size, n)
    g0, phi = rl._occupancy(d.probs, rl._g_vector(d, P1), n, 2 * size + 7, 11, 1)
    digest = hashlib.sha256(g0.astype("<f8").tobytes() + phi.astype("<i8").tobytes())
    assert digest.hexdigest() == want


def _counting_kernel(probs, gvec, n, trials, seed, alpha):
    """The occupancy kernel as a full count matrix: letters by binary search
    (searchsorted, clipped to the last positive-probability letter), one
    bincount per block, G0 = (counts == 0) @ gvec and
    phi = count_nonzero(counts == alpha, axis=1)."""
    k = probs.size
    cum = np.cumsum(probs)
    last = np.flatnonzero(probs)[-1]
    g0 = np.empty(trials)
    phi = np.empty(trials, dtype=np.int64)
    for block, lo, hi in rl._blocks(trials, max(k, n)):
        rows = hi - lo
        u = rl._block_rng(seed, n, block).random((rows, n))
        idx = np.minimum(np.searchsorted(cum, u, side="right"), last)
        idx += k * np.arange(rows)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * k).reshape(rows, k)
        g0[lo:hi] = (counts == 0) @ gvec
        phi[lo:hi] = np.count_nonzero(counts == alpha, axis=1)
    return g0, phi


@pytest.mark.parametrize("probs,n", [
    ([1.0], 5),
    (dm.uniform(5).probs, 40),
    (dm.zipf(200, 1.0).probs, 1),
    (dm.zipf(200, 1.0).probs, 20),
    ([0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0], 6),
    (dm.geometric(300, 0.05).probs, 400),
], ids=["k1", "n_above_k", "n1", "zipf200_n20", "zero_letters", "geometric_n_above_k"])
def test_occupancy_matches_counting_kernel_bit_for_bit(probs, n):
    d = dm.explicit(probs)
    gvec = rl._g_vector(d, P2)
    trials = 2 * rl._block_size(max(d.size, n)) + 7  # two full blocks and a partial one
    for alpha in (1, 2, 3):
        g0, phi = rl._occupancy(d.probs, gvec, n, trials, 5, alpha)
        want_g0, want_phi = _counting_kernel(d.probs, gvec, n, trials, 5, alpha)
        np.testing.assert_array_equal(g0.view(np.int64), want_g0.view(np.int64))
        np.testing.assert_array_equal(phi, want_phi)
    # phi is not computed when nothing reads it
    g0, phi = rl._occupancy(d.probs, gvec, n, trials, 5, 0)
    assert phi is None
    np.testing.assert_array_equal(g0.view(np.int64), want_g0.view(np.int64))


def test_mc_tail_thread_count_does_not_change_results():
    d = dm.zipf(200, 1.0)
    a = rl.mc_tail(d, P1, 20, 1500, (0.02, 0.1), seed=5)
    b = rl.mc_tail(d, P1, 20, 1500, (0.02, 0.1), seed=5)
    assert a == b


def _exact_g0_moments(d, n, g):
    """E[G0] and Var(G0) by the exact single-letter and O(K^2) pair sums."""
    p = d.probs
    gv = np.asarray(g.eval(p), dtype=float)
    q = (1.0 - p) ** n
    both = np.clip(1.0 - p[:, None] - p[None, :], 0.0, None) ** n - np.outer(q, q)
    np.fill_diagonal(both, 0.0)
    var = float(gv @ both @ gv + np.sum(gv * gv * q * (1.0 - q)))
    return float(gv @ q), var


@pytest.mark.parametrize("d", [dm.uniform(50), dm.zipf(200, 1.0)], ids=lambda d: d.label)
@pytest.mark.parametrize("g", [P1, P2], ids=lambda g: g.descriptor())
def test_occupancy_moments_match_exact_oracle(d, g):
    n, trials = 20, 20000
    g0, phi = rl._occupancy(d.probs, rl._g_vector(d, g), n, trials, 17, 1)
    mean, var = _exact_g0_moments(d, n, g)
    assert mean == pytest.approx(dm.expected_missing(d, n, g), rel=1e-12)
    se_mean = np.std(g0, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(g0) - mean) <= 4.0 * se_mean
    sq = (g0 - np.mean(g0)) ** 2
    se_var = np.std(sq, ddof=1) / math.sqrt(trials)
    assert abs(np.var(g0, ddof=1) - var) <= 4.0 * se_var
    # E[phi_1] = sum_x n p_x (1 - p_x)^(n-1)
    exact_phi = float(np.sum(n * d.probs * (1.0 - d.probs) ** (n - 1)))
    assert abs(np.mean(phi) - exact_phi) <= 4.0 * np.std(phi, ddof=1) / math.sqrt(trials)


def _uniform_distinct_law(k, n):
    """Exact law of the number D of distinct letters in n uniform draws from k
    letters: the occupancy birth chain d -> d + 1 with probability (k - d)/k
    (Johnson & Kotz, Urn Models, 1977), in O(nk)."""
    law = np.zeros(k + 1)
    law[0] = 1.0
    new = (k - np.arange(k + 1)) / k
    for _ in range(n):
        moved = law * new
        law -= moved
        law[1:] += moved[:-1]
    return law


def test_occupancy_unseen_count_matches_exact_law():
    k, n, trials = 10, 20, 20000
    g0, _ = rl._occupancy(dm.uniform(k).probs, np.ones(k), n, trials, 23, 0)
    freq = np.bincount(k - g0.astype(int), minlength=k + 1) / trials
    law = _uniform_distinct_law(k, n)
    assert np.all(np.abs(freq - law) <= 4.0 * np.sqrt(law * (1.0 - law) / trials) + 1e-12)


@pytest.mark.parametrize("k", [2, 10, 50, 64])
@pytest.mark.parametrize("g", [P1, P2, gf.entropy_log2(64)], ids=lambda g: g.descriptor())
def test_bounds_dominate_exact_tail_law_on_uniform_supports(g, k):
    # G0 = (k - D) g(1/k).  The exact tails Pr(G0 - E G0 >= eps) and
    # Pr(G0 - E G0 <= -eps) are step functions that jump at the atoms of the
    # deviation, and every bound is non-increasing in eps, so checking each
    # bound at the atoms covers every eps > 0.
    d = dm.uniform(k)
    for n in (3, 5, 10, 20, 50, 100, 200, 500, 1000):
        if g is P2 and n <= 17:  # the order-2 right corollary needs n > 17
            continue
        law = _uniform_distinct_law(k, n)
        g0 = (k - np.arange(k + 1)) * float(g.eval(1.0 / k))
        mean = float(law @ g0)
        assert mean == pytest.approx(dm.expected_missing(d, n, g), rel=1e-12, abs=1e-300)
        dev = (g0 - mean)[law > 0.0]
        law = law[law > 0.0]
        eps = np.unique(np.abs(dev[dev != 0.0]))
        right = np.array([law[dev >= e].sum() for e in eps])
        left = np.array([law[dev <= -e].sum() for e in eps])
        cols = rl._bound_columns(n, g, eps)
        assert len(cols) == 6
        for name, col in cols.items():
            exact = right if name.startswith("right") else left
            assert np.all(exact <= np.asarray(col)), (name, n)


def test_bound_columns_with_underflowed_u2_fail_as_numerical():
    # simulate --task tail --g power:100 --dist uniform:10 --n-list 100000:
    # u*_2 underflows to 0 and the left tail takes its log; then the order-2
    # spec's v = u*_3/(2c) underflows too, a numerical failure (exit 5), not
    # the malformed input "need sigma2 > 0" (exit 2)
    with pytest.raises(NumericalError, match="is not a normal double"):
        rl._bound_columns(10**5, gf.power(100.0), (0.01, 0.1))


def test_mc_tail_builds_its_bounds_before_the_monte_carlo(monkeypatch):
    # the same probe through mc_tail fails before it draws a letter
    def no_draws(*args):
        raise AssertionError("the Monte Carlo ran before the bounds were built")

    monkeypatch.setattr(rl, "_occupancy", no_draws)
    with pytest.raises(NumericalError, match="is not a normal double"):
        rl.mc_tail(dm.uniform(10), gf.power(100.0), 10**5, 1000, (0.01, 0.1), seed=1)


def test_polya_unseen_mean_matches_exact_oracle():
    # each letter stays unseen with probability
    # Gamma(k b) Gamma(k b - b + n) / (Gamma(k b - b) Gamma(k b + n)), b = 1/n
    k, n, trials = 1600, 40, 5000
    b = 1.0 / n
    log_p = (math.lgamma(k * b) + math.lgamma(k * b - b + n)
             - math.lgamma(k * b - b) - math.lgamma(k * b + n))
    exact = k * math.exp(log_p)
    assert exact == pytest.approx(1572.26, abs=0.01)
    m = rl._polya_unseen(k, n, trials, 29)
    assert abs(np.mean(m) - exact) <= 4.0 * np.std(m, ddof=1) / math.sqrt(trials)


def test_mc_risk_plugin_two_point_exact():
    # one draw from uniform(2): the unseen letter always has mass 1/2,
    # so with g = p^2 every trial scores (0 - 1/4)^2 = 1/16
    rep = rl.mc_risk(dm.uniform(2), est.plugin(), P2, [1], trials=500, seed=1)
    assert rep[0].mse == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert rep[0].se == 0.0


@pytest.mark.parametrize("d", [dm.uniform(30), dm.zipf(200, 1.0)], ids=lambda d: d.label)
@pytest.mark.parametrize("g,kind", [(P1, est.good_turing()), (P2, est.generalized_good_turing(2))],
                         ids=["power1", "power2"])
def test_kernel_errors_match_library_path_trial_by_trial(d, g, kind):
    # Block 0's letters, rebuilt from the block seed and the inverse CDF,
    # run through the profile, estimator and realized-mass functions.
    n, trials, seed = 20, 150, 8
    assert trials <= rl._BLOCK_BUDGET // max(d.size, n)  # one block
    errors = rl._estimate_errors(d, kind, g, n, trials, seed)
    letters = dm._inverse_cdf(d.probs)(rl._block_rng(seed, n, 0).random((trials, n)))
    for err, row in zip(errors, letters):
        want = est.estimate(kind, emp.profile_from_samples(row)) - emp.realized_missing(d, row, g)
        assert abs(err - want) <= 1e-12


def test_mc_risk_good_turing_equals_order_one_generalized():
    d = dm.zipf(40, 1.0)
    a = rl.mc_risk(d, est.good_turing(), P1, [15, 30], trials=400, seed=3)
    b = rl.mc_risk(d, est.generalized_good_turing(1), P1, [15, 30], trials=400, seed=3)
    for ra, rb in zip(a, b):
        assert ra.mse == rb.mse
        assert ra.se == rb.se


def test_mc_risk_thread_count_does_not_change_results():
    d = dm.uniform(30)
    a = rl.mc_risk(d, est.good_turing(), P1, [25], trials=600, seed=9)
    b = rl.mc_risk(d, est.good_turing(), P1, [25], trials=600, seed=9)
    assert a[0].mse == b[0].mse
    assert a[0].se == b[0].se


def test_mc_risk_estimator_must_match_target():
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.good_turing(), P2, [10], trials=200, seed=0)
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.generalized_good_turing(2), P1, [10], trials=200, seed=0)


def test_mc_risk_trials_floor():
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.plugin(), P1, [10], trials=50, seed=0)


def test_mc_bias_matches_exact_expectation():
    # E[estimate] - E[G0] has a closed form; the simulation must agree
    d, alpha, n, trials = dm.uniform(10), 1, 9, 30000
    p = d.probs
    exact = float(np.sum(p ** alpha * (1 - p) ** (n - alpha)) - np.sum(p ** alpha * (1 - p) ** n))
    mean, se = rl.mc_bias(d, est.good_turing(), P1, n, trials, seed=11)
    assert abs(mean - exact) <= 4.0 * se


def test_mc_bias_thread_determinism():
    d = dm.uniform(8)
    a = rl.mc_bias(d, est.good_turing(), P1, 12, 500, seed=4, threads=1)
    b = rl.mc_bias(d, est.good_turing(), P1, 12, 500, seed=4, threads=3)
    assert a == b


def test_mc_tail_report_structure_and_dominance():
    d = dm.uniform(20)
    eps = (0.05, 0.15, 0.3)
    rep = rl.mc_tail(d, P1, 20, 4000, eps, seed=5)
    assert len(rep.right_freq) == len(rep.left_se) == len(eps)
    assert set(rep.bounds) == {
        "right_subgauss_519", "right_poly_r2", "right_corollary",
        "left_subgauss_519", "left_exact_u2", "left_corollary",
    }
    for name, col in rep.bounds.items():
        freqs = rep.right_freq if name.startswith("right") else rep.left_freq
        ses = rep.right_se if name.startswith("right") else rep.left_se
        for f, s, b in zip(freqs, ses, col):
            assert f <= b + 3.0 * s


def test_mc_tail_centers_on_analytic_mean():
    # with eps = 0 both sides fire on every draw apart from exact ties
    d = dm.uniform(15)
    rep = rl.mc_tail(d, P1, 10, 1500, (0.0,), seed=6)
    assert rep.right_freq[0] + rep.left_freq[0] >= 1.0


def test_mc_tail_trials_floor():
    with pytest.raises(InvalidInputError):
        rl.mc_tail(dm.uniform(5), P1, 10, 500, (0.1,), seed=0)


def test_mc_tail_se_floor_keeps_zero_frequencies_meaningful():
    d = dm.uniform(10)
    rep = rl.mc_tail(d, P1, 30, 2000, (0.9,), seed=7)
    assert rep.right_freq[0] == 0.0
    assert rep.right_se[0] >= 1.0 / 2000


def test_dirichlet_variance_positive_and_decreasing():
    vals = [rl.dirichlet_prior_variance(n, 1.0, 1) for n in (10, 20, 40, 80)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_dirichlet_variance_asymptote_order_one():
    # with c = 1 the average conditional variance approaches 1/(8n)
    n = 200
    got = rl.dirichlet_prior_variance(n, 1.0, 1)
    assert got == pytest.approx(1.0 / (8.0 * n), rel=0.05)


def test_dirichlet_variance_frozen_value():
    # the value the closed form has always given, to the bit
    assert rl.dirichlet_prior_variance(20, 1.0, 1) == 0.006090074848846891


def test_dirichlet_variance_beyond_double_range_is_numerical_failure():
    # From k = 4e155 (c = 1e153, n = 20) on, k(k-1) A4 A5 overflows.  Below
    # that, at c = 1e150 and 1e152, the two terms are finite but cancel to
    # rounding noise (5e-152 and 5e-154 where T is near 5e-302 and 5e-306).
    for c in (1e150, 1e152, 1e153, 1e300):
        with pytest.raises(NumericalError):
            rl.dirichlet_prior_variance(20, c, 1)


def _dirichlet_variance_mpmath(mpmath, n, c, alpha):
    """T = k A1 (A2 - A3) + k(k-1) A4 A5 (A6 - A7) at 80 digits, for the
    same k = round(c n^2) and beta0 = k/n taken exactly."""
    k = round(c * n * n)
    with mpmath.workdps(80):
        n_, k_ = mpmath.mpf(n), mpmath.mpf(k)
        b = k_ / n_
        prod = mpmath.fprod
        a1 = prod([1 - 1 / (n_ * (b + l)) for l in range(n)])
        a4 = prod([1 - 2 / (n_ * (b + l)) for l in range(n)])
        a2 = prod([(1 / n_ + l) / (b + n_ + l) for l in range(2 * alpha)])
        a3 = prod([(1 / n_ + l) / (b + n_ + l) for l in range(alpha)]) ** 2
        a5 = prod([1 / n_ + l for l in range(alpha)]) ** 2
        a6 = 1 / prod([b + n_ + l for l in range(2 * alpha)])
        a7 = 1 / prod([b + n_ + l for l in range(alpha)]) ** 2
        return k_ * a1 * (a2 - a3) + k_ * (k_ - 1) * a4 * a5 * (a6 - a7)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("n", [20, 200])
def test_dirichlet_variance_returns_only_digits_it_has(n, alpha):
    # Every value returned over c = 1..1e300 agrees with 80-digit arithmetic;
    # where the terms cancel past their rounding, NumericalError instead.
    mpmath = pytest.importorskip("mpmath")
    returned = raised = 0
    for c in [m * 10.0**e for e in range(300) for m in (1, 2, 5)] + [1e300]:
        try:
            got = rl.dirichlet_prior_variance(n, c, alpha)
        except NumericalError:
            raised += 1
            continue
        returned += 1
        want = _dirichlet_variance_mpmath(mpmath, n, c, alpha)
        assert abs(got - want) <= 1e-6 * want, c
    assert returned >= 6 and raised >= 250


def test_dirichlet_variance_at_small_c_is_unchanged():
    # the cancellation check leaves ordinary c alone: these values hold to the bit
    want = {(20, 0.5, 1): 0.006959545219329518, (20, 3.0, 1): 0.002379984379851624,
            (200, 2.0, 1): 0.00037050069642450916, (20, 1.0, 2): 2.8390144831090728e-05,
            (40, 1.0, 1): 0.003085482841663748}
    for (n, c, alpha), value in want.items():
        assert rl.dirichlet_prior_variance(n, c, alpha) == value


def test_dirichlet_closed_form_matches_monte_carlo():
    for alpha, n in [(1, 10), (2, 12)]:
        closed = rl.dirichlet_prior_variance(n, 1.0, alpha)
        mc, se = rl.dirichlet_mc_variance(n, 1.0, alpha, trials=2000, seed=13)
        assert abs(mc - closed) <= max(4.0 * se, 0.02 * closed)


def test_dirichlet_mc_thread_determinism():
    a = rl.dirichlet_mc_variance(12, 1.0, 1, trials=400, seed=2)
    b = rl.dirichlet_mc_variance(12, 1.0, 1, trials=400, seed=2)
    assert a == b


def test_dirichlet_validation():
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(1, 1.0, 1)
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, -1.0, 1)
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, 1e-4, 1)  # k = round(c n^2) < 2
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, 1.0, 0)


def test_rate_fit_recovers_exact_power_law():
    pairs = [(n, 3.0 * n**-2.0) for n in (10, 20, 40, 80)]
    slope, intercept = rl.rate_fit(pairs)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(InvalidInputError):
        rl.rate_fit([(10, 1.0), (20, 0.5)])
    with pytest.raises(InvalidInputError):
        rl.rate_fit([(10, 1.0), (20, 0.5), (40, 0.0)])
