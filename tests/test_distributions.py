import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import gfunction as gf
from missingmass.errors import InvalidInputError


@pytest.mark.parametrize("k", [1, 2, 50, 1000])
def test_uniform_probabilities(k):
    d = dm.uniform(k)
    assert d.size == k
    np.testing.assert_allclose(d.probs, np.full(k, 1.0 / k), rtol=1e-15)
    assert d.label == f"uniform:{k}"


def test_zipf_ratio_structure():
    # p_i proportional to 1/i^s, so p_1/p_2 = 2^s exactly
    d = dm.zipf(200, 1.5)
    assert d.probs[0] / d.probs[1] == pytest.approx(2.0**1.5, rel=1e-12)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(d.probs) < 0.0)


def test_zipf_normalization_oracle():
    # direct harmonic-sum construction
    k, s = 11, 1.0
    h = sum(1.0 / i for i in range(1, k + 1))
    d = dm.zipf(k, s)
    np.testing.assert_allclose(d.probs, [1.0 / (i * h) for i in range(1, k + 1)], rtol=1e-13)


def test_zipf_weight_past_overflow_is_zero():
    # 3**1000 overflows a double, so weights 3..50 are their limit 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = dm.zipf(50, 1000)
    assert d.probs.sum() == 1.0
    assert d.probs[1] > 0.0 and np.all(d.probs[2:] == 0.0)


@pytest.mark.parametrize("k, s", [(200, 1), (50, 1.5)])
def test_zipf_probs_bit_identical_to_the_power_formula(k, s):
    w = 1.0 / np.arange(1, k + 1, dtype=float) ** float(s)
    assert np.array_equal(dm.zipf(k, s).probs, w / w.sum())


def test_geometric_ratio_structure():
    # consecutive ratio is 1-q after truncation and renormalization
    q = 0.3
    d = dm.geometric(40, q)
    np.testing.assert_allclose(d.probs[1:] / d.probs[:-1], 1.0 - q, rtol=1e-12)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_explicit_validates():
    with pytest.raises(InvalidInputError):
        dm.explicit([0.5, 0.4])  # does not sum to 1
    with pytest.raises(InvalidInputError):
        dm.explicit([1.2, -0.2])  # negative entry
    d = dm.explicit([0.25, 0.75], label="demo")
    assert d.label == "demo"


def test_explicit_rejects_an_empty_or_nested_vector():
    for bad in ([], [[0.5, 0.5]]):
        with pytest.raises(InvalidInputError, match="nonempty 1-D"):
            dm.explicit(bad)


def test_sample_and_moments_reject_a_bad_sample_size():
    d, g = dm.uniform(3), gf.power(1.0)
    for n in (-1, 2.5):
        with pytest.raises(InvalidInputError, match="sample size must be an integer >= 0"):
            dm.sample(d, n, seed=0)
        with pytest.raises(InvalidInputError, match="n must be an integer >= 0"):
            dm.expected_missing(d, n, g)
        with pytest.raises(InvalidInputError, match="n must be an integer >= 0"):
            dm.variance_sum_bound(d, n, g)


def test_probs_are_read_only():
    d = dm.uniform(5)
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


@pytest.mark.parametrize("make", [
    lambda a: dm.explicit(a), lambda a: dm.DiscreteDistribution(a),
    lambda a: dm.explicit(a[:]), lambda a: dm.explicit(memoryview(a)),
], ids=["explicit", "constructor", "view", "memoryview"])
def test_explicit_leaves_the_callers_array_alone(make):
    a = np.array([0.25, 0.75])
    dist = make(a)
    assert a.flags.writeable and not dist.probs.flags.writeable
    assert not np.shares_memory(a, dist.probs)
    a[0] = 0.5
    assert a.tolist() == [0.5, 0.75] and dist.probs.tolist() == [0.25, 0.75]


def test_from_file_json_and_csv(tmp_path):
    vec = [0.2, 0.3, 0.5]
    jpath = tmp_path / "d.json"
    jpath.write_text(json.dumps(vec))
    cpath = tmp_path / "d.csv"
    cpath.write_text("\n".join(str(v) for v in vec))
    np.testing.assert_allclose(dm.from_file(jpath).probs, vec)
    np.testing.assert_allclose(dm.from_file(cpath).probs, vec)


def test_parse():
    assert dm.parse("uniform:50").label == "uniform:50"
    assert dm.parse("zipf:200:1").label == "zipf:200:1"
    assert dm.parse("geometric:100:0.5").label == "geometric:100:0.5"
    for bad in ("uniform", "uniform:x", "zipf:10", "pareto:3", "geometric:10:0.5:1",
                "explicit", "explicit:", "uniform:2.5", ""):
        with pytest.raises(InvalidInputError):
            dm.parse(bad)


def test_parse_explicit(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("[0.5, 0.5]")
    d = dm.parse(f"explicit:{path}")
    np.testing.assert_allclose(d.probs, [0.5, 0.5])
    assert d.label == "explicit:d.json"


def test_labels_print_parameters_exactly():
    assert dm.zipf(50, 1.23456789).label == "zipf:50:1.23456789"
    assert dm.zipf(50, 3.0).label == "zipf:50:3"
    assert dm.geometric(10, 0.1).label == "geometric:10:0.1"
    assert dm.geometric(10, 1 / 3).label == f"geometric:10:{1 / 3!r}"


_EXPONENTS = st.floats(min_value=1e-6, max_value=50.0)


@given(k=st.integers(min_value=1, max_value=300), s=_EXPONENTS,
       q=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_parse_of_a_label_rebuilds_the_same_probabilities(k, s, q):
    for d in (dm.uniform(k), dm.zipf(k, s), dm.geometric(k, q)):
        back = dm.parse(d.label)
        assert back.label == d.label
        assert back.probs.tobytes() == d.probs.tobytes()


def test_sample_deterministic_and_in_range():
    d = dm.zipf(30, 1.0)
    a = dm.sample(d, 500, seed=7)
    b = dm.sample(d, 500, seed=7)
    c = dm.sample(d, 500, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < d.size
    assert dm.sample(d, 0, seed=7).shape == (0,)


def test_sample_frequencies_match_probabilities():
    d = dm.uniform(4)
    x = dm.sample(d, 40000, seed=3)
    freq = np.bincount(x, minlength=4) / x.size
    # binomial SE is about 0.0022 per cell
    np.testing.assert_allclose(freq, d.probs, atol=0.012)


def _binary_search_letters(probs, u):
    """Reference lookup: the first i with cum[i] > u, clipped to the last
    positive-probability letter (K-1 unless the support ends in zero atoms)."""
    cum = np.cumsum(probs)
    return np.minimum(np.searchsorted(cum, u, side="right"), np.flatnonzero(probs)[-1])


def _edge_uniforms(probs, seed):
    """Random uniforms plus 0, the largest double below 1, every bucket edge
    j/m of the guide table (m = 4K) and every cumulative sum, each also one
    step below."""
    m = 4 * probs.size
    exact = np.concatenate([np.arange(m) / m, np.cumsum(probs)])
    exact = exact[exact < 1.0]
    return np.concatenate([
        np.random.default_rng(seed).random(2000), [0.0, np.nextafter(1.0, 0.0)],
        exact, np.nextafter(exact, 0.0),
    ])


_RANDOM_SUPPORTS = (
    [dm.uniform(k).probs for k in range(1, 65)]
    + [dm.uniform(k).probs for k in (100, 999, 1000, 1600)]
    + [dm.zipf(k, s).probs for k in (2, 30, 200, 1000) for s in (0.5, 1.0, 2.0)]
    + [dm.geometric(k, q).probs for k in (5, 200) for q in (0.05, 0.5, 0.9)]
)

_ADVERSARIAL_SUPPORTS = {
    "zero_first": [0.0, 0.0, 0.5, 0.5],
    "zero_middle": [0.25, 0.0, 0.0, 0.75],
    "zero_last": [0.3, 0.7, 0.0],
    "zero_run_last": [0.2, 0.3, 0.5] + [0.0] * 20,
    "spikes_apart": [0.5] + [0.0] * 50 + [0.5],
    "tiny_atoms": [0.4] + [1e-300] * 30 + [0.6],
    "tiny_atoms_in_bucket": [0.30001] + [1e-300] * 200 + [0.69999],
    "k1": [1.0],
    "sum_below_1": [0.3, 0.7 - 5e-13],
    "sum_below_1_zero_last": [0.3, 0.7 - 5e-13, 0.0],
    "sum_above_1": [0.3, 0.7 + 5e-13],
}


@pytest.mark.parametrize("probs", _RANDOM_SUPPORTS, ids=lambda p: f"k{p.size}_{p[0]:.4g}")
def test_inverse_cdf_matches_binary_search(probs):
    u = _edge_uniforms(probs, seed=probs.size)
    got = dm._inverse_cdf(probs)(u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _binary_search_letters(probs, u))


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL_SUPPORTS))
def test_inverse_cdf_matches_binary_search_on_adversarial_supports(name):
    probs = dm.explicit(_ADVERSARIAL_SUPPORTS[name]).probs
    u = _edge_uniforms(probs, seed=1)
    got = dm._inverse_cdf(probs)(u)
    np.testing.assert_array_equal(got, _binary_search_letters(probs, u))
    assert np.all(probs[got] > 0.0)


@pytest.mark.parametrize("k", [1, 3, 7, 200, 1000])
def test_guide_lookup_is_exact_at_bucket_edges(k):
    # u*m can round up onto bucket j from just below j/m, so guide[j] must
    # start at or before the letter of such a u.  Uniform supports put their
    # cumulative sums on bucket edges; zipf ones fall between them.
    m = 4 * k
    edges = np.arange(m) / m
    u = np.concatenate([edges, np.nextafter(edges, 0.0), [np.nextafter(1.0, 0.0)]])
    for probs in (dm.uniform(k).probs, dm.zipf(k, 1.0).probs, dm.zipf(k, 2.0).probs):
        np.testing.assert_array_equal(dm._inverse_cdf(probs)(u), _binary_search_letters(probs, u))


@pytest.mark.parametrize("d", [dm.zipf(100000, 2.0), dm.geometric(2000, 0.05)],
                         ids=lambda d: d.label)
def test_guide_lookup_past_its_step_cap_matches_binary_search(d):
    # Runs of atoms far below 1/(4K) put draws many letters behind their
    # bucket's start; those past the step cap finish by binary search.
    u = _edge_uniforms(d.probs, seed=3)
    want = _binary_search_letters(d.probs, u)
    m = 4 * d.size
    start = _binary_search_letters(d.probs, np.floor(u * m) * ((1.0 - 2.0**-50) / m))
    assert (want - start).max() > dm._MAX_GUIDE_STEPS
    np.testing.assert_array_equal(dm._inverse_cdf(d.probs)(u), want)


def test_last_uniform_never_maps_to_a_zero_probability_letter():
    d = dm.explicit([0.3, 0.7 - 5e-13, 0.0])
    assert dm._inverse_cdf(d.probs)(np.array([np.nextafter(1.0, 0.0)])).tolist() == [1]
    x = dm.sample(d, 20000, seed=5)
    assert x.max() == 1
    emp.realized_missing(d, x, gf.power(1.0))


def test_sample_searches_one_letter_table_that_ends_at_the_last_positive_letter():
    # the sum is 1 - 5e-13 and the last atom is 0: a u at or above the last
    # cumulative sum maps to letter 1, and sample draws the kernel's letters
    d = dm.explicit([0.3, 0.7 - 5e-13, 0.0])
    table = dm._cdf_table(d.probs)
    assert table[0] == 0.3 and table[1:].tolist() == [math.inf, math.inf]
    edge = np.array([0.3, 1.0 - 5e-13, np.nextafter(1.0, 0.0)])
    assert np.searchsorted(table, edge, side="right").tolist() == [1, 1, 1]
    x = dm.sample(d, 20000, seed=9)
    u = np.random.Generator(np.random.PCG64(9)).random(20000)
    np.testing.assert_array_equal(x, dm._inverse_cdf(d.probs)(u))
    np.testing.assert_array_equal(x, _binary_search_letters(d.probs, u))


def test_sample_rejects_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed"):
        dm.sample(dm.uniform(3), 3, seed=-1)


def test_sample_stream_is_pinned():
    # sha256 of the int64 letters; computed with the binary-search lookup
    # that the guide table replaced, so any change of stream fails here.
    want = {
        "zipf:200:1": "873d02b0daf1f2c787af9ca4b124838ddeffabdb5fa1700a3a631d88097e9346",
        "uniform:1000": "630ad4dd66cb1763e2c10485eb6b75e3de35eab11ca85be56aa38156b26acfee",
    }
    for d in (dm.zipf(200, 1.0), dm.uniform(1000)):
        x = dm.sample(d, 5000, seed=7)
        assert hashlib.sha256(x.astype("<i8").tobytes()).hexdigest() == want[d.label]


def test_sample_draws_by_binary_search_without_a_guide_table(monkeypatch):
    def no_guide(probs):
        raise AssertionError("sample built a guide table")

    monkeypatch.setattr(dm, "_inverse_cdf", no_guide)
    for probs in ([0.3, 0.7 - 5e-13, 0.0], dm.zipf(1000, 1.0).probs):
        d = dm.explicit(probs)
        rng = np.random.Generator(np.random.PCG64(4))
        x = dm.sample(d, 3000, seed=4)
        np.testing.assert_array_equal(x, _binary_search_letters(d.probs, rng.random(3000)))


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_power_sum_uniform_oracle(alpha):
    # at n = 0, E[G0] for g = power(alpha) is the power sum sum_x p_x^alpha
    k = 20
    got = dm.expected_missing(dm.uniform(k), 0, gf.power(alpha))
    assert got == pytest.approx(k ** (1.0 - alpha), rel=1e-13, abs=0)


def test_expected_missing_uniform_closed_form():
    # uniform(k) with g(p)=p: E[G0] = (1-1/k)^n exactly
    k, n = 50, 35
    d = dm.uniform(k)
    got = dm.expected_missing(d, n, gf.power(1.0))
    assert got == pytest.approx((1.0 - 1.0 / k) ** n, rel=1e-12, abs=0)


def test_expected_missing_two_point_oracle():
    d = dm.explicit([0.3, 0.7])
    g = gf.power(2.0)
    n = 6
    want = 0.09 * 0.7**6 + 0.49 * 0.3**6
    assert dm.expected_missing(d, n, g) == pytest.approx(want, rel=1e-13, abs=0)


def test_expected_missing_at_zero_is_total_mass_of_g():
    d = dm.zipf(40, 1.0)
    g = gf.power(2.0)
    assert dm.expected_missing(d, 0, g) == pytest.approx(np.sum(d.probs**2), rel=1e-13, abs=0)


@given(n=st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_expected_missing_nonincreasing_in_n(n):
    d = dm.zipf(25, 1.0)
    g = gf.power(1.0)
    assert dm.expected_missing(d, n + 1, g) <= dm.expected_missing(d, n, g) + 1e-15


def test_expected_missing_skips_zero_probability_letters():
    d = dm.explicit([0.5, 0.0, 0.5])
    g = gf.power(1.0)
    assert dm.expected_missing(d, 3, g) == pytest.approx(2 * 0.5 * 0.5**3, rel=1e-13, abs=0)


@pytest.mark.parametrize("g", [gf.power(1.0), gf.power(2.5), gf.power(0.5), gf.entropy_log2(2)],
                         ids=["power1", "power2.5", "power0.5", "entropy2"])
def test_point_mass_moments(g):
    # (1 - 1)^n = 0^n, which is 1 at n = 0: E[G0] = g(1) there, 0 after
    d = dm.explicit([1.0])
    assert dm.expected_missing(d, 0, g) == g.eval(1.0)
    assert dm.expected_missing(d, 5, g) == 0.0
    assert dm.variance_sum_bound(d, 0, g) == dm.variance_sum_bound(d, 5, g) == 0.0


@pytest.mark.parametrize("g", [gf.power(1.0), gf.power(2.0), gf.entropy_log2(10**6)],
                         ids=["power1", "power2", "entropy1e6"])
@pytest.mark.parametrize("base", [dm.explicit([0.3, 0.7]), dm.zipf(40, 1.0),
                                  dm.geometric(300, 0.02)],
                         ids=["two_point", "zipf40", "geometric300"])
def test_zero_probability_letters_change_no_moment(base, g):
    # zeros inserted anywhere in the support: every sum over it holds to 1e-15
    rng = np.random.default_rng(base.size)
    k = base.size
    slots = np.sort(rng.choice(2 * k + 1, size=k, replace=False))
    probs = np.zeros(2 * k + 1)
    probs[slots] = base.probs
    padded = dm.explicit(probs)
    sample = dm.sample(base, 30, seed=5)
    for n in (0, 1, 30, 10**4):
        for moment in (dm.expected_missing, dm.variance_sum_bound):
            assert moment(padded, n, g) == pytest.approx(moment(base, n, g), rel=1e-15, abs=0)
    for realized in (emp.realized_missing, emp.realized_observed):
        want = realized(base, sample, g)
        assert realized(padded, slots[sample], g) == pytest.approx(want, rel=1e-15, abs=0)


def test_variance_sum_bound_two_point_oracle():
    d = dm.explicit([0.4, 0.6])
    g = gf.power(1.0)
    n = 5
    want = sum(p * p * (1 - p) ** n * (1 - (1 - p) ** n) for p in (0.4, 0.6))
    assert dm.variance_sum_bound(d, n, g) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
@pytest.mark.parametrize(
    "dist",
    [dm.uniform(50), dm.zipf(200, 1.0), dm.geometric(100, 0.2)],
    ids=["uniform50", "zipf200", "geom100"],
)
def test_variance_sum_bound_below_ustar_moment(dist, n):
    # each term is p * u_2-integrand, so the sum is at most u*_2(n, g)
    from missingmass.ustar_engine import u_star

    g = gf.power(1.0)
    assert dm.variance_sum_bound(dist, n, g) <= u_star(n, g, 2).value * (1 + 1e-12)


def test_variance_of_missing_mass_bounded_by_gamma_over_n():
    # sum p^2 (1-p)^n (1-(1-p)^n) <= u*_2(n, id) <= gamma/n for n >= 3
    from missingmass.ustar_engine import gamma_const

    g = gf.power(1.0)
    for n in (3, 10, 100):
        for dist in (dm.uniform(50), dm.zipf(500, 2.0)):
            assert dm.variance_sum_bound(dist, n, g) <= gamma_const() / n + 1e-15
