"""errors.require_int, the one integer check, errors.require_real and
errors.require_real_array, the one real-number rule, and every public
argument that goes through them."""

import decimal
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb
from missingmass import ustar_engine as ue
from missingmass.errors import InvalidInputError, require_int, require_real, require_real_array

P1 = gf.power(1.0)
U5 = dm.uniform(5)
GT = est.good_turing()

#: Every public integer argument, as a call that passes v in its place and
#: valid values everywhere else.
INTEGER_ARGUMENTS = {
    "uniform.K": lambda v: dm.uniform(v),
    "zipf.K": lambda v: dm.zipf(v, 1.0),
    "geometric.K": lambda v: dm.geometric(v, 0.5),
    "sample.n": lambda v: dm.sample(U5, v, 0),
    "sample.seed": lambda v: dm.sample(U5, 3, v),
    "expected_missing.n": lambda v: dm.expected_missing(U5, v, P1),
    "variance_sum_bound.n": lambda v: dm.variance_sum_bound(U5, v, P1),
    "SampleProfile.l": lambda v: emp.SampleProfile({v: 1}),
    "SampleProfile.phi_l": lambda v: emp.SampleProfile({1: v}),
    "profile_from_phi.l": lambda v: emp.profile_from_phi({v: 2}),
    "profile_from_phi.phi_l": lambda v: emp.profile_from_phi({2: v}),
    "profile_from_counts.count": lambda v: emp.profile_from_counts({"a": 1, "b": v}),
    "EstimatorKind.alpha": lambda v: est.EstimatorKind(v),
    "generalized_good_turing.alpha": lambda v: est.generalized_good_turing(v),
    "gt_value.n": lambda v: est.gt_value(3, v, 1),
    "gt_value.alpha": lambda v: est.gt_value(3, 10, v),
    "gt_bias_bound.n": lambda v: est.gt_bias_bound(v, 1),
    "gt_bias_bound.alpha": lambda v: est.gt_bias_bound(100, v),
    "entropy_log2.k_floor": lambda v: gf.entropy_log2(v),
    "u_star.n": lambda v: ue.u_star(v, P1, 2),
    "u_star.r": lambda v: ue.u_star(100, P1, v),
    "scale_parameter.n": lambda v: ue.scale_parameter(v, P1),
    "log_u2_closed_bound.n": lambda v: ue.log_u2_closed_bound(v, P1),
    "curve.n": lambda v: tb.curve("poly:2", v, P1, [0.1]),
    "build_spec.R": lambda v: tb.build_spec(100, P1, v),
    "mc_risk.n": lambda v: rl.mc_risk(U5, GT, P1, [v], 100, 0),
    "mc_risk.trials": lambda v: rl.mc_risk(U5, GT, P1, [10], v, 0),
    "mc_risk.seed": lambda v: rl.mc_risk(U5, GT, P1, [10], 100, v),
    "mc_bias.n": lambda v: rl.mc_bias(U5, GT, P1, v, 100, 0),
    "mc_bias.trials": lambda v: rl.mc_bias(U5, GT, P1, 10, v, 0),
    "mc_bias.seed": lambda v: rl.mc_bias(U5, GT, P1, 10, 100, v),
    "mc_tail.n": lambda v: rl.mc_tail(U5, P1, v, 1000, [0.1], 0),
    "mc_tail.trials": lambda v: rl.mc_tail(U5, P1, 20, v, [0.1], 0),
    "mc_tail.seed": lambda v: rl.mc_tail(U5, P1, 20, 1000, [0.1], v),
    "dirichlet_prior_variance.n": lambda v: rl.dirichlet_prior_variance(v, 1.0, 1),
    "dirichlet_prior_variance.alpha": lambda v: rl.dirichlet_prior_variance(10, 1.0, v),
    "dirichlet_mc_variance.n": lambda v: rl.dirichlet_mc_variance(v, 1.0, 1, 100, 0),
    "dirichlet_mc_variance.alpha": lambda v: rl.dirichlet_mc_variance(10, 1.0, v, 100, 0),
    "dirichlet_mc_variance.trials": lambda v: rl.dirichlet_mc_variance(10, 1.0, 1, v, 0),
    "dirichlet_mc_variance.seed": lambda v: rl.dirichlet_mc_variance(10, 1.0, 1, 100, v),
    "dirichlet_table.n": lambda v: rl.dirichlet_table([v], 1.0, 1, 0, 0),
    "dirichlet_table.alpha": lambda v: rl.dirichlet_table([10], 1.0, v, 0, 0),
    "dirichlet_table.trials": lambda v: rl.dirichlet_table([10], 1.0, 1, v, 0),
    "dirichlet_table.seed": lambda v: rl.dirichlet_table([10], 1.0, 1, 100, v),
}

#: The valid value of each argument, spelled as an int: each call above
#: succeeds with it.
VALID = {"uniform.K": 5, "zipf.K": 5, "geometric.K": 5, "SampleProfile.l": 2,
         "profile_from_phi.l": 2, "profile_from_counts.count": 2, "EstimatorKind.alpha": 1,
         "generalized_good_turing.alpha": 2, "gt_value.n": 10, "gt_value.alpha": 1,
         "gt_bias_bound.n": 100, "gt_bias_bound.alpha": 1, "entropy_log2.k_floor": 64,
         "u_star.r": 2, "build_spec.R": 2, "mc_risk.trials": 100, "mc_bias.trials": 100,
         "mc_tail.trials": 1000, "dirichlet_prior_variance.alpha": 1,
         "dirichlet_mc_variance.alpha": 1, "dirichlet_mc_variance.trials": 100,
         "dirichlet_table.alpha": 1, "dirichlet_table.trials": 100}

BAD_VALUES = {"nan": math.nan, "inf": math.inf, "2.5": 2.5, "str": "3", "None": None}


@pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_integer_argument_rejects_a_non_integer(argument, bad):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        INTEGER_ARGUMENTS[argument](bad)


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_integer_argument_takes_an_int_a_numpy_int_and_an_integral_float(argument):
    """The three spellings of one valid value give equal results."""
    call, value = INTEGER_ARGUMENTS[argument], VALID.get(argument, 10)
    first, *others = [_comparable(call(v)) for v in (value, np.int64(value), float(value))]
    assert others == [first, first]


def _comparable(result):
    """A result in a form == compares bit for bit."""
    if isinstance(result, dm.DiscreteDistribution):
        return result.label, result.probs.tobytes()
    if isinstance(result, np.ndarray):
        return result.dtype, result.tobytes()
    return result


def test_valid_spellings_give_bit_identical_results():
    eps = [0.05, 0.1, 0.2]
    assert tb.curve("poly:2", 100.0, P1, eps) == tb.curve("poly:2", 100, P1, eps)
    d = dm.uniform(np.int64(5))
    assert d.size == 5 and d.label == "uniform:5"
    bias = rl.mc_bias(d, GT, P1, 10, 200, 3)
    assert rl.mc_bias(d, GT, P1, np.int64(10), 200, 3) == bias
    kind = est.EstimatorKind(2.0)
    assert kind.alpha == 2 and type(kind.alpha) is int
    prof = emp.profile_from_phi({2.0: np.int64(3), np.int64(1): 4.0})
    assert prof.phi == {2: 3, 1: 4} and prof.n == 10
    assert all(type(x) is int for x in (*prof.phi, *prof.phi.values()))


def test_require_int_returns_an_int_or_names_the_argument_and_its_range():
    for value in (7, np.int64(7), np.uint8(7), 7.0, np.float64(7.0)):
        out = require_int("n", value, 0)
        assert out == 7 and type(out) is int
    assert require_int("k", 2**1022, 2, 2.0**1022) == 2**1022
    with pytest.raises(InvalidInputError, match=r"^n must be an integer >= 1, got 0$"):
        require_int("n", 0, 1)
    with pytest.raises(InvalidInputError, match=r"^R must be an integer in \[1, 170\], got 171$"):
        require_int("R", 171, 1, 170)
    with pytest.raises(InvalidInputError,
                       match=r"^k must be an integer in \[2, 4.49423283715579e\+307\]"):
        require_int("k", 2**1022 + 1, 2, 2.0**1022)
    for bad in (-math.inf, 1e-300, 7.5, "7", b"7", [7], np.float32(7.0)):
        with pytest.raises(InvalidInputError, match=re.escape(f"got {bad!r}")):
            require_int("n", bad, 0)


def test_a_bad_count_names_a_symbol_that_has_it():
    rule = "count must be an integer >= 1, got"
    with pytest.raises(InvalidInputError, match=f"^symbol 'b': {rule} 0$"):
        emp.profile_from_counts({"a": 1, "b": 0, "c": 1})
    # NaN equals no count, not even itself
    with pytest.raises(InvalidInputError, match=f"^symbol 'c': {rule} nan$"):
        emp.profile_from_counts({"a": 1, "c": math.nan})


#: Every public real argument, as a call that passes v in its place and valid
#: values everywhere else.
REAL_ARGUMENTS = {
    "power.alpha": lambda v: gf.power(v),
    "zipf.s": lambda v: dm.zipf(5, v),
    "geometric.q": lambda v: dm.geometric(5, v),
    "dirichlet_prior_variance.c": lambda v: rl.dirichlet_prior_variance(10, v, 1),
    "dirichlet_mc_variance.c": lambda v: rl.dirichlet_mc_variance(10, v, 1, 100, 0),
    "dirichlet_table.c": lambda v: rl.dirichlet_table([10], v, 1, 0, 0),
    "log_gamma_alpha.alpha": lambda v: ue.log_gamma_alpha(v),
}

#: Every public array of reals, in the same form.
REAL_ARRAY_ARGUMENTS = {
    "explicit.probs": lambda v: dm.explicit(v),
    "GFunction.eval.p": lambda v: P1.eval(v),
    "GFunction.eval_raw.p": lambda v: P1.eval_raw(v),
    "curve.eps_grid": lambda v: tb.curve("ssg", 100, gf.power(2), v),
    "mc_tail.eps_grid": lambda v: rl.mc_tail(U5, P1, 20, 1000, v, 0),
    "rate_fit.pairs": lambda v: rl.rate_fit(v),
}

BAD_REALS = {"str": "2", "None": None, "complex": 1j, "nan": math.nan, "inf": math.inf}
BAD_REAL_ARRAYS = {"str": ["a"], "numeric_str": ["0.5"], "None": [None], "complex": [0.5j]}


#: zipf's s = inf is valid, the point mass on the first letter, so it is not a case.
REAL_CASES = [(argument, bad) for argument in REAL_ARGUMENTS for bad in BAD_REALS
              if (argument, bad) != ("zipf.s", "inf")]


@pytest.mark.parametrize("argument,bad", REAL_CASES)
def test_every_real_argument_rejects_a_non_real_or_out_of_range_value(argument, bad):
    with pytest.raises(InvalidInputError):
        REAL_ARGUMENTS[argument](BAD_REALS[bad])


@pytest.mark.parametrize("bad", BAD_REAL_ARRAYS.values(), ids=BAD_REAL_ARRAYS.keys())
@pytest.mark.parametrize("argument", REAL_ARRAY_ARGUMENTS)
def test_every_real_array_argument_rejects_values_that_are_not_real(argument, bad):
    with pytest.raises(InvalidInputError, match="must be real numbers"):
        REAL_ARRAY_ARGUMENTS[argument](bad)


def test_zipf_takes_an_infinite_exponent_as_its_point_mass_limit():
    d = dm.zipf(5, math.inf)
    assert d.probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0] and d.label == "zipf:5:inf"
    assert _comparable(dm.parse(d.label)) == _comparable(d)


def test_valid_real_spellings_give_bit_identical_results():
    assert gf.power(2) == gf.power(2.0) == gf.power(np.float64(2)) == gf.power(np.int64(2))
    assert gf.power(Fraction(3, 2)) == gf.power(1.5)
    assert all(type(gf.power(v).alpha) is float for v in (2, True, Fraction(3, 2), np.float32(2)))
    assert _comparable(dm.zipf(5, np.float32(1.5))) == _comparable(dm.zipf(5, 1.5))
    assert _comparable(dm.geometric(5, Fraction(1, 4))) == _comparable(dm.geometric(5, 0.25))
    eps = [0.125, 0.25, 0.5]
    first = tb.curve("poly:2", 100, P1, eps)
    assert tb.curve("poly:2", 100, P1, tuple(eps)) == first
    assert tb.curve("poly:2", 100, P1, np.array(eps, dtype=np.float32)) == first
    assert _comparable(dm.explicit([0, 1, 0])) == _comparable(dm.explicit([0.0, 1.0, 0.0]))
    assert rl.dirichlet_prior_variance(10, 1, 1) == rl.dirichlet_prior_variance(10, 1.0, 1)
    assert rl.rate_fit([(10, 1), (20, 0.5), (40, 0.25)]) == rl.rate_fit(
        np.array([(10.0, 1.0), (20.0, 0.5), (40.0, 0.25)]))


def test_log_gamma_alpha_takes_alpha_up_to_the_power_cap():
    # 2 alpha - 1 is inf at alpha = inf, where the objective's log was NaN
    for alpha in (math.inf, 1.0000001e300, 0.5):
        with pytest.raises(InvalidInputError, match=r"1 <= alpha <= 1e300"):
            ue.log_gamma_alpha(alpha)
    # the value power(1e300)'s closed-form tails read: e log e - e at e = 2e300
    assert ue.log_gamma_alpha(1e300) == float.fromhex("0x1.01c176b68827dp+1007")
    assert ue.log_gamma_alpha(1) == ue.log_gamma_alpha(1.0) == math.log(ue.gamma_const())


def test_gfunction_eval_rejects_none_where_it_gave_nan():
    for call in (P1.eval, P1.eval_raw):
        with pytest.raises(InvalidInputError, match=r"^p must be real numbers, got \[None\]$"):
            call([None])
    assert P1.eval([True]) == np.array([1.0])


def test_explicit_file_must_hold_numbers_not_quoted_numbers(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(["0.5", "0.5"]), encoding="utf-8")
    with pytest.raises(InvalidInputError, match="probabilities must be real numbers"):
        dm.from_file(path)
    path.write_text(json.dumps([0.5, 0.5]), encoding="utf-8")
    assert dm.from_file(path).probs.tolist() == [0.5, 0.5]


def test_require_real_returns_a_float_or_names_the_argument():
    for value, out in ((True, 1.0), (3, 3.0), (2.5, 2.5), (Fraction(1, 4), 0.25),
                       (np.int64(3), 3.0), (np.uint8(3), 3.0), (np.float32(0.5), 0.5),
                       (math.inf, math.inf)):
        got = require_real("x", value)
        assert got == out and type(got) is float
    assert math.isnan(require_real("x", math.nan))
    for bad in ("2", b"2", None, 1j, np.complex128(1), decimal.Decimal(1), [1.0],
                np.array(1.0), 10**400):
        message = f"^x must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidInputError, match=message):
            require_real("x", bad)


def test_require_real_array_returns_float64_without_copying_float64():
    arr = np.array([0.25, 0.75])
    assert require_real_array("x", arr) is arr
    for value in ([True, False], [1, 2], np.array([1, 2], dtype=np.uint16),
                  np.array([1.0, 2.0], dtype=np.float32), (1, 2.0), 2, [[1, 2], [3, 4]], []):
        out = require_real_array("x", value)
        assert out.dtype == np.float64
        assert out.tolist() == np.asarray(value, dtype=float).tolist()
    for bad in (["a"], "1", None, [None], [1j], [decimal.Decimal(1)], [[1], [1, 2]],
                {"p": 1}, [10**400]):
        with pytest.raises(InvalidInputError, match="^x must be real numbers, got "):
            require_real_array("x", bad)
