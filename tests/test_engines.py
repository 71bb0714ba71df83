"""Interval engines: quantile algebra, engine contracts, baseline methods."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from implicit_boot.engines import (CIMethod, CIResult, DistributionSample,
                                   asymptotic_ci, asymptotic_components,
                                   bca_bootstrap, bca_level,
                                   empirical_quantile,
                                   implicit_bootstrap,
                                   indirect_inference_correct,
                                   jackknife_acceleration,
                                   observed_information,
                                   percentile_parametric_bootstrap,
                                   studentized_bootstrap)
from implicit_boot.errors import DomainError, SingularInformation
from implicit_boot.estimators import (CensoredMeanEstimator, LomaxMLE,
                                      LomaxNaiveWMLE, ParetoMLE,
                                      SampleMaxEstimator, StudentTCensoredMLE)
from implicit_boot.matcher import MatchPath
from implicit_boot.models import Dataset, make_model
from implicit_boot.rng import (MasterSeed, Role, StreamKey, derive_seed,
                               derive_seeds, draw_block, draw_uniforms)

MS = MasterSeed(577215)


def _block(i, m):
    return draw_block(derive_seed(MS, StreamKey(i, Role.OBSERVED)), m)


# ---------------------------------------------------------------- quantiles

def test_empirical_quantile_order_statistics():
    s = np.arange(1.0, 11.0)
    assert empirical_quantile(s, 0.3) == 3.0  # k = ceil(3.0) = 3
    assert empirical_quantile(s, 0.31) == 4.0
    assert empirical_quantile(s, 0.05) == 1.0
    assert empirical_quantile(s, 0.999) == 10.0
    assert empirical_quantile(np.array([7.0]), 0.5) == 7.0


def test_empirical_quantile_float_guard_at_exact_multiples():
    # 0.7 * 10 is 6.999999... in floating point; the guard must keep k = 7
    s = np.arange(1.0, 11.0)
    assert empirical_quantile(s, 0.7) == 7.0
    assert empirical_quantile(np.arange(1.0, 21.0), 0.15) == 3.0


def test_empirical_quantile_rejects_bad_levels():
    for a in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            empirical_quantile(np.array([1.0, 2.0]), a)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=60),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_quantile_nondecreasing_in_level(values, a1, a2):
    s = np.asarray(values)
    lo, hi = min(a1, a2), max(a1, a2)
    assert empirical_quantile(s, lo) <= empirical_quantile(s, hi)


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1,
                max_size=40),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_quantile_commutes_with_increasing_transformations(values, a):
    s = np.asarray(values)
    for g in (np.exp, lambda x: 3.0 * x - 2.0, np.arctan):
        assert empirical_quantile(g(s), a) == g(empirical_quantile(s, a))


def test_distribution_sample_validation():
    with pytest.raises(DomainError):
        DistributionSample(values=np.array([]))
    with pytest.raises(DomainError):
        DistributionSample(values=np.zeros((2, 2)))
    s = DistributionSample(values=np.array([1.0, 2.0]))
    assert s.B == 2
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_ci_result_validation():
    with pytest.raises(DomainError):
        CIResult(CIMethod.IMPLICIT, 1.5, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        CIResult(CIMethod.IMPLICIT, 0.9, 2.0, 1.0, 0.5)


# ---------------------------------------------------------------- implicit

def _uniform_data(i, n=12, theta=2.0):
    return make_model("uniform").simulate([theta], _block(i, n))


def test_implicit_sample_depends_on_data_only_through_pi_obs():
    # two datasets with the same sample maximum and the same master seed
    # must produce identical resampled values, draw for draw
    model, est = make_model("uniform"), SampleMaxEstimator()
    d1 = Dataset(y=np.array([0.2, 0.5, 1.7]))
    d2 = Dataset(y=np.array([1.7, 1.1, 0.3]))
    s1, _ = implicit_bootstrap(d1, model, est, B=200, master=MS)
    s2, _ = implicit_bootstrap(d2, model, est, B=200, master=MS)
    np.testing.assert_array_equal(s1.values, s2.values)


def test_implicit_closed_form_and_switched_paths_agree():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(1)
    sa, ca = implicit_bootstrap(data, model, est, B=300, master=MS,
                                path=MatchPath.CLOSED_FORM)
    sb, cb = implicit_bootstrap(data, model, est, B=300, master=MS,
                                path=MatchPath.SWITCHED)
    np.testing.assert_allclose(np.sort(sa.values), np.sort(sb.values),
                               rtol=1e-9)
    assert ca.upper == pytest.approx(cb.upper, rel=1e-9)


def test_implicit_draws_match_hand_computed_ratio():
    # uniform model: each draw is pi_hat / max(noise block)
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(2, n=15)
    pi_hat = float(np.max(data.y))
    B = 100
    sample, _ = implicit_bootstrap(data, model, est, B=B, master=MS,
                                   path=MatchPath.CLOSED_FORM)
    seeds = derive_seeds(MS, 0, Role.BOOT, np.arange(1, B + 1))
    ref = pi_hat / np.max(draw_uniforms(seeds, 15), axis=1)
    np.testing.assert_allclose(sample.values, ref, rtol=1e-12)


def test_implicit_interval_equivariant_under_monotone_psi():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(3)
    _, plain = implicit_bootstrap(data, model, est, B=250, master=MS,
                                  alpha=0.9, two_sided=True)
    _, logged = implicit_bootstrap(data, model, est,
                                   psi=lambda t: float(np.log(t[0])),
                                   B=250, master=MS, alpha=0.9, two_sided=True)
    assert logged.lower == pytest.approx(np.log(plain.lower), rel=1e-12)
    assert logged.upper == pytest.approx(np.log(plain.upper), rel=1e-12)


def test_one_sided_interval_is_upper_bound_only():
    model, est = make_model("uniform"), SampleMaxEstimator()
    _, ci = implicit_bootstrap(_uniform_data(4), model, est, B=200, master=MS,
                               alpha=0.95, two_sided=False)
    assert ci.lower == -np.inf and np.isfinite(ci.upper)


def test_small_B_warns():
    model, est = make_model("uniform"), SampleMaxEstimator()
    with pytest.warns(UserWarning, match="small"):
        implicit_bootstrap(_uniform_data(5), model, est, B=20, master=MS)


# ---------------------------------------------------------------- baselines

def test_percentile_bootstrap_hand_check_on_uniform():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(6, n=15)
    theta_hat = float(np.max(data.y))
    B = 120
    sample, ci = percentile_parametric_bootstrap(data, model, est, B=B,
                                                 master=MS)
    seeds = derive_seeds(MS, 0, Role.BOOT, np.arange(1, B + 1))
    ref = theta_hat * np.max(draw_uniforms(seeds, 15), axis=1)
    np.testing.assert_allclose(sample.values, ref, rtol=1e-12)
    assert ci.point == pytest.approx(theta_hat)


def test_asymptotic_interval_matches_textbook_z_formula():
    # gaussian location with unit variance: observed information is exactly
    # n, so the Wald interval is mean +/- z / sqrt(n) to rounding error
    model, est = make_model("andrews"), CensoredMeanEstimator()
    data = model.simulate([3.0], _block(7, 40))
    assert np.mean(data.y) > 0.0
    ci = asymptotic_ci(data, model, est, alpha=0.95, two_sided=True)
    mean = float(np.mean(data.y))
    z = float(special.ndtri(0.975))
    # the information comes from a finite-difference Hessian, so the scale
    # carries a few units of 1e-8 error
    assert ci.lower == pytest.approx(mean - z / np.sqrt(40.0), abs=1e-6)
    assert ci.upper == pytest.approx(mean + z / np.sqrt(40.0), abs=1e-6)


def test_observed_information_quadratic_exact():
    H = observed_information(
        lambda t: -0.5 * (3.0 * t[0] ** 2 + 2.0 * t[0] * t[1] + 2.0 * t[1] ** 2),
        np.array([0.3, -0.7]))
    np.testing.assert_allclose(H, [[3.0, 1.0], [1.0, 2.0]], atol=1e-6)


def test_asymptotic_bootstrap_covariance_route():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(8, n=200)
    ci = asymptotic_ci(data, model, est, alpha=0.95, two_sided=True,
                       cov="bootstrap", master=MS)
    assert ci.meta["cov"] == "bootstrap"
    assert 0.0 < ci.upper - ci.lower < 0.2
    with pytest.raises(ValueError):
        asymptotic_ci(data, model, est, cov="nope")


def test_asymptotic_needs_some_covariance_source():
    model, est = make_model("uniform"), SampleMaxEstimator()
    with pytest.raises(SingularInformation):
        asymptotic_ci(_uniform_data(9), model, est, cov="information")


def test_bootstrap_covariance_drops_samples_without_an_mle():
    # Lomax n=50, replicate 0 of master seed 12: one of the 200 batched
    # re-estimates has no MLE and comes back as a NaN row
    model, est = make_model("lomax"), LomaxMLE()
    master = MasterSeed(12)
    data = model.simulate([1.0, 1.5], draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), 50))
    _, sigma = asymptotic_components(data, model, est, cov="bootstrap",
                                     master=master, replicate_id=0)
    assert np.isfinite(sigma) and sigma > 0.0


@pytest.mark.parametrize("m", [260, 265])
def test_censored_t_fit_at_the_nu_bound_stays_in_the_box(m):
    # criterion-7 replicates whose censored-t MLE sits on nu = 100
    model = make_model("student_t_censored", n=100)
    est = StudentTCensoredMLE(model)
    theta0 = [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0]
    data = model.simulate(theta0, draw_block(
        derive_seed(MasterSeed(0), StreamKey(m, Role.OBSERVED)), 100))
    theta = est.estimate(data).pi
    assert model.box.contains(theta)
    psi_hat, sigma = asymptotic_components(data, model, est, psi=1,
                                           replicate_id=m)
    assert psi_hat == theta[1]
    assert np.isfinite(sigma) and sigma > 0.0


def test_studentized_close_to_wald_at_large_n():
    model, est = make_model("lomax"), LomaxMLE()
    data = model.simulate([1.0, 1.5], _block(10, 2000))
    ci_t = studentized_bootstrap(data, model, est, B=150, master=MS,
                                 alpha=0.95, two_sided=True)
    ci_w = asymptotic_ci(data, model, est, alpha=0.95, two_sided=True)
    width_t = ci_t.upper - ci_t.lower
    width_w = ci_w.upper - ci_w.lower
    assert abs(width_t - width_w) / width_w < 0.25
    assert abs(ci_t.point - ci_w.point) < 1e-12


# ---------------------------------------------------------------- BCa

def test_bca_level_reduces_to_identity_without_correction():
    for level in (0.1, 0.5, 0.9):
        assert bca_level(0.0, 0.0, level, 1000) == pytest.approx(level,
                                                                 abs=1e-12)


def test_bca_level_clipped_to_resolvable_range():
    assert bca_level(5.0, 0.0, 0.999, 100) == 100.0 / 101.0
    assert bca_level(-5.0, 0.0, 0.001, 100) == 1.0 / 101.0


def test_jackknife_acceleration_degenerate_returns_none():
    data = _uniform_data(11)
    assert jackknife_acceleration(data, SampleMaxEstimator(),
                                  lambda t: 1.0) is None


def test_bca_falls_back_to_percentile_on_degenerate_jackknife():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(12)
    with pytest.warns(UserWarning, match="jackknife"):
        ci = bca_bootstrap(data, model, est, psi=lambda t: 1.0, B=150,
                           master=MS)
    assert ci.meta["fallback"] == "percentile"


def test_bca_runs_on_pareto():
    model, est = make_model("pareto"), ParetoMLE()
    data = model.simulate([1.3, 0.8], _block(13, 40))
    ci = bca_bootstrap(data, model, est, psi=1, B=300, master=MS,
                       alpha=0.9, two_sided=True)
    assert ci.lower < ci.point < ci.upper
    assert abs(ci.meta["z0"]) < 1.0


# ---------------------------------------------------------------- correction

def test_indirect_inference_leaves_a_consistent_estimator_near_truth():
    model, est = make_model("lomax"), LomaxMLE()
    data = model.simulate([1.0, 1.5], _block(14, 2000))
    theta = indirect_inference_correct(data, model, est, H=30, master=MS)
    np.testing.assert_allclose(theta.values, [1.0, 1.5], rtol=0.1)


def test_indirect_inference_removes_the_weighting_bias():
    # the naive weighted fit sits far from the generator; the corrected
    # value must land close to it
    model = make_model("lomax")
    wmle = LomaxNaiveWMLE()
    data = model.simulate([1.0, 1.5], _block(15, 1000))
    naive = wmle.estimate(data).pi
    corrected = indirect_inference_correct(data, model, wmle, H=50,
                                           master=MS).values
    truth = np.array([1.0, 1.5])
    assert np.linalg.norm(corrected - truth) < np.linalg.norm(naive - truth)
    np.testing.assert_allclose(corrected, truth, rtol=0.2)


def test_indirect_inference_rejects_empty_budget():
    model, est = make_model("lomax"), LomaxMLE()
    with pytest.raises(ValueError):
        indirect_inference_correct(Dataset(y=np.ones(10)), model, est, H=0)
