"""Interval engines: quantile algebra, engine contracts, baseline methods."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from implicit_boot import exact
from implicit_boot.engines import (METHOD_REGISTRY, CIMethod, CIResult,
                                   DistributionSample,
                                   asymptotic_ci, asymptotic_components,
                                   bca_bootstrap, bca_level,
                                   empirical_quantile,
                                   implicit_bootstrap,
                                   indirect_inference_correct,
                                   jackknife_acceleration,
                                   observed_information,
                                   percentile_parametric_bootstrap,
                                   studentized_bootstrap)
from implicit_boot.errors import (DomainError, ImplicitBootError,
                                  SingularInformation)
from implicit_boot.estimators import (CensoredMeanEstimator, LomaxMLE,
                                      LomaxNaiveWMLE, ParetoMLE,
                                      SampleMaxEstimator, StudentTCensoredMLE)
from implicit_boot.matcher import MatchPath, closed_form_match
from implicit_boot.models import Dataset, LomaxModel, make_model
from implicit_boot.rng import (MasterSeed, RandomBlock, Role, StreamKey,
                               derive_seed, derive_seeds, draw_block,
                               draw_uniforms)

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
                                   psi=lambda t: np.log(t[:, 0]),
                                   B=250, master=MS, alpha=0.9, two_sided=True)
    assert logged.lower == pytest.approx(np.log(plain.lower), rel=1e-12)
    assert logged.upper == pytest.approx(np.log(plain.upper), rel=1e-12)


_CLOSED_FORM_CASES = [
    ("uniform", SampleMaxEstimator, [2.0], 12, 0),
    ("andrews", CensoredMeanEstimator, [0.3], 25, 0),
    ("pareto", ParetoMLE, [1.3, 0.8], 20, 4),
]


@pytest.mark.parametrize("name,make_est,theta0,n,ulps", _CLOSED_FORM_CASES,
                         ids=[c[0] for c in _CLOSED_FORM_CASES])
def test_closed_form_engine_equals_per_row_closed_form_match(
        name, make_est, theta0, n, ulps):
    # one batched closed-form call per replicate gives the draws of B
    # single-summary calls: bit for bit where the formula is one rounding,
    # within a few ulp where it takes an array power
    model, est, B = make_model(name), make_est(), 2000
    for j in range(len(theta0)):
        data = model.simulate(theta0, _block(40 + j, n))
        sample, ci = implicit_bootstrap(data, model, est, psi=j, B=B,
                                        master=MS, path=MatchPath.CLOSED_FORM,
                                        replicate_id=j)
        seeds = derive_seeds(MS, j, Role.BOOT, np.arange(1, B + 1))
        stats = exact.summaries_from_uniforms(name, draw_uniforms(seeds, n))
        pi_obs = est.estimate(data)
        rows = np.array([closed_form_match(name, pi_obs, s).theta_check[j]
                         for s in stats])
        if ulps == 0:
            np.testing.assert_array_equal(sample.values, rows)
        else:
            np.testing.assert_array_max_ulp(sample.values, rows, maxulp=ulps)
        assert ci.meta["mean_delta"] == 0.0 and ci.meta["delta_flag_frac"] == 0.0


def test_scalar_returning_psi_raises_domain_error():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(6)
    for engine in (implicit_bootstrap, percentile_parametric_bootstrap):
        with pytest.raises(DomainError, match="psi must map"):
            engine(data, model, est, psi=lambda t: 1.0, B=100, master=MS)
    with pytest.raises(DomainError, match="psi must map"):
        asymptotic_components(data, model, est, psi=lambda t: t[:, :1],
                              cov="bootstrap", master=MS)


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
        lambda t: -0.5 * (3.0 * t[:, 0] ** 2 + 2.0 * t[:, 0] * t[:, 1]
                          + 2.0 * t[:, 1] ** 2),
        np.array([0.3, -0.7]))
    np.testing.assert_allclose(H, [[3.0, 1.0], [1.0, 2.0]], atol=1e-6)


def _stencil_loop_information(loglik, theta, box):
    """The information as a loop over the stencil, one scalar call per
    point: the form observed_information had before it took rows."""
    p = theta.shape[0]
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(theta))
    theta = np.clip(theta, box.lower + 2.0 * h, box.upper - 2.0 * h)
    H = np.empty((p, p))
    f0 = loglik(theta)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        H[i, i] = (loglik(theta + ei) - 2.0 * f0 + loglik(theta - ei)) / h[i] ** 2
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                loglik(theta + ei + ej) - loglik(theta + ei - ej)
                - loglik(theta - ei + ej) + loglik(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return -H


@pytest.mark.parametrize("name, theta, est", [
    ("lomax", [1.0, 1.5], LomaxMLE()),
    ("student_t_censored", [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951,
                            2.0], None)])
def test_observed_information_on_k_rows_equals_k_single_calls(name, theta, est):
    # one loglik call scores the stencils of all k points, row i on sample i;
    # each point's information equals its own single-point call and the
    # scalar stencil loop bit for bit.  Censored-t rows are perturbed fits,
    # the last one with nu within two steps of its bound of 100
    model = make_model(name, n=60)
    k = 6
    U = draw_uniforms(derive_seeds(MS, 32, Role.BOOT, np.arange(1, k + 1)), 60)
    batch = model.simulate_batch(np.tile(theta, (k, 1)), U)
    if est is not None:
        thetas = est.estimate_batch(batch)
    else:
        rng = np.random.default_rng(8)
        thetas = theta * np.exp(rng.normal(0.0, 0.05, (k, model.p)))
        thetas[-1, -1] = 100.0 - 1e-9
    assert np.all(np.isfinite(thetas))
    S = 1 + 2 * model.p ** 2
    calls = []

    def loglik(rows):
        calls.append(rows.shape)
        return model.loglik_batch(rows, batch.rows(np.repeat(np.arange(k), S)))

    H = observed_information(loglik, thetas, model.box)
    assert calls == [(k * S, model.p)] and H.shape == (k, model.p, model.p)
    for i in range(k):
        sample = batch.rows([i])
        one = observed_information(lambda t: model.loglik_batch(t, sample),
                                   thetas[i], model.box)
        data = Dataset(y=sample.y[0], X=sample.X,
                       censored=None if sample.censored is None
                       else sample.censored[0])
        loop = _stencil_loop_information(lambda t: model.loglik(t, data),
                                         thetas[i], model.box)
        assert np.array_equal(H[i], one) and np.array_equal(one, loop)


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


def test_censored_t_percentile_bootstrap_fits_its_draws_in_one_batch(monkeypatch):
    # criterion-7 config, replicate 0: the B re-estimates are one batched fit;
    # the one scalar fit is the point estimate on the observed sample
    model = make_model("student_t_censored", n=100)
    est = StudentTCensoredMLE(model)
    theta0 = [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0]
    master = MasterSeed(0)
    data = model.simulate(theta0, draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), 100))
    batch_rows, scalar_calls = [], []
    batch_fit = StudentTCensoredMLE.estimate_batch
    scalar_fit = StudentTCensoredMLE.estimate

    def counted_batch(self, batch):
        batch_rows.append(batch.y.shape[0])
        return batch_fit(self, batch)

    def counted_scalar(self, sample):
        scalar_calls.append(sample)
        return scalar_fit(self, sample)

    monkeypatch.setattr(StudentTCensoredMLE, "estimate_batch", counted_batch)
    monkeypatch.setattr(StudentTCensoredMLE, "estimate", counted_scalar)
    sample, _ = percentile_parametric_bootstrap(data, model, est, psi=1, B=200,
                                                master=master)
    assert len(scalar_calls) == 1 and scalar_calls[0] is data
    assert batch_rows == [1, 200]  # the scalar fit is a batch of one
    assert sample.B == 200


def test_studentized_bootstrap_fits_and_scores_its_draws_in_one_batch(
        monkeypatch):
    # Lomax n=50, B=300: the B refits are one estimate_batch call and their
    # informations one loglik_batch call per block of 64 draws; the observed
    # fit and its scale are batches of one
    model, est = make_model("lomax"), LomaxMLE()
    master = MasterSeed(12)
    data = model.simulate([1.0, 1.5], draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), 50))
    fits, scored = [], []
    batch_fit, batch_loglik = LomaxMLE.estimate_batch, LomaxModel.loglik_batch

    def counted_fit(self, batch):
        out = batch_fit(self, batch)
        fits.append((batch.y.shape[0], int(np.sum(np.isnan(out[:, 0])))))
        return out

    def counted_loglik(self, thetas, batch):
        scored.append(thetas.shape[0])
        return batch_loglik(self, thetas, batch)

    monkeypatch.setattr(LomaxMLE, "estimate_batch", counted_fit)
    monkeypatch.setattr(LomaxModel, "loglik_batch", counted_loglik)
    ci = studentized_bootstrap(data, model, est, psi=1, B=300, master=master)
    assert [rows for rows, _ in fits] == [1, 300]
    no_fit = fits[1][1]
    assert no_fit == 1
    # 1 + 2p^2 = 9 stencil points each: the observed fit, then 299 draws in
    # blocks of 64
    assert scored == [9, 9 * 64, 9 * 64, 9 * 64, 9 * 64, 9 * 43]
    assert ci.meta["B"] + ci.meta["failed"] == 300
    assert ci.meta["failed"] >= no_fit


def test_censored_t_studentized_bootstrap_memory_does_not_grow_with_B():
    # criterion-7 config, replicate 0, B=200: scoring the 99 stencil points
    # of all 200 draws in one loglik_batch call peaked at about 110 MB
    model = make_model("student_t_censored", n=100)
    est = StudentTCensoredMLE(model)
    theta0 = [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0]
    master = MasterSeed(0)
    data = model.simulate(theta0, draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), 100))
    tracemalloc.start()
    try:
        ci = studentized_bootstrap(data, model, est, psi=1, B=200,
                                   master=master)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ci.meta["B"] == 200
    assert peak < 60e6, f"peak {peak / 1e6:.1f} MB"


def _per_draw_studentized(data, model, est, j, B, master):
    """The bootstrap-t of psi = theta_j as a loop over its draws, each
    simulated, refitted and scaled on its own: the form the engine had
    before it batched.  Returns (psi_hat, sigma_hat, pivots)."""
    def sigma(theta, sample):
        info = _stencil_loop_information(lambda t: model.loglik(t, sample),
                                         theta, model.box)
        h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(theta))
        g = ((theta + np.diag(h))[:, j] - (theta - np.diag(h))[:, j]) / (2.0 * h)
        var = float(g @ np.linalg.solve(info, g))
        if not (np.isfinite(var) and var > 0.0):
            raise SingularInformation(f"variance {var}")
        return math.sqrt(var)

    theta_hat = est.estimate(data).pi
    sigma_hat = sigma(theta_hat, data)
    U = draw_uniforms(derive_seeds(master, 0, Role.BOOT, np.arange(1, B + 1)),
                      data.n)
    pivots = []
    for u in U:
        sim = model.simulate(model.box.clamp(theta_hat), RandomBlock(u=u))
        try:
            theta_b = est.estimate(sim).pi
            pivots.append((theta_b[j] - theta_hat[j]) / sigma(theta_b, sim))
        except (ImplicitBootError, np.linalg.LinAlgError):
            continue
    return theta_hat[j], sigma_hat, np.array(pivots)


@pytest.mark.parametrize("name, theta0, est, n", [
    ("lomax", [1.0, 1.5], LomaxMLE(), 50),
    ("andrews", [0.1], CensoredMeanEstimator(), 30)])
def test_studentized_bootstrap_equals_its_per_draw_loop(name, theta0, est, n):
    # the batched draws, fits and scales give the loop's pivots bit for bit
    model, master, B = make_model(name), MasterSeed(12), 200
    data = model.simulate(theta0, draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), n))
    j = model.p - 1
    psi_hat, sigma_hat, pivots = _per_draw_studentized(data, model, est, j, B,
                                                       master)
    family = METHOD_REGISTRY["studentized"](data, model, None, est, j, B, master)
    assert family.point == psi_hat and family.meta["sigma_hat"] == sigma_hat
    assert family.meta["B"] == pivots.size
    assert family.meta["failed"] == B - pivots.size
    alphas = np.array([0.8, 0.9, 0.95])
    lower, upper = family.endpoints(alphas, True)
    q = [empirical_quantile(pivots, a) for a in (1.0 + alphas) / 2.0]
    assert np.array_equal(lower, psi_hat - sigma_hat * np.array(q))
    q = [empirical_quantile(pivots, a) for a in (1.0 - alphas) / 2.0]
    assert np.array_equal(upper, psi_hat - sigma_hat * np.array(q))


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
                                  lambda t: np.ones(len(t))) is None


def test_bca_falls_back_to_percentile_on_degenerate_jackknife():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = _uniform_data(12)
    with pytest.warns(UserWarning, match="jackknife"):
        ci = bca_bootstrap(data, model, est, psi=lambda t: np.ones(len(t)), B=150,
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


def test_indirect_inference_solves_a_small_weighted_fit():
    # an n = 50 draw on which a hybr / Nelder-Mead search ends at a gap of
    # 1e10, the value of a simulated sample without a weighted fit
    model = make_model("lomax")
    ms = MasterSeed(0)
    data = model.simulate([1.0, 1.5], draw_block(
        derive_seed(ms, StreamKey(301, Role.OBSERVED)), 50))
    wmle = LomaxNaiveWMLE()
    theta = indirect_inference_correct(data, model, wmle, H=50, master=ms)
    U = draw_uniforms(derive_seeds(ms, 0, Role.INNER, np.arange(1, 51),
                                   salt=2), 50)
    sims = wmle.estimate_batch(model.simulate_batch(
        np.tile(theta.values, (50, 1)), U))
    gap = np.linalg.norm(np.mean(sims, axis=0) - wmle.estimate(data).pi)
    assert gap <= 1e-8


def test_indirect_inference_needs_a_square_system():
    model = make_model("lomax")
    data = model.simulate([1.0, 1.5], _block(16, 50))
    with pytest.raises(DomainError):
        indirect_inference_correct(data, model, CensoredMeanEstimator(), H=5)


def test_indirect_inference_rejects_empty_budget():
    model, est = make_model("lomax"), LomaxMLE()
    with pytest.raises(ValueError):
        indirect_inference_correct(Dataset(y=np.ones(10)), model, est, H=0)
