"""Initial estimators: closed-form checks, quadrature oracles, batch parity."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, optimize

from implicit_boot import estimators
from implicit_boot.errors import (DegenerateSample, EmptyData, NonConvergence)
from implicit_boot.estimators import (HUBER_CUTOFF, CensoredMeanEstimator,
                                      FrechetMLE, LomaxMLE, LomaxNaiveWMLE,
                                      ParetoMLE, SampleMaxEstimator,
                                      StudentTCensoredMLE, StudentTNaiveMLE,
                                      _frechet_loglik_grad, _t_reg_loglik_grad,
                                      lomax_fisher_information, lomax_score)
from implicit_boot.models import BatchDataset, Dataset, make_model
from implicit_boot.rng import (MasterSeed, Role, StreamKey, derive_seed,
                               draw_block)

MS = MasterSeed(161803)


def _block(i, m):
    return draw_block(derive_seed(MS, StreamKey(i, Role.OBSERVED)), m)


def _lomax_sample(i, n, b=1.0, q=1.5):
    return make_model("lomax").simulate([b, q], _block(i, n))


# ---------------------------------------------------------------- simple ones

def test_sample_max_and_censored_mean_hand_values():
    assert SampleMaxEstimator().estimate(Dataset(y=[0.2, 0.9, 0.4])).pi[0] == 0.9
    cm = CensoredMeanEstimator()
    assert cm.estimate(Dataset(y=[-1.0, -2.0])).pi[0] == 0.0
    assert cm.estimate(Dataset(y=[1.0, 3.0])).pi[0] == 2.0
    assert cm.estimate(Dataset(y=[-1.0, 1.0])).pi[0] == 0.0


def test_empty_inputs_rejected():
    with pytest.raises(EmptyData):
        SampleMaxEstimator().estimate(Dataset(y=[]))
    with pytest.raises(EmptyData):
        CensoredMeanEstimator().estimate(Dataset(y=[]))
    with pytest.raises(EmptyData):
        ParetoMLE().estimate(Dataset(y=[1.0]))


def test_pareto_mle_formulas():
    y = np.array([1.0, 2.0, 4.0])
    pi = ParetoMLE().estimate(Dataset(y=y)).pi
    assert pi[0] == 1.0
    assert pi[1] == pytest.approx(3.0 / (np.log(2.0) + np.log(4.0)), rel=1e-14)
    with pytest.raises(DegenerateSample):
        ParetoMLE().estimate(Dataset(y=[2.0, 2.0, 2.0]))


# ---------------------------------------------------------------- Lomax MLE

def test_lomax_mle_large_n_sanity():
    data = _lomax_sample(0, 10 ** 4)
    pi = LomaxMLE().estimate(data).pi
    np.testing.assert_allclose(pi, [1.0, 1.5], rtol=0.05)


def test_lomax_mle_z_consistency():
    est = LomaxMLE()
    for i in range(5):
        data = _lomax_sample(1 + i, 200)
        pi = est.estimate(data).pi
        assert np.linalg.norm(est.z(data, pi)) < 1e-8


def test_lomax_mle_degenerate_input():
    with pytest.raises(NonConvergence):
        LomaxMLE().estimate(Dataset(y=[1.0]))


def test_lomax_mle_batch_matches_scalar_and_flags_rootless_rows():
    est = LomaxMLE()
    rows, expect = [], []
    for i in range(12):
        y = _lomax_sample(10 + i, 40).y
        rows.append(y)
        try:
            expect.append(est.estimate(Dataset(y=y)).pi)
        except NonConvergence:
            expect.append(None)
    # exponential-tail rows have no finite root of the profile score
    u = _block(99, 40).u
    rows.append(-np.log1p(-u))
    expect.append(None)
    out = est.estimate_batch(BatchDataset(y=np.vstack(rows)))
    for got, ref in zip(out, expect):
        if ref is None:
            assert np.all(np.isnan(got))
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-9)


def test_lomax_mle_batch_matches_scalar_on_interior_ridge_and_rootless_rows():
    est, model = LomaxMLE(), make_model("lomax")
    for n in (40, 50, 100):
        U = np.vstack([_block(1000 * n + i, n).u for i in range(120)])
        thetas = np.tile([1.0, 1.5], (120, 1))
        # far along the likelihood ridge (b, q large, b/q moderate) and
        # near the exponential limit, where many samples have no MLE
        thetas[40:80] = np.exp(np.linspace(3.0, 9.0, 40))[:, None] * [1.0, 1.2]
        thetas[80:] = np.exp(np.linspace(8.0, 16.0, 40))[:, None] * [1.0, 1.0]
        batch = model.simulate_batch(thetas, U)
        out = est.estimate_batch(batch)
        ref = np.full_like(out, np.nan)
        for i, y in enumerate(batch.y):
            try:
                ref[i] = est.estimate(Dataset(y=y)).pi
            except NonConvergence:
                pass
        no_mle = np.isnan(ref[:, 0])
        assert 0 < no_mle.sum() < 60
        np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))
        np.testing.assert_allclose(out[~no_mle], ref[~no_mle], rtol=1e-9)


# ---------------------------------------------------------------- Fisher info

def test_fisher_information_matches_quadrature():
    b, q = 1.3, 1.7

    def dens(y):
        return (q / b) * (1.0 + y / b) ** (-q - 1.0)

    num = np.empty((2, 2))
    for j in range(2):
        for k in range(2):
            num[j, k], _ = integrate.quad(
                lambda y, j=j, k=k: lomax_score(np.array([y]), b, q)[0, j]
                * lomax_score(np.array([y]), b, q)[0, k] * dens(y),
                0.0, np.inf, limit=200)
    np.testing.assert_allclose(lomax_fisher_information(b, q), num, rtol=1e-8)


# ---------------------------------------------------------------- naive WMLE

def _wmle_population_root(b0=1.0, q0=1.5):
    """Limit of the naive weighted MLE under Lomax(b0, q0), by quadrature."""
    est = LomaxNaiveWMLE()

    def dens(y):
        return (q0 / b0) * (1.0 + y / b0) ** (-q0 - 1.0)

    def mean_weighted_score(t):
        b, q = np.exp(t)

        def integrand(y, j):
            ya = np.array([y])
            return (est.weights(ya, b, q)[0]
                    * lomax_score(ya, b, q)[0, j] * dens(y))

        return np.array([integrate.quad(integrand, 0.0, np.inf, args=(j,),
                                        limit=200)[0] for j in range(2)])

    sol = optimize.root(mean_weighted_score, np.log([b0, q0]), method="hybr",
                        tol=1e-12)
    assert sol.success
    return np.exp(sol.x)


def test_wmle_weights_in_unit_interval():
    est = LomaxNaiveWMLE()
    y = _lomax_sample(20, 500).y
    w = est.weights(y, 1.0, 1.5)
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.any(w < 1.0)


def test_wmle_population_limit_and_large_n_agreement():
    # uncorrected weighting is asymptotically biased; the quadrature root is
    # the frozen anchor the consistency correction must undo
    limit = _wmle_population_root()
    np.testing.assert_allclose(limit, [1.3805, 1.9952], rtol=2e-4)
    pi = LomaxNaiveWMLE().estimate(_lomax_sample(21, 20000)).pi
    np.testing.assert_allclose(pi, limit, rtol=0.05)


def test_wmle_resists_a_gross_outlier():
    data = _lomax_sample(22, 400)
    y_bad = data.y.copy()
    y_bad[7] *= 1e3
    wmle, mle = LomaxNaiveWMLE(), LomaxMLE()
    w0, w1 = wmle.estimate(data).pi, wmle.estimate(Dataset(y=y_bad)).pi
    m0, m1 = mle.estimate(data).pi, mle.estimate(Dataset(y=y_bad)).pi
    w_shift = np.max(np.abs(w1 - w0) / w0)
    m_shift = np.max(np.abs(m1 - m0) / m0)
    assert w_shift < 0.25
    assert m_shift > w_shift


def test_wmle_z_batch_matches_scalar():
    est = LomaxNaiveWMLE()
    Y = np.vstack([_lomax_sample(30 + i, 60).y for i in range(4)])
    pi = (1.1, 1.4)
    zb = est.z_batch(BatchDataset(y=Y), pi)
    for i in range(4):
        ref = (est.weights(Y[i], *pi)[:, None]
               * lomax_score(Y[i], *pi)).mean(axis=0)
        np.testing.assert_allclose(zb[i], ref, rtol=1e-12)


def test_estimators_write_their_z_once():
    # z is z_batch on a batch of one, written in Estimator only; has_z
    # follows from z_batch
    classes = [c for c in vars(estimators).values()
               if isinstance(c, type) and issubclass(c, estimators.Estimator)
               and c is not estimators.Estimator]
    assert [c.__name__ for c in classes if "z" in vars(c)] == []
    assert all(est.has_z for est in (
        SampleMaxEstimator(), ParetoMLE(), CensoredMeanEstimator(), LomaxMLE(),
        LomaxNaiveWMLE(), StudentTNaiveMLE(), FrechetMLE()))
    assert not StudentTCensoredMLE(make_model("student_t_censored", n=50)).has_z


def test_censored_mean_batch_matches_scalar():
    est = CensoredMeanEstimator()
    model = make_model("andrews")
    # rows on both sides of the boundary: some clip to 0, some do not
    Y = np.vstack([model.simulate([th], _block(60 + i, 25)).y
                   for i, th in enumerate((0.0, 0.05, 0.4, 1.5, 0.0, 0.2))])
    Y[1] -= 1.0
    batch = est.estimate_batch(BatchDataset(y=Y))
    assert batch.shape == (6, 1)
    assert np.any(batch == 0.0) and np.any(batch > 0.0)
    for i in range(6):
        np.testing.assert_allclose(batch[i], est.estimate(Dataset(y=Y[i])).pi,
                                   rtol=1e-12, atol=0.0)


def test_huber_cutoff_value():
    from scipy import stats
    assert HUBER_CUTOFF == float(np.sqrt(stats.chi2.ppf(0.95, df=2)))


def test_package_import_leaves_scipy_stats_out():
    code = "import sys, implicit_boot; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- t regression

def test_t_naive_mle_consistent_without_censoring():
    model = make_model("student_t_censored", n=753)
    theta = np.array([50.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0])
    data = model.simulate(theta, _block(40, 753))
    assert np.all(data.censored > 0.5)
    est = StudentTNaiveMLE()
    fit = est.estimate(data)
    np.testing.assert_allclose(fit.pi[:6], theta[:6], rtol=0.08, atol=0.15)
    assert abs(fit.pi[6] - theta[6]) < 2.5
    assert np.linalg.norm(est.z(data, fit.pi)) < 1e-6


def test_t_naive_mle_z_batch_matches_scalar():
    model = make_model("student_t_censored", n=80)
    theta = np.array([4.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0])
    est = StudentTNaiveMLE()
    rows = [model.simulate(theta, _block(50 + i, 80)) for i in range(3)]
    batch = BatchDataset(y=np.vstack([d.y for d in rows]), X=model.X)
    pi = np.array([3.8, 0.9, -0.4, 0.25, 0.15, 1.1, 6.0])
    zb = est.z_batch(batch, pi)
    for i, d in enumerate(rows):
        ref = _t_reg_loglik_grad(pi, d.y, d.X)[1] / d.n
        np.testing.assert_allclose(zb[i], ref, rtol=1e-10, atol=1e-12)


def test_censored_t_mle_improves_the_censored_likelihood():
    model = make_model("student_t_censored", n=150)
    theta = np.array([1.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0])
    data = model.simulate(theta, _block(60, 150))
    assert np.any(data.censored < 0.5)
    naive = StudentTNaiveMLE().estimate(data).pi
    fit = StudentTCensoredMLE(model).estimate(data)
    assert model.loglik(fit.pi, data) >= model.loglik(
        model.box.clamp(naive, margin=1e-9), data)


# ---------------------------------------------------------------- Frechet

def _frechet_sample(i, n, m=0.0, s=1.0, a=3.0):
    u = _block(i, n).u
    return Dataset(y=m + s * (-np.log(u)) ** (-1.0 / a))


def test_frechet_mle_recovers_generating_parameters():
    est = FrechetMLE()
    fit = est.estimate(_frechet_sample(70, 5000, m=2.0, s=1.5, a=3.0))
    np.testing.assert_allclose(fit.pi, [2.0, 1.5, 3.0], rtol=0.1, atol=0.1)
    assert np.linalg.norm(est.z(_frechet_sample(70, 5000, 2.0, 1.5, 3.0),
                                fit.pi)) < 1e-6


def test_frechet_z_batch_matches_scalar_and_flags_bad_rows():
    est = FrechetMLE()
    Y = np.vstack([_frechet_sample(80 + i, 50, m=1.0).y for i in range(3)])
    pi = np.array([0.8, 1.2, 2.5])
    zb = est.z_batch(BatchDataset(y=Y), pi)
    for i in range(3):
        ref = _frechet_loglik_grad(pi, Y[i])[1] / Y.shape[1]
        np.testing.assert_allclose(zb[i], ref, rtol=1e-12)
    # a location above the row minimum invalidates the density support
    bad = est.z_batch(BatchDataset(y=Y), np.array([np.min(Y) + 0.1, 1.0, 2.0]))
    assert np.any(np.all(bad == 1e6, axis=1))
