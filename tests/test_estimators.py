"""Initial estimators: closed-form checks, quadrature oracles, batch parity."""

import ast
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
                                      lomax_fisher_information, lomax_score)
from implicit_boot.models import BatchDataset, Dataset, make_model
from implicit_boot.rng import (MasterSeed, Role, StreamKey, derive_seed,
                               derive_seeds, draw_block, draw_uniforms)

MS = MasterSeed(161803)


def _block(i, m):
    return draw_block(derive_seed(MS, StreamKey(i, Role.OBSERVED)), m)


def _lomax_sample(i, n, b=1.0, q=1.5):
    return make_model("lomax").simulate([b, q], _block(i, n))


# ---------------------------------------------------------------- scipy fits
# The one-sample scipy fits the batched ones replaced, kept as references:
# each returns the fit of one sample, or None where it finds none.

def _brentq_lomax_mle(y):
    """Brent's method on the Lomax profile score inside the grid's bracket."""
    Y = y[None, :]
    lo, hi, _, _ = estimators._lomax_bracket(Y)
    if np.isnan(lo[0]):
        return None
    log_b = optimize.brentq(
        lambda t: float(estimators._lomax_profile_score(Y, np.array([t]))[0]),
        lo[0], hi[0], xtol=1e-14, rtol=1e-15)
    b = np.array([[np.exp(log_b)]])
    return np.array([b[0, 0], estimators._lomax_profile_shape(Y, b)[0]])


def _hybr_lomax_wmle(y):
    """Powell's hybrid root of the weighted score on log (b, q), from the
    brentq Lomax MLE; None when the residual stays above 1e-8."""
    est, data = LomaxNaiveWMLE(), Dataset(y=y)
    init = _brentq_lomax_mle(y)
    if init is None:
        return None
    sol = optimize.root(lambda t: est.z(data, np.exp(t)), np.log(init),
                        method="hybr", tol=1e-12)
    pi = np.exp(sol.x)
    return pi if np.linalg.norm(est.z(data, pi)) <= 1e-8 else None


def _t_loglik_all_observed(theta, y, X):
    """t-regression log-likelihood with every response observed, through
    scipy.stats."""
    from scipy import stats
    beta, sigma, nu = theta[:-2], theta[-2], theta[-1]
    return float(np.sum(stats.t.logpdf((y - X @ beta) / sigma, nu))
                 - y.size * np.log(sigma))


def _lbfgsb_t_naive_mle(y, X):
    """L-BFGS-B on (beta, log sigma, log nu), log nu boxed to
    [log 0.3, log 100], from least squares."""
    k = X.shape[1]
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    s0 = max(float(np.std(y - X @ beta0)), 1e-3)
    x0 = np.concatenate([beta0, [np.log(s0), np.log(5.0)]])

    def negloglik(t):
        theta = np.concatenate([t[:k], np.exp(t[k:])])
        return -_t_loglik_all_observed(theta, y, X)

    res = optimize.minimize(negloglik, x0, method="L-BFGS-B",
                            bounds=[(None, None)] * (k + 1)
                            + [(np.log(0.3), np.log(100.0))],
                            options={"maxiter": 2000, "ftol": 1e-14,
                                     "gtol": 1e-9})
    return np.concatenate([res.x[:k], np.exp(res.x[k:])])


def _frechet_loglik_grad(theta, y):
    """Frechet log-likelihood and gradient in (m, s, a) of one sample."""
    m, s, a = theta
    z = (y - m) / s
    if s <= 0.0 or a <= 0.0 or np.any(z <= 0.0):
        return -np.inf, np.zeros(3)
    logz, za = np.log(z), z ** -a
    ll = float(np.sum(np.log(a / s) - (1.0 + a) * logz - za))
    g_m = float(np.sum((1.0 + a) / z - a * z ** (-a - 1.0)) / s)
    g_s = float(np.sum(a * (1.0 - za)) / s)
    g_a = float(np.sum(1.0 / a - logz + za * logz))
    return ll, np.array([g_m, g_s, g_a])


def _lbfgsb_frechet_mle(y):
    """L-BFGS-B on (log(y_(1) - m), log s, log a) from three location gaps,
    keeping the first best."""
    ymin, spread = float(np.min(y)), max(float(np.std(y)), 1e-6)

    def unpack(t):
        return np.array([ymin - np.exp(t[0]), np.exp(t[1]), np.exp(t[2])])

    def negloglik(t):
        theta = unpack(t)
        ll, g = _frechet_loglik_grad(theta, y)
        if not np.isfinite(ll):
            return 1e12, np.zeros(3)
        return -ll, -g * np.array([-np.exp(t[0]), theta[1], theta[2]])

    best = None
    for gap in (0.5 * spread, 0.1 * spread, 2.0 * spread):
        res = optimize.minimize(negloglik, [np.log(gap), np.log(spread), 0.0],
                                jac=True, method="L-BFGS-B",
                                options={"maxiter": 2000, "ftol": 1e-14,
                                         "gtol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    return unpack(best.x)


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
        expect.append(_brentq_lomax_mle(y))
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
            fit = _brentq_lomax_mle(y)
            if fit is not None:
                ref[i] = fit
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
    # one pi for every row, and one pi per row
    pis = np.array([[1.1, 1.4], [0.9, 1.2], [2.0, 3.1], [1.3, 0.8]])
    for pi, rows in (((1.1, 1.4), [(1.1, 1.4)] * 4), (pis, pis)):
        zb = est.z_batch(BatchDataset(y=Y), pi)
        for i, pi_i in enumerate(rows):
            ref = (est.weights(Y[i], *pi_i)[:, None]
                   * lomax_score(Y[i], *pi_i)).mean(axis=0)
            np.testing.assert_allclose(zb[i], ref, rtol=1e-12)


def test_estimators_write_their_fit_once():
    # estimate is estimate_batch on a batch of one, written in Estimator;
    # only the three closed forms keep their own, for their sample-size
    # raises, and no fit goes through scipy.optimize
    tree = ast.parse(open(estimators.__file__).read())
    imported = [a.name if isinstance(node, ast.Import) else
                f"{node.module}.{a.name}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names]
    assert not [m for m in imported if m.startswith("scipy.optimize")]
    classes = [c for c in vars(estimators).values()
               if isinstance(c, type) and issubclass(c, estimators.Estimator)
               and c is not estimators.Estimator]
    assert [c.__name__ for c in classes if "estimate_batch" not in vars(c)] == []
    assert sorted(c.__name__ for c in classes if "estimate" in vars(c)) == [
        "CensoredMeanEstimator", "ParetoMLE", "SampleMaxEstimator"]


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
    # reference: central differences of the model's log-likelihood (checked
    # against scipy.stats) with every response observed, as the naive fit
    # treats them
    h = 1e-5 * (1.0 + np.abs(pi))
    for i, d in enumerate(rows):
        full = Dataset(y=d.y, X=d.X, censored=np.ones(d.n))
        ref = np.array([(model.loglik(pi + h[j] * e, full)
                         - model.loglik(pi - h[j] * e, full)) / (2.0 * h[j])
                        for j, e in enumerate(np.eye(pi.size))]) / d.n
        np.testing.assert_allclose(zb[i], ref, rtol=1e-6, atol=1e-8)


def test_censored_t_mle_improves_the_censored_likelihood():
    model = make_model("student_t_censored", n=150)
    theta = np.array([1.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0])
    data = model.simulate(theta, _block(60, 150))
    assert np.any(data.censored < 0.5)
    naive = StudentTNaiveMLE().estimate(data).pi
    fit = StudentTCensoredMLE(model).estimate(data)
    assert model.loglik(fit.pi, data) >= model.loglik(
        model.box.clamp(naive, margin=1e-9), data)


CRITERION7_THETA0 = np.array([4.0, -1.0, 1.5, -0.5, -1.5,
                              1.4142135623730951, 2.0])


def _criterion7_samples(m, B):
    """Replicate m of the criterion-7 config (n=100, master seed 0): the
    observed sample, and B samples simulated at its censored-t fit on the
    replicate's first B boot blocks."""
    model = make_model("student_t_censored", n=100)
    master = MasterSeed(0)
    data = model.simulate(CRITERION7_THETA0, draw_block(
        derive_seed(master, StreamKey(m, Role.OBSERVED)), 100))
    est = StudentTCensoredMLE(model)
    theta_hat = model.box.clamp(est.estimate(data).pi)
    U = draw_uniforms(derive_seeds(master, m, Role.BOOT, np.arange(1, B + 1)),
                      100)
    return model, est, data, model.simulate_batch(np.tile(theta_hat, (B, 1)), U)


_ITERATIVE = ("lomax_mle", "lomax_naive_wmle", "student_t_naive_mle",
              "student_t_censored_mle", "frechet_mle")


def _fit_case(name, B, m=0):
    """The iterative estimator ``name`` and B samples for it, row 17 of
    which has no fit.  The t samples are criterion-7 replicate m's."""
    if name.startswith("lomax"):
        Y = np.vstack([_lomax_sample(700 + i, 100).y for i in range(B)])
        # an exponential tail: the Lomax profile score has no root
        Y[17] = -np.log1p(-_block(99, 100).u)
        est = LomaxMLE() if name == "lomax_mle" else LomaxNaiveWMLE()
        return est, BatchDataset(y=Y)
    if name == "frechet_mle":
        Y = np.vstack([_frechet_sample(800 + i, 50, m=1.0, a=2.0).y
                       for i in range(B)])
        # a constant sample: the likelihood grows without bound as s shrinks
        Y[17] = 1.0
        return FrechetMLE(), BatchDataset(y=Y)
    model, est, _, batch = _criterion7_samples(m, B)
    # a sample with every response censored has no fit: its naive t fit
    # climbs without bound as sigma shrinks
    y, censored = batch.y.copy(), batch.censored.copy()
    y[17], censored[17] = 0.0, 0.0
    if name == "student_t_naive_mle":
        est = StudentTNaiveMLE()
    return est, BatchDataset(y=y, X=batch.X, censored=censored)


def _one_row(batch, i):
    return BatchDataset(
        y=batch.y[i:i + 1], X=batch.X,
        censored=None if batch.censored is None else batch.censored[i:i + 1])


@pytest.mark.parametrize("name", _ITERATIVE)
def test_iterative_fit_batch_rows_equal_single_fits(name):
    est, batch = _fit_case(name, 64)
    fits = est.estimate_batch(batch)
    assert np.isnan(fits[17]).all()
    assert np.isfinite(np.delete(fits, 17, axis=0)).all()
    for i in range(64):
        one = est.estimate_batch(_one_row(batch, i))[0]
        assert np.array_equal(one, fits[i], equal_nan=True)
        data = Dataset(y=batch.y[i], X=batch.X,
                       censored=None if batch.censored is None
                       else batch.censored[i])
        if i == 17:
            with pytest.raises(NonConvergence):
                est.estimate(data)
        else:
            assert np.array_equal(est.estimate(data).pi, fits[i])


@pytest.mark.parametrize("name", _ITERATIVE)
def test_iterative_fit_batch_permutes_with_its_rows(name):
    # more rows than one ascent takes, so rows change blocks too
    est, batch = _fit_case(name, 100, m=1)
    perm = np.random.default_rng(3).permutation(100)
    fits = est.estimate_batch(batch)
    permuted = est.estimate_batch(BatchDataset(
        y=batch.y[perm], X=batch.X,
        censored=None if batch.censored is None else batch.censored[perm]))
    assert np.array_equal(permuted, fits[perm], equal_nan=True)


@pytest.mark.parametrize("name", [n for n in _ITERATIVE
                                  if n != "student_t_censored_mle"])
def test_iterative_fits_are_at_least_as_good_as_the_scipy_fits(name):
    # log-likelihood (the weighted score's residual, for the weighted Lomax
    # fit) of each fit against the scipy fit it replaced, equal up to
    # rounding or better, on every sample both fit
    est, batch = _fit_case(name, 24)
    fits = est.estimate_batch(batch)
    lomax = make_model("lomax")
    compared = 0
    for i, (y, fit) in enumerate(zip(batch.y, fits)):
        if name == "lomax_mle":
            ref = _brentq_lomax_mle(y)
            quality = lambda th: lomax.loglik(th, Dataset(y=y))  # noqa: E731
        elif name == "lomax_naive_wmle":
            ref = _hybr_lomax_wmle(y)
            quality = lambda th: -np.linalg.norm(  # noqa: E731
                est.z(Dataset(y=y), th))
        elif name == "student_t_naive_mle":
            ref = None if i == 17 else _lbfgsb_t_naive_mle(y, batch.X)
            quality = lambda th: _t_loglik_all_observed(th, y, batch.X)  # noqa: E731
        else:
            ref = None if i == 17 else _lbfgsb_frechet_mle(y)
            quality = lambda th: _frechet_loglik_grad(th, y)[0]  # noqa: E731
        if ref is None:
            continue
        compared += 1
        assert quality(fit) >= quality(ref) - _ROUNDING[name], (i, fit, ref)
    assert compared >= 20


# log-likelihood (score-norm, for the weighted fit) differences below these
# are rounding: the fits agree to 1e-13 relative there
_ROUNDING = {"lomax_mle": 1e-12, "lomax_naive_wmle": 1e-15,
             "student_t_naive_mle": 1e-12, "frechet_mle": 1e-12}


def _largest_probe_gain(model, theta, data):
    """Largest log-likelihood gain over ``theta`` along the coordinate axes
    and 4 fixed oblique directions, at steps 1e-4 and 1e-2 times
    (1 + |theta|), skipping points outside the box."""
    base = model.loglik(theta, data)
    dirs = list(np.eye(7)) + list(np.random.default_rng(11).standard_normal((4, 7)))
    gain = -np.inf
    for d in dirs:
        d = d / np.linalg.norm(d)
        for h in (1e-4, 1e-2):
            for sign in (1.0, -1.0):
                t = theta + sign * h * d * (1.0 + np.abs(theta))
                if model.box.contains(t):
                    gain = max(gain, model.loglik(t, data) - base)
    return gain


@pytest.mark.parametrize("m", [0, 1, 260, 265])
def test_censored_t_mle_fits_are_local_maxima_in_the_box(m):
    # the observed fit and the first 8 bootstrap fits; replicates 260 and 265
    # fit nu on its upper bound 100
    model, est, data, batch = _criterion7_samples(m, 8)
    fits = [(est.estimate(data).pi, data)]
    fits += [(theta, Dataset(y=batch.y[i], X=batch.X,
                             censored=batch.censored[i]))
             for i, theta in enumerate(est.estimate_batch(batch))]
    for theta, sample in fits:
        assert model.box.contains(theta)
        assert _largest_probe_gain(model, theta, sample) <= 1e-7
    if m in (260, 265):
        assert fits[0][0][6] > 99.9


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
