"""Data-generating processes: quantile transforms, batch parity, boxes."""

import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from implicit_boot import engines
from implicit_boot.errors import OutOfBox
from implicit_boot.models import (BatchDataset, Box, Dataset, MODEL_REGISTRY,
                                  ParamVector, _censored_t_loglik_grad,
                                  load_design_matrix, make_model,
                                  student_t_quantile)
from implicit_boot.rng import (MasterSeed, RandomBlock, Role, StreamKey,
                               derive_seed, derive_seeds, draw_block,
                               draw_uniforms)

MS = MasterSeed(271828)


def _block(i, m):
    return draw_block(derive_seed(MS, StreamKey(i, Role.OBSERVED)), m)


THETAS = {
    "uniform": np.array([2.5]),
    "pareto": np.array([1.3, 0.8]),
    "lomax": np.array([1.0, 1.5]),
    "andrews": np.array([0.7]),
    "student_t_censored": np.array([4.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0]),
    "mg1": np.array([0.3, 0.9, 1.0]),
}


def _make(name, n=30):
    return make_model(name, n=n)


# ---------------------------------------------------------------- transforms

def test_uniform_transform_is_exact_scaling():
    blk = _block(0, 50)
    data = _make("uniform").simulate([2.5], blk)
    np.testing.assert_array_equal(data.y, 2.5 * blk.u)


def test_pareto_inverse_cdf_round_trip():
    blk = _block(1, 50)
    mu, alpha = 1.3, 0.8
    y = _make("pareto").simulate([mu, alpha], blk).y
    # F(y) = 1 - (mu/y)^alpha must return the generating uniforms
    np.testing.assert_allclose(1.0 - (mu / y) ** alpha, blk.u, rtol=1e-12)


def test_lomax_hand_evaluated_median():
    blk = RandomBlock(u=np.array([0.5]))
    y = _make("lomax").simulate([1.0, 1.5], blk).y
    assert y[0] == pytest.approx(2.0 ** (2.0 / 3.0) - 1.0, abs=1e-12)


def test_andrews_is_shifted_gaussian_quantile():
    blk = _block(2, 40)
    y = _make("andrews").simulate([0.7], blk).y
    np.testing.assert_allclose(special.ndtr(y - 0.7), blk.u, rtol=1e-12)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@example(1e-6, float(np.nextafter(1e-6, 1.0)))
@example(1e-6, 1e-6 + 16 * np.finfo(float).eps)
@settings(max_examples=100, deadline=None)
def test_scalar_quantile_transforms_monotone_in_u(u1, u2):
    if u1 == u2:
        return
    lo, hi = min(u1, u2), max(u1, u2)
    for name, theta in (("uniform", [2.0]), ("pareto", [1.0, 1.5]),
                        ("lomax", [1.0, 1.5]), ("andrews", [0.0])):
        m = _make(name)
        ylo = m.simulate(theta, RandomBlock(u=np.array([lo]))).y[0]
        yhi = m.simulate(theta, RandomBlock(u=np.array([hi]))).y[0]
        # inputs a few ulps apart can round to one output: 1 - u is the
        # same double for u = 1e-6 and its successor, and the Pareto, Lomax
        # and Andrews maps are flatter than their output grid in places, so
        # order is strict only once the gap is 16 machine epsilons
        assert ylo <= yhi
        if hi - lo >= 16 * np.finfo(float).eps:
            assert ylo < yhi


def test_student_t_quantile_matches_reference_inverse_cdf():
    u = np.linspace(0.01, 0.99, 25)
    for nu in (0.5, 2.0, 5.0, 30.0):
        np.testing.assert_allclose(student_t_quantile(u, nu),
                                   stats.t.ppf(u, nu), rtol=1e-10)


# ---------------------------------------------------------------- purity

@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_simulate_is_pure(name):
    model = _make(name)
    blk = _block(3, model.noise_dim(30))
    theta = THETAS[name]
    a = model.simulate(theta, blk)
    b = model.simulate(theta, blk)
    np.testing.assert_array_equal(a.y, b.y)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_noise_reuse_varies_only_through_theta(name):
    # same block, two parameter values: outputs differ, shapes agree
    model = _make(name)
    blk = _block(4, model.noise_dim(30))
    t1 = THETAS[name]
    t2 = t1 * 1.5 + 0.1
    if name == "andrews":
        t2 = np.array([0.0])
    a, b = model.simulate(t1, blk), model.simulate(t2, blk)
    assert a.y.shape == b.y.shape
    assert not np.array_equal(a.y, b.y)


# ---------------------------------------------------------------- batch parity

def _reference_row(model, theta, u):
    """One sample written out from each model's definition, element by element
    where the model recurses (M/G/1): the reference for ``simulate_batch``."""
    if model.name == "uniform":
        return theta[0] * u
    if model.name == "pareto":
        return theta[0] * (1.0 - u) ** (-1.0 / theta[1])
    if model.name == "lomax":
        return theta[0] * ((1.0 - u) ** (-1.0 / theta[1]) - 1.0)
    if model.name == "andrews":
        return theta[0] + stats.norm.ppf(u)
    if model.name == "student_t_censored":
        y = model.X @ theta[:5] + theta[5] * stats.t.ppf(u, theta[6])
        return np.where(y > 0.0, y, 0.0)
    n = u.shape[0] // 2
    s = theta[0] + (theta[1] - theta[0]) * u[:n]
    a = np.cumsum(-np.log1p(-u[n:]) / theta[2])
    d_prev, y = 0.0, []
    for i in range(n):
        d = max(d_prev, a[i]) + s[i]
        y.append(d - d_prev)
        d_prev = d
    return np.array(y)


@pytest.mark.parametrize("name", ["uniform", "pareto", "lomax", "andrews",
                                  "student_t_censored", "mg1"])
def test_batched_simulation_matches_scalar_rows(name):
    model = _make(name, n=30)
    theta = THETAS[name]
    thetas = np.vstack([theta, theta * 1.2 + 0.05, theta * 0.9 + 0.01])
    m = model.noise_dim(30)
    U = np.vstack([_block(10 + i, m).u for i in range(3)])
    batch = model.simulate_batch(thetas, U)
    # the declared noise step, passed in, moves no bit
    given = model.simulate_batch(thetas, U, noise=model.noise_batch(thetas, U))
    assert given.y.tobytes() == batch.y.tobytes()
    if batch.censored is not None:
        assert given.censored.tobytes() == batch.censored.tobytes()
    for i in range(3):
        ref = _reference_row(model, thetas[i], U[i])
        np.testing.assert_allclose(batch.y[i], ref, rtol=1e-12, atol=1e-12)
        if batch.censored is not None:
            np.testing.assert_array_equal(batch.censored[i], ref > 0.0)


def test_models_write_their_transform_once():
    # simulate is simulate_batch on a batch of one, written in ModelSpec only
    assert [c.__name__ for c in MODEL_REGISTRY.values()
            if "simulate" in vars(c)] == []


# ---------------------------------------------------------------- mg1

def test_mg1_matches_naive_lindley_loop():
    model = _make("mg1")
    theta = np.array([0.3, 0.9, 1.0])
    n = 60
    blk = _block(20, 2 * n)
    y = model.simulate(theta, blk).y
    s = theta[0] + (theta[1] - theta[0]) * blk.u[:n]
    a = np.cumsum(-np.log1p(-blk.u[n:]) / theta[2])
    d_prev, ref = 0.0, []
    for i in range(n):
        d = max(d_prev, a[i]) + s[i]
        ref.append(d - d_prev)
        d_prev = d
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


def test_mg1_requires_ordered_service_bounds():
    with pytest.raises(OutOfBox):
        _make("mg1").simulate([0.9, 0.3, 1.0], _block(21, 20))


# ---------------------------------------------------------------- censored t

def test_censored_t_zeroes_nonpositive_responses():
    model = _make("student_t_censored", n=100)
    data = model.simulate(THETAS["student_t_censored"], _block(22, 100))
    assert np.all(data.y[data.censored < 0.5] == 0.0)
    assert np.all(data.y[data.censored > 0.5] > 0.0)
    assert 0 < np.count_nonzero(data.censored < 0.5) < 100


def test_censored_t_loglik_reduces_to_t_density_when_uncensored():
    model = _make("student_t_censored", n=40)
    theta = np.array([50.0, 1.0, -0.5, 0.3, 0.2, 1.0, 5.0])
    data = model.simulate(theta, _block(23, 40))
    assert np.all(data.censored > 0.5)
    beta, sigma, nu = theta[:5], theta[5], theta[6]
    r = (data.y - model.X @ beta) / sigma
    ref = float(np.sum(stats.t.logpdf(r, nu) - np.log(sigma)))
    assert model.loglik(theta, data) == pytest.approx(ref, rel=1e-10)


def test_censored_t_simulate_batch_rows_equal_simulate():
    # a row must not depend on the rows stacked with it: the percentile
    # baseline simulates B rows at once, a check re-simulates one of them
    model = _make("student_t_censored", n=100)
    theta = np.array([4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0])
    U = draw_uniforms(derive_seeds(MS, 24, Role.BOOT, np.arange(1, 201)), 100)
    batch = model.simulate_batch(np.tile(theta, (200, 1)), U)
    for i in range(200):
        one = model.simulate(theta, RandomBlock(u=U[i]))
        assert np.array_equal(batch.y[i], one.y)
        assert np.array_equal(batch.censored[i], one.censored)


def _censored_t_rows(n=60):
    """Six (theta, y, observed) rows with censored entries, nu at 0.31, 2
    and 99.9."""
    model = _make("student_t_censored", n=n)
    rng = np.random.default_rng(5)
    nu = np.array([0.31, 2.0, 99.9, 0.31, 2.0, 99.9])
    thetas = np.column_stack([rng.normal(1.0, 1.0, (6, 5)),
                              np.exp(rng.normal(0.0, 0.3, 6)), nu])
    eta = thetas[:, :5] @ model.X.T
    y = eta + thetas[:, 5:6] * rng.standard_t(3.0, (6, n))
    observed = y > 0.0
    assert np.all(np.any(~observed, axis=1))
    return model, thetas, np.where(observed, y, 0.0), observed


def test_censored_t_loglik_matches_scipy_stats_reference():
    model, thetas, Y, observed = _censored_t_rows()
    ll = _censored_t_loglik_grad(thetas, Y, model.X, observed, order=0)
    for b, theta in enumerate(thetas):
        beta, sigma, nu = theta[:5], theta[5], theta[6]
        eta, obs = model.X @ beta, observed[b]
        ref = (np.sum(stats.t.logpdf((Y[b, obs] - eta[obs]) / sigma, nu))
               - np.count_nonzero(obs) * np.log(sigma)
               + np.sum(stats.t.logcdf(-eta[~obs] / sigma, nu)))
        assert ll[b] == pytest.approx(ref, rel=1e-12)
        # the model's scalar log-likelihood is row b of the same formula
        data = Dataset(y=Y[b], X=model.X, censored=obs.astype(float))
        assert model.loglik(theta, data) == ll[b]


def _lomax_reference(theta, y):
    return np.sum(stats.lomax.logpdf(y, c=theta[1], scale=theta[0]))


def _andrews_reference(theta, y):
    return np.sum(stats.norm.logpdf(y, theta[0], 1.0))


@pytest.mark.parametrize("name, reference", [("lomax", _lomax_reference),
                                             ("andrews", _andrews_reference)])
def test_loglik_batch_rows_match_scipy_stats_sums(name, reference):
    # row b of thetas is scored on sample b, one sample is scored by every
    # row, permuting the rows permutes the values, and loglik is row b
    model = _make(name)
    rng = np.random.default_rng(7)
    K = 8
    thetas = np.exp(rng.normal(0.2, 0.5, (K, model.p)))
    U = draw_uniforms(derive_seeds(MS, 25, Role.BOOT, np.arange(1, K + 1)), 40)
    batch = model.simulate_batch(thetas[::-1], U)
    paired = model.loglik_batch(thetas, batch)
    one = model.loglik_batch(thetas, batch.rows([3]))
    assert paired.shape == one.shape == (K,)
    for b in range(K):
        assert paired[b] == pytest.approx(reference(thetas[b], batch.y[b]),
                                          rel=1e-12)
        assert one[b] == pytest.approx(reference(thetas[b], batch.y[3]),
                                       rel=1e-12)
        assert model.loglik(thetas[b], Dataset(y=batch.y[b])) == paired[b]
    perm = rng.permutation(K)
    assert np.array_equal(model.loglik_batch(thetas[perm], batch.rows(perm)),
                          paired[perm])


def test_censored_t_loglik_batch_scores_one_sample_on_every_row():
    # the observed flags of a batch of one broadcast to every row
    model, thetas, Y, observed = _censored_t_rows()
    data = Dataset(y=Y[2], X=model.X, censored=observed[2].astype(float))
    one = model.loglik_batch(thetas, BatchDataset(
        y=Y[2:3], X=model.X, censored=data.censored[None]))
    assert [model.loglik(theta, data) for theta in thetas] == list(one)


def test_models_write_their_likelihood_once():
    # loglik is loglik_batch on a batch of one, written in ModelSpec; has_loglik
    # follows from loglik_batch, and the bootstrap-t and the information
    # stencil have no Python loop
    assert [c.__name__ for c in MODEL_REGISTRY.values()
            if "loglik" in vars(c)] == []
    with_likelihood = sorted(name for name, c in MODEL_REGISTRY.items()
                             if "loglik_batch" in vars(c))
    assert with_likelihood == ["andrews", "lomax", "student_t_censored"]
    assert sorted(name for name in MODEL_REGISTRY
                  if make_model(name, n=40).has_loglik) == with_likelihood
    for fn in (engines._studentized, engines.observed_information):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_censored_t_loglik_derivatives_match_central_differences():
    # the gradient against central differences of the value, and the Hessian
    # against central differences of the gradient; step 1e-5 (1 + |theta_j|).
    # The nu derivatives of log T_nu are themselves central differences in
    # the program, so the Hessian is held to 1e-5 relative, the gradient to
    # 1e-7.
    model, thetas, Y, observed = _censored_t_rows()
    _, g, H = _censored_t_loglik_grad(thetas, Y, model.X, observed, order=2)
    for j in range(7):
        h = 1e-5 * (1.0 + np.abs(thetas[:, j]))
        up, down = thetas.copy(), thetas.copy()
        up[:, j] += h
        down[:, j] -= h
        f_up, g_up = _censored_t_loglik_grad(up, Y, model.X, observed)
        f_down, g_down = _censored_t_loglik_grad(down, Y, model.X, observed)
        np.testing.assert_allclose(g[:, j], (f_up - f_down) / (2.0 * h),
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(H[:, :, j], (g_up - g_down) / (2.0 * h[:, None]),
                                   rtol=1e-5, atol=1e-5)


def test_design_matrix_is_frozen():
    X = load_design_matrix()
    assert X.shape == (753, 4)
    assert not X.flags.writeable
    np.testing.assert_array_equal(X, load_design_matrix())


def test_censored_t_rejects_oversized_n():
    with pytest.raises(ValueError):
        make_model("student_t_censored", n=1000)


# ---------------------------------------------------------------- boxes

def test_box_contains_is_strict():
    box = Box(np.array([0.0]), np.array([1.0]))
    assert box.contains([0.5])
    assert not box.contains([0.0]) and not box.contains([1.0])


def test_box_clamp_pulls_strictly_inside():
    box = Box(np.array([0.0, -np.inf]), np.array([1.0, np.inf]))
    v = box.clamp(np.array([-3.0, 7.0]))
    assert box.contains(v)
    assert v[1] == 7.0


def test_param_vector_validates_box():
    box = Box(np.array([0.0]), np.array([np.inf]))
    ParamVector(np.array([1.0]), box)
    with pytest.raises(OutOfBox):
        ParamVector(np.array([-1.0]), box)
    with pytest.raises(OutOfBox):
        ParamVector(np.array([1.0, 2.0]), box)


def test_out_of_box_simulation_rejected():
    with pytest.raises(OutOfBox):
        _make("pareto").simulate([-1.0, 2.0], _block(30, 10))


def test_make_model_requires_n_for_regression():
    with pytest.raises(ValueError):
        make_model("student_t_censored")
