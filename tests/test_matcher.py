"""Matching solvers: coordinate transforms, path agreement, batch parity."""

import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_boot import engines, exact, matcher, models
from implicit_boot.errors import (DegenerateSample, NoZFunction,
                                  UnsupportedExample)
from implicit_boot.estimators import (AuxEstimate, CensoredMeanEstimator,
                                      FrechetMLE, LomaxMLE, ParetoMLE,
                                      SampleMaxEstimator, StudentTNaiveMLE)
from implicit_boot.harness import make_estimator
from implicit_boot.matcher import (BoxTransform, MatchPath, MatchResult,
                                   batched_switched_match, closed_form_match,
                                   nested_match, switched_match)
from implicit_boot.models import Box, make_model
from implicit_boot.rng import (MasterSeed, RandomBlock, Role, StreamKey,
                               derive_seed, derive_seeds, draw_block,
                               draw_uniforms)
from test_estimators import _brentq_lomax_mle

MS = MasterSeed(112358)


def _block(i, m):
    return draw_block(derive_seed(MS, StreamKey(i, Role.OBSERVED)), m)


# ---------------------------------------------------------------- transforms

BOXES = [
    Box(np.array([-np.inf]), np.array([np.inf])),
    Box(np.array([0.0]), np.array([np.inf])),
    Box(np.array([-np.inf]), np.array([3.0])),
    Box(np.array([0.3]), np.array([100.0])),
    Box(np.array([0.0, -np.inf, 0.3]), np.array([np.inf, np.inf, 100.0])),
]


@pytest.mark.parametrize("box", BOXES)
def test_box_transform_round_trip(box):
    tr = BoxTransform(box)
    t = np.linspace(-5.0, 5.0, 7 * box.p).reshape(7, box.p)
    x = tr.to_box(t)
    assert all(box.contains(row) for row in x)
    np.testing.assert_allclose(tr.to_unconstrained(x), t, rtol=1e-9, atol=1e-9)


@given(st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=100, deadline=None)
def test_box_transform_monotone_per_coordinate(t):
    tr = BoxTransform(Box(np.array([0.3]), np.array([100.0])))
    a = tr.to_box(np.array([t]))[0]
    b = tr.to_box(np.array([t + 0.5]))[0]
    assert 0.3 < a < b < 100.0


def test_box_transform_center_is_inside():
    for box in BOXES:
        assert box.contains(BoxTransform(box).center())


# ---------------------------------------------------------------- scalar paths

def _uniform_instance(i, n=15):
    model = make_model("uniform")
    data = model.simulate([2.0], _block(3 * i, n))
    pi = SampleMaxEstimator().estimate(data)
    return model, SampleMaxEstimator(), pi, _block(3 * i + 1, n)


def _pareto_instance(i, n=20):
    model = make_model("pareto")
    data = model.simulate([1.3, 0.8], _block(3 * i, n))
    pi = ParetoMLE().estimate(data)
    return model, ParetoMLE(), pi, _block(3 * i + 1, n)


@pytest.mark.parametrize("maker,example", [(_uniform_instance, "uniform"),
                                           (_pareto_instance, "pareto")])
def test_all_three_paths_agree(maker, example):
    for i in range(10):
        model, est, pi, star = maker(i)
        w_star = exact.summary_from_block(example, star)
        ref = closed_form_match(example, pi, w_star.stats).theta_check
        a = nested_match(pi, model, est, star).theta_check
        b = switched_match(pi, model, est, star).theta_check
        np.testing.assert_allclose(a, ref, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(b, ref, rtol=1e-6, atol=1e-8)


def test_matching_own_noise_returns_the_generator():
    # simulated noise identical to the observed noise: the matched value is
    # the parameter that generated the data, with zero residual
    model, est = make_model("lomax"), LomaxMLE()
    blk = _block(50, 60)
    data = model.simulate([1.0, 1.5], blk)
    pi = est.estimate(data)
    res = switched_match(pi, model, est, blk)
    assert res.converged
    assert res.delta <= 1e-8
    np.testing.assert_allclose(res.theta_check, [1.0, 1.5], atol=1e-6)


def test_switched_needs_a_z_function():
    class NoZ(SampleMaxEstimator):
        has_z = False

    model, _, pi, star = _uniform_instance(0)
    with pytest.raises(NoZFunction):
        switched_match(pi, model, NoZ(), star)


def test_closed_form_rejects_unknown_example():
    with pytest.raises(UnsupportedExample):
        closed_form_match("lomax", AuxEstimate(pi=np.array([1.0])), [0.5])


def test_user_init_rule_requires_a_point():
    model, est, pi, star = _uniform_instance(2)
    res = nested_match(pi, model, est, star, init=np.array([1.5]))
    assert res.converged


def test_one_newton_and_no_solver_config():
    # only the nested path's Nelder-Mead uses scipy.optimize; the switched
    # solver and the indirect-inference correction share one Newton
    src = pathlib.Path(matcher.__file__).parent
    optimizers, defined, functions = set(), set(), {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name if isinstance(node, ast.Import)
                         else f"{node.module}.{a.name}" for a in node.names]
                if any(m.startswith("scipy.optimize") for m in names):
                    optimizers.add(path.name)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
                functions[node.name] = node
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets
                            if isinstance(t, ast.Name)}
    assert optimizers == {"matcher.py"}
    assert not {"SolverConfig", "InitRule"} & defined
    for name in ("batched_switched_match", "indirect_inference_correct"):
        assert any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "_newton"
                   for node in ast.walk(functions[name])), name


def test_match_result_theta_is_immutable():
    model, est, pi, star = _uniform_instance(3)
    res = switched_match(pi, model, est, star)
    with pytest.raises(ValueError):
        res.theta_check[0] = 0.0


def test_nested_match_scores_estimator_failures_and_returns_unconverged():
    # every simulated candidate raises in the estimator; the objective
    # scores each 1e10, so the solve ends unconverged instead of raising
    class Failing(LomaxMLE):
        def estimate(self, data):
            raise DegenerateSample("no estimate on any sample")

    model = make_model("lomax")
    res = nested_match(AuxEstimate(pi=np.array([1.0, 1.5])), model, Failing(),
                       _block(41, 50))
    assert res.path is MatchPath.NESTED and not res.converged
    assert res.delta == 1e10 and res.objective_evals > 1
    assert model.box.contains(res.theta_check)


def test_switched_is_cheaper_than_nested_on_the_lomax_model():
    model, est = make_model("lomax"), LomaxMLE()
    ratios = []
    for i in range(50):
        data = model.simulate([1.0, 1.5], _block(100 + 2 * i, 50))
        pi = est.estimate(data)
        star = _block(101 + 2 * i, 50)
        s = switched_match(pi, model, est, star)
        n = nested_match(pi, model, est, star)
        ratios.append(s.objective_evals <= n.objective_evals)
    assert np.median(ratios) == 1.0


def test_switched_match_reports_an_out_of_region_solution_unconverged():
    # on this noise block the Newton solution orders the M/G/1 service bounds
    # the wrong way (theta1 >= theta2); the unchecked batched simulation
    # accepts it, the scalar call re-estimates on the checked simulation,
    # which refuses it
    model, est = make_model("mg1"), FrechetMLE()
    m = model.noise_dim(100)
    pi = est.estimate(model.simulate([0.3, 0.9, 1.0], _block(300, m)))
    star = _block(313, m)
    thetas, _, _, _ = batched_switched_match(pi, model, est, star.u[None])
    assert thetas[0, 0] >= thetas[0, 1]
    res = switched_match(pi, model, est, star)
    np.testing.assert_array_equal(res.theta_check, thetas[0])
    assert res.delta == np.inf and not res.converged


# ---------------------------------------------------------------- batched path

@pytest.mark.parametrize("block, theta0, near_boundary", [
    pytest.param(220, 0.7, False, id="interior"),
    # some draws' closed form is the boundary 0, and rows whose simulated
    # mean at pi_hat is negative start on the flat part of max(mean, 0) - pi,
    # where Newton has no direction: the batch restarts them from the box
    # centre
    pytest.param(223, 0.15, True, id="near-boundary"),
])
def test_andrews_switched_path_is_one_batched_solve(monkeypatch, block, theta0,
                                                    near_boundary):
    # the censored mean is a Z-estimator, so its switched path is the batched
    # solve; the draws are the closed form max(pi_hat - mean(eps*), 0) on the
    # same noise
    model, est = make_model("andrews"), CensoredMeanEstimator()
    data = model.simulate([theta0], _block(block, 30))
    pi = est.estimate(data)
    assert pi.pi[0] > 0.0
    calls = {"batched": 0, "scored": []}
    batched, batch_deltas = engines.batched_switched_match, matcher._batch_deltas

    def counted_batched(*args, **kwargs):
        calls["batched"] += 1
        return batched(*args, **kwargs)

    def recorded(pi_obs, model, est, thetas, V):
        calls["scored"].append(V.shape[0])
        return batch_deltas(pi_obs, model, est, thetas, V)

    # the first scoring is the whole batch; each later one, a restart
    monkeypatch.setattr(engines, "batched_switched_match", counted_batched)
    monkeypatch.setattr(matcher, "_batch_deltas", recorded)
    B, master = 200, MasterSeed(7)
    sample, _ = engines.implicit_bootstrap(data, model, est, B=B, master=master,
                                           path=MatchPath.SWITCHED,
                                           replicate_id=3)
    assert calls["batched"] == 1
    assert calls["scored"][0] == B
    assert (len(calls["scored"]) > 1) == near_boundary
    U = draw_uniforms(derive_seeds(master, 3, Role.BOOT, np.arange(1, B + 1)),
                      30)
    ref = exact.exact_theta_check_batch(
        "andrews", pi, exact.summaries_from_uniforms("andrews", U))[:, 0]
    # Newton stops at |z| < 1e-11; a draw whose closed form is the boundary
    # 0 ends within 1e-12 of it (the box's lower bound is -1e-12)
    np.testing.assert_allclose(sample.values, ref, rtol=0.0, atol=1e-9)
    assert np.any(ref == 0.0) == near_boundary


def test_batched_lomax_matches_scalar_rows():
    model, est = make_model("lomax"), LomaxMLE()
    data = model.simulate([1.0, 1.5], _block(200, 50))
    pi = est.estimate(data)
    B = 40
    seeds = derive_seeds(MS, 200, Role.BOOT, np.arange(1, B + 1))
    U = draw_uniforms(seeds, 50)
    thetas, deltas, conv, _ = batched_switched_match(pi, model, est, U)
    assert conv.mean() > 0.9
    for i in range(B):
        if not conv[i]:
            continue
        # an independent solver: derivative-free minimization of the gap
        ref = nested_match(pi, model, est, RandomBlock(u=U[i]))
        np.testing.assert_allclose(thetas[i], ref.theta_check,
                                   rtol=1e-5, atol=1e-7)
        assert deltas[i] <= 1e-8


def _criterion6_replicate(m):
    """Observed estimate and noise blocks of replicate m of the criterion-6
    Lomax config: theta0 (1, 1.5), n=50, B=500, master seed 12.

    The observed estimate is Brent's root of the profile score, not the
    Illinois root of ``LomaxMLE``.  Both replicates fit on the likelihood
    ridge, where the two roots differ by 3e-13 relative.  From the Illinois
    root, row 494 of replicate 249 ends its first Newton pass where the
    restart from Brent's root ends, at gap 1.9e-7: a ridge row, and no row
    of the first 300 replicates reaches the restart.  Brent's root keeps
    the one row that does.
    """
    model, est = make_model("lomax"), LomaxMLE()
    master = MasterSeed(12)
    obs = draw_block(derive_seed(master, StreamKey(m, Role.OBSERVED)), 50)
    U = draw_uniforms(derive_seeds(master, m, Role.BOOT, np.arange(1, 501)), 50)
    pi = _brentq_lomax_mle(model.simulate([1.0, 1.5], obs).y)
    return AuxEstimate(pi=pi), model, est, U


@pytest.mark.parametrize("m, retried, unconverged", [
    # row 494's batched iterate has no MLE; the restart from the box centre
    # rescues it
    pytest.param(249, [494], 290, id="rescue-249"),
    # only ridge rows, which a retry of every unsolved row used to walk 158
    # times
    pytest.param(232, [], 259, id="ridge-232"),
])
def test_scalar_retry_only_for_rows_without_a_re_estimate(monkeypatch, m,
                                                          retried, unconverged):
    pi, model, est, U = _criterion6_replicate(m)
    calls = []
    batch_deltas = matcher._batch_deltas

    def recorded(pi_obs, model, est, thetas, V):
        calls.append(V)
        return batch_deltas(pi_obs, model, est, thetas, V)

    # the first call scores the whole batch; each later one, a restart
    monkeypatch.setattr(matcher, "_batch_deltas", recorded)
    with np.errstate(all="ignore"):
        thetas, deltas, conv, _ = batched_switched_match(pi, model, est, U)
    assert calls[0] is U
    assert sorted({int(np.flatnonzero((U == u).all(axis=1))[0])
                   for V in calls[1:] for u in V}) == retried
    for i in retried:
        assert conv[i] and deltas[i] <= 1e-8
    # ridge rows keep their batched iterate, its finite gap, and the label
    assert int(np.sum(~conv)) == unconverged
    assert np.all(np.isfinite(deltas[~conv]))
    assert np.all(np.isfinite(thetas))


def test_scalar_retry_of_replicate_249_prints_no_warning():
    # row 494 is rescued by a restart from the box centre; neither the batch
    # nor the restart prints a warning
    pi, model, est, U = _criterion6_replicate(249)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thetas, deltas, conv, _ = batched_switched_match(pi, model, est, U)
    assert conv[494] and deltas[494] <= 1e-8


def test_batched_uniform_matches_closed_form():
    model, est = make_model("uniform"), SampleMaxEstimator()
    data = model.simulate([2.0], _block(210, 15))
    pi = est.estimate(data)
    B = 30
    seeds = derive_seeds(MS, 210, Role.BOOT, np.arange(1, B + 1))
    U = draw_uniforms(seeds, 15)
    thetas, deltas, conv, _ = batched_switched_match(pi, model, est, U)
    assert conv.all()
    ref = pi.pi[0] / np.max(U, axis=1)
    np.testing.assert_allclose(thetas[:, 0], ref, rtol=1e-9)


# ------------------------------------------------------- noise reuse in a solve

def _criterion7_replicate0():
    """Observed naive t fit and the B=200 noise blocks of replicate 0 of the
    criterion-7 censored-t config (n=100, master seed 0)."""
    model, est = make_model("student_t_censored", n=100), StudentTNaiveMLE()
    master = MasterSeed(0)
    theta0 = [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0]
    data = model.simulate(theta0, draw_block(
        derive_seed(master, StreamKey(0, Role.OBSERVED)), 100))
    U = draw_uniforms(derive_seeds(master, 0, Role.BOOT, np.arange(1, 201)), 100)
    return est.estimate(data), model, est, U


def _mg1_case():
    model, est = make_model("mg1"), FrechetMLE()
    m = model.noise_dim(60)
    pi = est.estimate(model.simulate([0.3, 0.9, 1.0], _block(400, m)))
    U = draw_uniforms(derive_seeds(MS, 400, Role.BOOT, np.arange(1, 41)), m)
    return pi, model, est, U


@pytest.mark.parametrize("case", [_criterion7_replicate0, _mg1_case],
                         ids=["censored-t", "mg1"])
def test_reused_noise_moves_no_bit(monkeypatch, case):
    # a noise step declared to read every coordinate is computed again on
    # every move of the parameter, as before the solve reused it
    pi, model, est, U = case()
    with np.errstate(all="ignore"):
        reused = batched_switched_match(pi, model, est, U)
        monkeypatch.setattr(type(model), "noise_coords", tuple(range(model.p)))
        fresh = batched_switched_match(pi, model, est, U)
    for a, b in zip(reused[:3], fresh[:3]):
        assert a.tobytes() == b.tobytes()
    assert reused[3] == fresh[3]


def test_censored_t_solve_reuses_its_t_quantiles(monkeypatch):
    # a Newton iteration's base is the previous iteration's accepted trial,
    # scored there; its first Jacobian column in (beta, sigma) inverts the
    # t CDF and the other five reuse that inversion.  The nu column, each
    # backtracking step, the base of a row that took the untried step and
    # the gap re-estimates invert again
    pi, model, est, U = _criterion7_replicate0()
    rows = []
    quantile = models.student_t_quantile

    def counted(u, nu):
        rows.append(np.shape(u)[0])
        return quantile(u, nu)

    monkeypatch.setattr(models, "student_t_quantile", counted)
    _, _, conv, row_evals = batched_switched_match(pi, model, est, U)
    assert conv.all()
    assert sum(rows) <= 0.5 * row_evals, f"{sum(rows)} of {row_evals} rows"


# ------------------------------------------------- each Newton point scored once

@pytest.mark.parametrize("case", [_criterion7_replicate0, _mg1_case],
                         ids=["censored-t", "mg1"])
def test_newton_scores_each_point_once(monkeypatch, case):
    # a halving re-scores only the rows still worse, and an accepted trial's
    # residual is the next iteration's base: within one Newton call no
    # parameter row is scored twice on the same noise row
    pi, model, est, U = case()
    newton = matcher._newton
    repeated = []

    def once(f, t, V):
        seen = set()

        def scored(ta, Va):
            for theta, v in zip(ta, Va):
                key = (v.tobytes(), theta.tobytes())
                if key in seen:
                    repeated.append(key)
                seen.add(key)
            return f(ta, Va)

        return newton(scored, t, V)

    monkeypatch.setattr(matcher, "_newton", once)
    with np.errstate(all="ignore"):
        *_, row_evals = batched_switched_match(pi, model, est, U)
    assert len(repeated) == 0, f"{len(repeated)} points scored again"
    if case is _mg1_case:
        # 18,644 when each halving re-scored every row and each iteration
        # re-scored its base
        assert row_evals <= 0.75 * 18644, row_evals


_SWITCHED_PAIRS = {
    "lomax": ("lomax_mle", (1.0, 1.5), 50),
    "mg1": ("frechet_mle", (0.3, 0.9, 1.0), 60),
    "student_t_censored": ("t_naive_mle", (4.0, -1.0, 1.5, -0.5, -1.5,
                                           1.4142135623730951, 2.0), 100),
    "andrews": ("censored_mean", (0.3,), 25),
}


@pytest.mark.parametrize("name", sorted(_SWITCHED_PAIRS))
def test_batch_rows_do_not_depend_on_the_rows_beside_them(name):
    # Newton scores subsets of its rows and carries residuals from one call
    # to the next, so each row of a batched simulation, Z evaluation or fit
    # must come out the same, byte for byte, whatever rows share its call
    est_name, theta, n = _SWITCHED_PAIRS[name]
    model = make_model(name, n=n)
    est = make_estimator(est_name, model)
    m, B = model.noise_dim(n), 24
    pi = est.estimate(model.simulate(np.asarray(theta), _block(500, m))).pi
    transform = BoxTransform(model.box)
    t = (transform.to_unconstrained(np.asarray(theta))
         + 0.2 * np.random.default_rng(5).standard_normal((B, model.p)))
    thetas = transform.to_box(t)
    U = draw_uniforms(derive_seeds(MS, 500, Role.BOOT, np.arange(1, B + 1)), m)
    with np.errstate(all="ignore"):
        full = model.simulate_batch(thetas, U)
        z = np.asarray(est.z_batch(full, pi), dtype=float)
        fits = est.estimate_batch(full)
        for sub in (np.arange(0, B, 3), np.array([23, 5, 11]), np.array([7])):
            for noise in (None, model.noise_batch(thetas[sub], U[sub])):
                part = model.simulate_batch(thetas[sub], U[sub], noise=noise)
                assert part.y.tobytes() == full.y[sub].tobytes()
                if full.censored is not None:
                    assert (part.censored.tobytes()
                            == full.censored[sub].tobytes())
            assert (np.asarray(est.z_batch(part, pi), dtype=float).tobytes()
                    == z[sub].tobytes())
            assert est.estimate_batch(part).tobytes() == fits[sub].tobytes()
