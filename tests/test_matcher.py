"""Matching solvers: coordinate transforms, path agreement, batch parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_boot import engines, exact, matcher
from implicit_boot.errors import NoZFunction, UnsupportedExample
from implicit_boot.estimators import (AuxEstimate, CensoredMeanEstimator,
                                      LomaxMLE, ParetoMLE, SampleMaxEstimator)
from implicit_boot.matcher import (BoxTransform, InitRule, MatchPath,
                                   MatchResult, SolverConfig,
                                   batched_switched_match, closed_form_match,
                                   nested_match, switched_match)
from implicit_boot.models import Box, make_model
from implicit_boot.rng import (MasterSeed, RandomBlock, Role, StreamKey,
                               derive_seed, derive_seeds, draw_block,
                               draw_uniforms)

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
    cfg = SolverConfig(init_rule=InitRule.USER)
    with pytest.raises(ValueError):
        switched_match(pi, model, est, star, cfg)
    cfg2 = SolverConfig(init_rule=InitRule.USER, init=np.array([1.5]))
    res = switched_match(pi, model, est, star, cfg2)
    assert res.converged


def test_match_result_theta_is_immutable():
    model, est, pi, star = _uniform_instance(3)
    res = switched_match(pi, model, est, star)
    with pytest.raises(ValueError):
        res.theta_check[0] = 0.0


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


# ---------------------------------------------------------------- batched path

@pytest.mark.parametrize("block, theta0, near_boundary", [
    pytest.param(220, 0.7, False, id="interior"),
    # some draws' closed form is the boundary 0, and rows whose simulated
    # mean at pi_hat is negative start on the flat part of max(mean, 0) - pi,
    # where Newton has no direction: the scalar solver takes those rows
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
    calls = {"batched": 0, "scalar": 0}
    batched, scalar = engines.batched_switched_match, matcher.switched_match

    def counted_batched(*args, **kwargs):
        calls["batched"] += 1
        return batched(*args, **kwargs)

    def counted_scalar(*args, **kwargs):
        calls["scalar"] += 1
        return scalar(*args, **kwargs)

    monkeypatch.setattr(engines, "batched_switched_match", counted_batched)
    monkeypatch.setattr(matcher, "switched_match", counted_scalar)
    B, master = 200, MasterSeed(7)
    sample, _ = engines.implicit_bootstrap(data, model, est, B=B, master=master,
                                           path=MatchPath.SWITCHED,
                                           replicate_id=3)
    assert calls["batched"] == 1
    assert (calls["scalar"] > 0) == near_boundary
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
        ref = switched_match(pi, model, est, RandomBlock(u=U[i]))
        np.testing.assert_allclose(thetas[i], ref.theta_check,
                                   rtol=1e-5, atol=1e-7)
        assert deltas[i] <= 1e-8


def _criterion6_replicate(m):
    """Observed estimate and noise blocks of replicate m of the criterion-6
    Lomax config: theta0 (1, 1.5), n=50, B=500, master seed 12."""
    model, est = make_model("lomax"), LomaxMLE()
    master = MasterSeed(12)
    obs = draw_block(derive_seed(master, StreamKey(m, Role.OBSERVED)), 50)
    U = draw_uniforms(derive_seeds(master, m, Role.BOOT, np.arange(1, 501)), 50)
    return est.estimate(model.simulate([1.0, 1.5], obs)), model, est, U


@pytest.mark.parametrize("m, retried, unconverged", [
    # row 494's batched iterate has no MLE; the retry rescues it
    pytest.param(249, [494], 290, id="rescue-249"),
    # only ridge rows, which the retry used to walk 158 times
    pytest.param(232, [], 259, id="ridge-232"),
])
def test_scalar_retry_only_for_rows_without_a_re_estimate(monkeypatch, m,
                                                          retried, unconverged):
    pi, model, est, U = _criterion6_replicate(m)
    blocks = []
    scalar = matcher.switched_match

    def counted(pi_obs, model, est, w_star, *args, **kwargs):
        blocks.append(w_star.u)
        return scalar(pi_obs, model, est, w_star, *args, **kwargs)

    monkeypatch.setattr(matcher, "switched_match", counted)
    with np.errstate(all="ignore"):
        thetas, deltas, conv, _ = batched_switched_match(pi, model, est, U)
    assert [int(np.flatnonzero((U == u).all(axis=1))[0]) for u in blocks] \
        == retried
    for i in retried:
        assert conv[i] and deltas[i] <= 1e-8
    # ridge rows keep their batched iterate, its finite gap, and the label
    assert int(np.sum(~conv)) == unconverged
    assert np.all(np.isfinite(deltas[~conv]))
    assert np.all(np.isfinite(thetas))


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
