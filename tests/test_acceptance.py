"""End-to-end acceptance checks, one test per criterion.

Criteria 1-6 and 9-11 run by default (the full suite takes about six
minutes on 2 cores, dominated by the Lomax coverage experiment).  Criteria
7 and 8 are multi-hour Monte Carlo runs and sit behind ``-m slow``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from implicit_boot import exact
from implicit_boot.engines import implicit_bootstrap, indirect_inference_correct
from implicit_boot.errors import NonConvergence
from implicit_boot.estimators import (CensoredMeanEstimator, FrechetMLE,
                                      LomaxMLE, LomaxNaiveWMLE, ParetoMLE,
                                      SampleMaxEstimator, StudentTNaiveMLE)
from implicit_boot.harness import (ScenarioConfig, _replicate_stats,
                                   run_bench, run_coverage, run_exact_check,
                                   setup)
from implicit_boot.matcher import (closed_form_match, nested_match,
                                   switched_match)
from implicit_boot.models import make_model
from implicit_boot.rng import (MasterSeed, RandomBlock, Role, StreamKey,
                               derive_seed, draw_block, draw_uniforms)

MS = MasterSeed(0)


def _block(i, m, master=MS):
    return draw_block(derive_seed(master, StreamKey(i, Role.OBSERVED)), m)


def _within(value, target, band):
    return abs(value - target) <= band


# -------------------------------------------------------------- criteria 1-3

def test_criterion_01_uniform_exact_coverage_and_contrast():
    t0 = time.time()
    report = run_exact_check("uniform", M=10000, B=2000)
    wall = time.time() - t0
    for e in report["entries"]:
        assert e["pass"], (f"alpha={e['alpha']}: coverage {e['coverage']:.4f} "
                           f"outside {e['expected']} +/- {e['band']:.4f}")
    assert report["percentile_contrast"]["outside_band"], \
        "percentile bootstrap unexpectedly inside the nominal band"
    assert wall < 120.0, f"runtime {wall:.0f}s exceeds the 2 min target"


def test_criterion_02_pareto_exact_coverage_both_functionals():
    report = run_exact_check("pareto", M=10000, B=2000)
    seen = {e["psi"] for e in report["entries"]}
    assert seen == {"mu0", "alpha0"}
    for e in report["entries"]:
        assert e["pass"], (f"psi={e['psi']} alpha={e['alpha']}: coverage "
                           f"{e['coverage']:.4f} outside the 3-sigma band")


def test_criterion_03_boundary_mean_coverage():
    report = run_exact_check("andrews", M=10000, B=2000)
    for e in report["entries"]:
        assert e["pass"], (f"alpha={e['alpha']}: coverage {e['coverage']:.4f} "
                           f"vs expected {e['expected']}")
        if e["alpha"] > 0.5:
            assert e["coverage"] == 1.0, \
                f"alpha={e['alpha']}: expected coverage exactly 1"


# -------------------------------------------------------------- criterion 4

def test_criterion_04_matching_paths_agree_on_random_instances():
    rng_u = draw_uniforms(np.uint64(derive_seed(MS, StreamKey(0, Role.INNER))),
                          300)
    n_uni, n_par = 15, 20
    for k in range(100):
        # uniform-scale instance with a randomized generator
        theta_u = 0.5 + 2.5 * rng_u[3 * k]
        model = make_model("uniform")
        est = SampleMaxEstimator()
        data = model.simulate([theta_u], _block(2 * k, n_uni))
        pi = est.estimate(data)
        star = _block(2 * k + 1, n_uni)
        ref = closed_form_match(
            "uniform", pi, exact.summary_from_block("uniform", star).stats)
        a = nested_match(pi, model, est, star)
        b = switched_match(pi, model, est, star)
        for res in (a, b):
            assert res.converged, f"uniform instance {k} flagged"
            np.testing.assert_allclose(res.theta_check, ref.theta_check,
                                       rtol=1e-6, atol=1e-8)

        mu = 0.5 + 1.5 * rng_u[3 * k + 1]
        alpha = 0.5 + 2.0 * rng_u[3 * k + 2]
        model = make_model("pareto")
        est = ParetoMLE()
        data = model.simulate([mu, alpha], _block(1000 + 2 * k, n_par))
        pi = est.estimate(data)
        star = _block(1001 + 2 * k, n_par)
        ref = closed_form_match(
            "pareto", pi, exact.summary_from_block("pareto", star).stats)
        a = nested_match(pi, model, est, star)
        b = switched_match(pi, model, est, star)
        for res in (a, b):
            assert res.converged, f"pareto instance {k} flagged"
            np.testing.assert_allclose(res.theta_check, ref.theta_check,
                                       rtol=1e-6, atol=1e-8)


# -------------------------------------------------------------- criterion 5

_FIXED_POINTS = [
    ("uniform", lambda m: SampleMaxEstimator(), (2.0,), 30),
    ("pareto", lambda m: ParetoMLE(), (1.3, 0.8), 30),
    ("lomax", lambda m: LomaxMLE(), (1.0, 1.5), 100),
    ("andrews", lambda m: CensoredMeanEstimator(), (0.7,), 30),
    ("student_t_censored", lambda m: StudentTNaiveMLE(),
     (4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 6.0), 100),
    ("mg1", lambda m: FrechetMLE(), (0.3, 0.9, 1.0), 100),
]


@pytest.mark.parametrize("name,make_est,theta0,n",
                         _FIXED_POINTS, ids=[f[0] for f in _FIXED_POINTS])
def test_criterion_05_perfect_matching_fixed_point(name, make_est, theta0, n):
    model = make_model(name, n=n)
    est = make_est(model)
    theta0 = np.asarray(theta0)
    for i in range(20):
        w = _block(5000 + i, model.noise_dim(n))
        data = model.simulate(theta0, w)
        pi_obs = est.estimate(data)
        # the matching objective evaluated at the generator, with the
        # simulated noise equal to the observed noise, is exactly zero
        gap0 = float(np.linalg.norm(
            pi_obs.pi - est.estimate(model.simulate(theta0, w)).pi))
        assert gap0 == 0.0, f"{name} instance {i}: gap {gap0:g} at theta0"
        res = nested_match(pi_obs, model, est, w, init=theta0)
        assert res.delta == 0.0, f"{name} instance {i}: delta {res.delta:g}"
        assert np.max(np.abs(res.theta_check - theta0)) <= 1e-10


# -------------------------------------------------------------- criterion 6

def test_criterion_06_lomax_coverage_and_survival():
    t0 = time.time()
    common = dict(model="lomax", theta0=(1.0, 1.5), estimator="lomax_mle",
                  methods=("implicit", "percentile"), alphas=(0.95,),
                  match_path="switched", M=2000, B=500, master_seed=12)
    recs_a, _ = run_coverage(ScenarioConfig(scenario="lomax_cov", n=50,
                                            **common))
    recs_b, _ = run_coverage(ScenarioConfig(scenario="lomax_surv", n=100,
                                            psi="survival:6.0", **common))
    assert (1.0 + 6.0) ** -1.5 == pytest.approx(0.05399, abs=5e-6)
    for recs, label in ((recs_a, "parameter"), (recs_b, "survival")):
        cov = {r.method: r.coverage for r in recs}
        assert _within(cov["implicit"], 0.95, 0.02), \
            f"{label}: implicit coverage {cov['implicit']:.4f}"
        assert abs(cov["percentile"] - 0.95) > abs(cov["implicit"] - 0.95), \
            f"{label}: percentile {cov['percentile']:.4f} not strictly worse"
    wall = time.time() - t0
    assert wall < 1800.0, f"runtime {wall:.0f}s exceeds the 30 min target"


# -------------------------------------------------------------- criteria 7-8

CRITERION7 = ScenarioConfig(
    scenario="tobit", model="student_t_censored",
    theta0=(4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0),
    n=100, estimator="t_naive_mle", baseline_estimator="t_censored_mle",
    psi="component:1", methods=("implicit", "percentile", "asymptotic"),
    alphas=(0.95,), match_path="switched", M=1000, B=200, master_seed=0)


@pytest.mark.slow
def test_criterion_07_censored_t_regression_coverage():
    recs, _ = run_coverage(CRITERION7)
    cov = {r.method: r.coverage for r in recs}
    assert _within(cov["implicit"], 0.939, 0.02), \
        f"implicit coverage {cov['implicit']:.4f}"
    gaps = [abs(cov[m] - 0.95)
            for m in ("implicit", "percentile", "asymptotic")]
    assert gaps[0] <= gaps[1] <= gaps[2], f"ordering violated: {cov}"


def test_criterion_07_replicate_153_has_a_naive_fit_and_covers():
    # the naive t fit of this replicate's observed sample once ended
    # "ABNORMAL" in L-BFGS-B, which excluded the replicate for every method
    cfg = replace(CRITERION7, methods=("percentile", "asymptotic"))
    model, est, base, psi, master = setup(cfg)
    data = model.simulate(np.asarray(cfg.theta0), draw_block(
        derive_seed(master, StreamKey(153, Role.OBSERVED)), cfg.n))
    fit = est.estimate(data).pi
    assert np.linalg.norm(est.z(data, fit)) < 1e-6
    out = _replicate_stats(cfg, model, est, base, psi, master, 153)
    psi0 = cfg.theta0[1]
    for meth, upper in (("percentile", -0.688), ("asymptotic", -0.640)):
        assert out[meth][1][0] == pytest.approx(upper, abs=5e-4)
        assert psi0 <= out[meth][1][0]


@pytest.mark.slow
def test_criterion_08_queue_coverage_per_parameter():
    for j in range(3):
        cfg = ScenarioConfig(
            scenario=f"mg1_theta{j + 1}", model="mg1",
            theta0=(0.3, 0.9, 1.0), n=250, estimator="frechet_mle",
            psi=f"component:{j}", methods=("implicit",), alphas=(0.95,),
            match_path="switched", M=1000, B=500, master_seed=0)
        recs, _ = run_coverage(cfg)
        assert _within(recs[0].coverage, 0.95, 0.025), \
            f"theta{j + 1}: coverage {recs[0].coverage:.4f}"


# -------------------------------------------------------------- criterion 9

def _uniform_grid_config(M):
    return ScenarioConfig(
        scenario="uniform_exact", model="uniform", theta0=(1.0,), n=10,
        estimator="sample_max", methods=("implicit", "percentile"),
        alphas=(0.9, 0.925, 0.95, 0.975, 0.99), match_path="closed_form",
        M=M, B=2000, master_seed=0)


def test_criterion_09_thread_count_invariant_bytes():
    # same configuration as the uniform exact-coverage run, reduced to
    # M=300 replicates; the full-scale variant runs under -m slow
    texts = [run_coverage(_uniform_grid_config(300), threads=k)[1]
             for k in (1, 4, 8)]
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.slow
def test_criterion_09_thread_count_invariant_bytes_full_scale():
    texts = [run_coverage(_uniform_grid_config(10000), threads=k)[1]
             for k in (1, 4, 8)]
    assert texts[0] == texts[1] == texts[2]


# -------------------------------------------------------------- criterion 10

def test_criterion_10_implicit_cost_comparable_to_percentile(capsys):
    cfg = ScenarioConfig(scenario="bench", model="lomax", theta0=(1.0, 1.5),
                         n=50, estimator="lomax_mle",
                         methods=("implicit", "percentile"), alphas=(0.95,),
                         M=1, B=500, master_seed=12)
    table = run_bench(cfg, reps=11)
    by = {row["method"]: row for row in table}
    ratio = by["implicit"]["ratio_vs_percentile"]
    assert ratio <= 3.0, f"implicit/percentile time ratio {ratio:.2f}"

    # reported, not asserted: the robust-comparator speed advantage.  A
    # percentile bootstrap on the consistency-corrected weighted fit costs
    # about B corrections, against one implicit-bootstrap distribution.
    model = make_model("lomax")
    data = model.simulate([1.0, 1.5], _block(0, 50))
    wmle = LomaxNaiveWMLE()
    t0 = time.perf_counter()
    implicit_bootstrap(data, model, wmle, B=500, master=MS)
    t_impl = time.perf_counter() - t0
    t0 = time.perf_counter()
    indirect_inference_correct(data, model, wmle, H=50, master=MS)
    t_corr = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\n[criterion 10] corrected-weighted-bootstrap vs implicit "
              f"speed ratio approx {500.0 * t_corr / t_impl:.0f}x "
              f"(one correction: {t_corr:.2f}s, implicit distribution: "
              f"{t_impl:.2f}s)")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_invariant_suites_present():
    # the property suites live in the per-module test files; this check
    # pins their presence so a deleted suite cannot pass silently
    import test_engines
    import test_exact
    import test_models
    import test_rng
    assert hasattr(test_engines, "test_quantile_nondecreasing_in_level")
    assert hasattr(test_engines,
                   "test_quantile_commutes_with_increasing_transformations")
    assert hasattr(test_engines,
                   "test_implicit_sample_depends_on_data_only_through_pi_obs")
    assert hasattr(test_exact, "test_h_factorization_is_strictly_increasing")
    assert hasattr(test_models, "test_batched_simulation_matches_scalar_rows")
    assert hasattr(test_rng, "test_matrix_generation_rows_match_scalar_streams")
