"""Scenario configs, coverage runner, CSV round trips, plotting."""

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from implicit_boot import engines, harness
from implicit_boot.errors import ConfigError, ExcessExclusions, ParseError
from implicit_boot.harness import (CSV_HEADER, CoverageRecord, ScenarioConfig,
                                   emit_plot, load_config, make_estimator,
                                   make_psi, parse_csv, records_to_csv,
                                   run_bench, run_coverage, run_exact_check)
from implicit_boot.matcher import MatchPath
from implicit_boot.models import make_model
from implicit_boot.rng import Role, StreamKey, derive_seed, draw_block

DATA_DIR = Path(__file__).parent / "data"


def _uniform_cfg(**kw):
    base = dict(scenario="smoke", model="uniform", theta0=(2.0,), n=10,
                estimator="sample_max", methods=("implicit", "percentile"),
                alphas=(0.8, 0.9, 0.95), M=40, B=60, master_seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------- config

def test_config_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        _uniform_cfg(model="nope")
    with pytest.raises(ConfigError):
        _uniform_cfg(alphas=(0.9, 0.8))
    with pytest.raises(ConfigError):
        _uniform_cfg(alphas=(0.9, 1.2))
    with pytest.raises(ConfigError):
        _uniform_cfg(methods=("implicit", "magic"))
    with pytest.raises(ConfigError):
        _uniform_cfg(match_path="sideways")
    with pytest.raises(ConfigError):
        _uniform_cfg(asymptotic_cov="guess")
    with pytest.raises(ConfigError):
        _uniform_cfg(M=0)


def test_config_paper_scale_and_resolution():
    cfg = _uniform_cfg(paper_M=500, paper_B=111)
    big = cfg.at_paper_scale()
    assert (big.M, big.B) == (500, 111)
    assert cfg.resolved()["scenario"] == "smoke"


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "s", "model": "uniform", "theta0": [2.0], "n": 10,
        "estimator": "sample_max"}))
    cfg = load_config(str(path))
    assert cfg.scenario == "s" and cfg.theta0 == (2.0,)


def test_load_config_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "s", "model": "uniform", "theta0": [2.0], "n": 10,
        "estimator": "sample_max", "Bee": 3}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(path))
    path.write_text(json.dumps({"scenario": "s"}))
    with pytest.raises(ConfigError, match="missing config keys"):
        load_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_make_estimator_and_psi_lookup():
    model = make_model("lomax")
    assert make_estimator("lomax_mle", model).name == "lomax_mle"
    with pytest.raises(ConfigError):
        make_estimator("nope", model)
    psi = make_psi("component:1", model)
    assert psi((1.0, 1.5)) == 1.5
    surv = make_psi("survival:6.0", model)
    assert surv((1.0, 1.5)) == pytest.approx(7.0 ** -1.5)
    with pytest.raises(ConfigError):
        make_psi("component:9", model)
    with pytest.raises(ConfigError):
        make_psi("survival:6.0", make_model("uniform"))
    with pytest.raises(ConfigError):
        make_psi("weird", model)


@pytest.mark.parametrize("spec", ["default", "component:0", "component:1",
                                  "survival:6.0"])
def test_make_psi_maps_parameter_rows_to_values(spec):
    # one call on a (k, p) stack gives k values, each equal to the call on
    # its own one-row array
    psi = make_psi(spec, make_model("lomax"))
    thetas = np.column_stack([np.linspace(0.2, 5.0, 7),
                              np.linspace(4.0, 0.3, 7)])
    values = psi(thetas)
    assert values.shape == (7,)
    rows = np.array([psi(thetas[i:i + 1])[0] for i in range(7)])
    np.testing.assert_array_equal(values, rows)
    if spec == "survival:6.0":
        np.testing.assert_allclose(
            values, (1.0 + 6.0 / thetas[:, 0]) ** -thetas[:, 1], rtol=1e-15)
    else:
        j = 1 if spec == "component:1" else 0
        np.testing.assert_array_equal(values, thetas[:, j])


# ---------------------------------------------------------------- CSV

def _record(**kw):
    base = dict(scenario="s", method="implicit", alpha=0.95, n=10, M=100,
                B=50, coverage=0.951, mc_stderr=0.0216, mean_len=float("nan"),
                mean_delta=1.25e-09, excluded=0, wall_s=0.0)
    base.update(kw)
    return CoverageRecord(**base)


def test_csv_round_trip_preserves_floats_exactly():
    recs = [_record(), _record(method="percentile", alpha=0.9,
                             coverage=1.0 / 3.0, mean_delta=float("nan"))]
    rows = parse_csv(records_to_csv(recs))
    assert rows[1]["coverage"] == 1.0 / 3.0
    assert rows[0]["mean_delta"] == 1.25e-09
    assert np.isnan(rows[0]["mean_len"])
    assert rows[0]["method"] == "implicit" and rows[0]["excluded"] == 0


def test_parse_csv_error_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_csv("bogus header\n")
    assert e.value.line == 1
    good = records_to_csv([_record()])
    with pytest.raises(ParseError) as e:
        parse_csv(good + "a,b,c\n")
    assert e.value.line == 3
    bad = good.splitlines()
    bad[1] = bad[1].replace("0.951", "not-a-number")
    with pytest.raises(ParseError) as e:
        parse_csv("\n".join(bad) + "\n")
    assert e.value.line == 2


# ---------------------------------------------------------------- runner

def test_run_coverage_smoke_and_row_consistency(tmp_path):
    cfg = _uniform_cfg(out="")
    records, csv_text = run_coverage(cfg, threads=1, out_dir=str(tmp_path))
    assert (tmp_path / "smoke.csv").read_text() == csv_text
    saved = json.loads((tmp_path / "smoke_config.json").read_text())
    assert saved["master_seed"] == 7
    rows = parse_csv(csv_text)
    assert len(rows) == 2 * 3
    for row in rows:
        # the M column counts included replicates, so the stderr formula
        # must reproduce the stored value exactly
        p, M = row["coverage"], row["M"]
        assert row["mc_stderr"] == pytest.approx(np.sqrt(p * (1 - p) / M),
                                                 abs=1e-15)
        assert row["M"] + row["excluded"] == cfg.M
        assert row["wall_s"] == 0.0


def test_coverage_nondecreasing_in_alpha():
    cfg = _uniform_cfg(M=60)
    records, _ = run_coverage(cfg)
    for meth in cfg.methods:
        covs = [r.coverage for r in records if r.method == meth]
        assert covs == sorted(covs)


def test_run_coverage_thread_count_does_not_change_bytes():
    cfg = _uniform_cfg()
    _, a = run_coverage(cfg, threads=1)
    _, b = run_coverage(cfg, threads=3)
    assert a == b


def test_run_coverage_single_replicate():
    records, _ = run_coverage(_uniform_cfg(M=1))
    assert all(r.M == 1 for r in records)
    assert all(r.coverage in (0.0, 1.0) for r in records)


def test_excess_exclusions_abort(monkeypatch):
    real = harness._replicate_stats

    def flaky(cfg, model, est, base, psi, master, m):
        return None if m % 3 == 0 else real(cfg, model, est, base, psi,
                                            master, m)

    monkeypatch.setattr(harness, "_replicate_stats", flaky)
    with pytest.raises(ExcessExclusions):
        run_coverage(_uniform_cfg(M=30))


def _one_level(meth, data, model, est, base, psi, cfg, master, alpha, m):
    """The public one-level function of each method, called directly."""
    kw = dict(alpha=alpha, two_sided=cfg.two_sided, replicate_id=m)
    if meth == "implicit":
        return engines.implicit_bootstrap(data, model, est, psi, cfg.B, master,
                                          path=MatchPath(cfg.match_path),
                                          **kw)[1]
    if meth == "percentile":
        return engines.percentile_parametric_bootstrap(
            data, model, base, psi, cfg.B, master, **kw)[1]
    if meth == "asymptotic":
        return engines.asymptotic_ci(data, model, base, psi,
                                     cov=cfg.asymptotic_cov, master=master,
                                     **kw)
    one = {"studentized": engines.studentized_bootstrap,
           "bca": engines.bca_bootstrap}[meth]
    return one(data, model, base, psi, cfg.B, master, **kw)


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("meth", sorted(engines.METHOD_REGISTRY))
def test_coverage_endpoints_equal_the_public_functions(meth, two_sided):
    cfg = ScenarioConfig(scenario="parity", model="lomax", theta0=(1.0, 1.5),
                         n=50, estimator="lomax_mle", methods=(meth,),
                         alphas=(0.9, 0.95), two_sided=two_sided, M=1, B=100,
                         master_seed=12)
    model, est, base, psi, master = harness.setup(cfg)
    m = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lower, upper, _ = harness._replicate_stats(cfg, model, est, base, psi,
                                                   master, m)[meth]
        data = model.simulate(np.asarray(cfg.theta0), draw_block(
            derive_seed(master, StreamKey(m, Role.OBSERVED)), cfg.n))
        cis = [_one_level(meth, data, model, est, base, psi, cfg, master, a, m)
               for a in cfg.alphas]
    np.testing.assert_array_equal(lower, [ci.lower for ci in cis])
    np.testing.assert_array_equal(upper, [ci.upper for ci in cis])


# ---------------------------------------------------------------- exact check

def test_exact_check_uniform_small_scale():
    report = run_exact_check("uniform", M=400, B=300)
    assert report["status"] == "PASS"
    assert report["percentile_contrast"]["outside_band"]


def test_exact_check_unknown_example():
    with pytest.raises(ConfigError):
        run_exact_check("lomax")


# ---------------------------------------------------------------- bench

def test_run_bench_reports_ratios():
    cfg = _uniform_cfg(B=40, M=2)
    table = run_bench(cfg, reps=2)
    by_method = {row["method"]: row for row in table}
    assert set(by_method) == {"implicit", "percentile"}
    assert by_method["percentile"]["ratio_vs_percentile"] == pytest.approx(1.0)
    assert all(row["median_s"] > 0.0 for row in table)


# ---------------------------------------------------------------- plotting

def test_emit_plot_matches_golden_fixture(tmp_path):
    out = tmp_path / "curves.svg"
    emit_plot(str(DATA_DIR / "coverage_fixture.csv"), str(out))
    assert out.read_bytes() == (DATA_DIR / "coverage_fixture.svg").read_bytes()


def test_emit_plot_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(str(DATA_DIR / "coverage_fixture.csv"), str(a))
    emit_plot(str(DATA_DIR / "coverage_fixture.csv"), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_emit_plot_propagates_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ParseError):
        emit_plot(str(bad), str(tmp_path / "x.svg"))
