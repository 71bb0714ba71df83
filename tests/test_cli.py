"""Command-line interface: subcommands, data parsing, exit codes."""

import json

import numpy as np
import pytest

from implicit_boot.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                               EXIT_SOLVER, _read_data, main)
from implicit_boot.errors import ConfigError
from implicit_boot.models import make_model
from implicit_boot.rng import MasterSeed, Role, StreamKey, derive_seed, \
    draw_block


def _write_cfg(tmp_path, **kw):
    base = dict(scenario="clismoke", model="uniform", theta0=[2.0], n=10,
                estimator="sample_max", methods=["implicit", "percentile"],
                alphas=[0.9, 0.95], M=20, B=120, master_seed=3)
    base.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


def _write_data(tmp_path, n=12):
    blk = draw_block(derive_seed(MasterSeed(9), StreamKey(0, Role.OBSERVED)), n)
    y = make_model("uniform").simulate([2.0], blk).y
    path = tmp_path / "data.csv"
    path.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    return str(path)


def test_ci_subcommand(tmp_path, capsys):
    code = main(["ci", "--config", _write_cfg(tmp_path),
                 "--data", _write_data(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    # one line per (method, alpha), in config order
    assert [ln.split("\t")[:2] for ln in lines] == [
        [meth, f"alpha={a}"] for meth in ("implicit", "percentile")
        for a in (0.9, 0.95)]


def test_simulate_coverage_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["simulate-coverage", "--config", cfg,
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "clismoke.csv").exists()
    assert "coverage=" in capsys.readouterr().out


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, bogus_key=1)
    assert main(["simulate-coverage", "--config", cfg]) == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_exact_check_subcommand(tmp_path, capsys):
    code = main(["exact-check", "--example", "uniform",
                 "--M", "200", "--B", "200"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status: PASS" in out
    assert "percentile-bootstrap contrast" in out


def test_bench_subcommand(tmp_path, capsys):
    code = main(["bench", "--config", _write_cfg(tmp_path), "--reps", "2"])
    assert code == EXIT_OK
    assert "vs percentile" in capsys.readouterr().out


def test_plot_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    main(["simulate-coverage", "--config", cfg, "--out", str(tmp_path)])
    out_svg = tmp_path / "curves.svg"
    code = main(["plot", "--in", str(tmp_path / "clismoke.csv"),
                 "--out", str(out_svg)])
    assert code == EXIT_OK
    assert out_svg.read_text().startswith("<svg")


def test_ci_solver_failure_has_its_own_exit_code(tmp_path, capsys):
    # constant data have no Lomax MLE: the profile score never changes sign
    cfg = _write_cfg(tmp_path, model="lomax", theta0=[1.0, 1.5],
                     estimator="lomax_mle", methods=["implicit"])
    data = tmp_path / "const.csv"
    data.write_text("1.0\n" * 12)
    code = main(["ci", "--config", cfg, "--data", str(data)])
    assert code == EXIT_SOLVER != EXIT_CHECK_FAILED
    assert "no sign change" in capsys.readouterr().err


@pytest.mark.parametrize("kw", [
    dict(model="lomax", theta0=[1.0], estimator="lomax_mle"),
    dict(model="lomax", theta0=[-1.0, 1.5], estimator="lomax_mle"),
    dict(model="mg1", theta0=[0.9, 0.3, 1.0], estimator="frechet_mle"),
    dict(model="student_t_censored", n=754, estimator="t_naive_mle",
         theta0=[4.0, -1.0, 1.5, -0.5, -1.5, 1.4, 6.0]),
], ids=["short_theta0", "theta0_outside_box", "mg1_theta1_above_theta2",
        "censored_t_n_beyond_design"])
def test_invalid_model_config_is_a_config_error(tmp_path, capsys, kw):
    code = main(["simulate-coverage", "--config", _write_cfg(tmp_path, **kw),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "clismoke" in capsys.readouterr().err


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    code = main(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")])
    assert code == EXIT_CONFIG


def test_read_data_single_column_and_headered(tmp_path):
    plain = tmp_path / "p.csv"
    plain.write_text("1.0\n2.5\n0.5\n")
    d = _read_data(str(plain))
    np.testing.assert_array_equal(d.y, [1.0, 2.5, 0.5])

    headered = tmp_path / "h.csv"
    headered.write_text("y,x1,censored\n1.0,0.3,1\n0.0,-0.2,0\n")
    d = _read_data(str(headered))
    assert d.X.shape == (2, 2)  # intercept prepended
    np.testing.assert_array_equal(d.X[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(d.censored, [True, False])


def test_read_data_rejects_bad_files(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("")
    with pytest.raises(ConfigError):
        _read_data(str(f))
    f.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ConfigError, match="header"):
        _read_data(str(f))
    f.write_text("y,x1\n1.0,oops\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        _read_data(str(f))
    f.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(ConfigError, match="'y'"):
        _read_data(str(f))


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IB_THREADS", "junk")
    cfg = _write_cfg(tmp_path)
    assert main(["simulate-coverage", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    monkeypatch.setenv("IB_THREADS", "2")
    assert main(["simulate-coverage", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
