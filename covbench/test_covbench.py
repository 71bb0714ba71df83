"""Tests of the benchmark itself.

The quick mode runs every workload at a few replicates with tracing and
every check on; each output check is then shown to fail on a corrupted
capture.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q covbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from covbench import bench, checks, streams
from covbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "covbench", "run.py")
QUICK_SECONDS = 1.0  # 5 Lomax, 1 M/G/1, 1 censored-t, 60 uniform replicates


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Every workload at its quick size, traced, with its CSV text."""
    out = {}
    for name in WORKLOADS:
        out_dir = str(tmp_path_factory.mktemp(name))
        got = bench.collect(name, None, QUICK_SECONDS, True, out_dir)
        with open(os.path.join(out_dir, f"{name}.csv")) as fh:
            out[name] = (got, fh.read())
    return out


def test_streams_match_the_program_rng():
    from implicit_boot.rng import (MasterSeed, Role, StreamKey, derive_seed,
                                   derive_seeds, draw_block, draw_uniforms)
    for master in (0, 12, 2 ** 64 - 1):
        for m in (0, 9):
            u = draw_block(derive_seed(MasterSeed(master),
                                       StreamKey(m, Role.OBSERVED)), 30).u
            assert np.array_equal(u, streams.observed_block(master, m, 30))
            U = draw_uniforms(derive_seeds(MasterSeed(master), m, Role.BOOT,
                                           np.arange(1, 101)), 7)
            assert np.array_equal(U, streams.boot_blocks(master, m,
                                                         np.arange(1, 101), 7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_mode_passes_every_check(quick, name):
    got, text = quick[name]
    problems, evidence = bench.verify(got, text)
    assert problems == []
    failed = checks.failed_replicates(got.cap, got.workload.region)
    # fault F1: every M/G/1 replicate has matched draws with theta1 >= theta2
    assert failed == (list(range(got.cfg["M"])) if name == "mg1_queue" else [])
    assert got.tracer.spans and got.cap.implicit_s
    if got.cfg["match_path"] == "switched":
        assert evidence["rematch_max_residual"] < 1e-9


def test_trace_counts_repeat_exactly(quick, tmp_path):
    got, _ = quick["lomax_coverage"]
    again = bench.collect("lomax_coverage", None, QUICK_SECONDS, True,
                          str(tmp_path))
    for t in (got.tracer, again.tracer):
        assert t.counts["matcher.row_evals"] > 0
    assert dict(got.tracer.counts) == dict(again.tracer.counts)
    first, second = got.tracer.totals(), again.tracer.totals()
    assert {k: (v["calls"], v["rows"]) for k, v in first.items()} == \
        {k: (v["calls"], v["rows"]) for k, v in second.items()}


def _corrupt(got, edit):
    """A copy of ``got`` whose capture ``edit`` has changed."""
    bad = copy.copy(got)
    bad.cap = copy.deepcopy(got.cap)
    edit(bad.cap)
    return bad


def _shift_endpoint(cap):
    lo, hi, delta = cap.results[0]["implicit"]
    cap.results[0]["implicit"] = (lo, np.nextafter(hi, np.inf), delta)


def _perturb_draw(cap):
    draws = cap.implicit[0].copy()
    draws[0] *= 1.0 + 1e-9
    cap.implicit[0] = draws


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shifted_endpoint_is_caught(quick, name):
    got, text = quick[name]
    bad = _corrupt(got, _shift_endpoint)
    assert checks.check_endpoints(bad.cfg, bad.cap)
    assert bench.verify(bad, text)[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_draw_is_caught(quick, name):
    got, text = quick[name]
    bad = _corrupt(got, _perturb_draw)
    assert checks.check_identical(bad.cap, bad.recheck, [0])
    problems = bench.verify(bad, text)[0]
    assert any("not bit-identical" in p for p in problems)
    if name == "uniform_exact":
        rows = checks.parse_coverage_csv(text)
        assert checks.check_uniform(bad.cfg, bad.cap, rows)
    else:
        model_checks = [p for p in problems if "psi draw" in p]
        assert model_checks, problems


def test_out_of_region_draw_is_caught(quick):
    got, _ = quick["lomax_coverage"]

    def leave_region(cap):
        thetas, converged = cap.matched[1]
        thetas = thetas.copy()
        thetas[7, 1] = -thetas[7, 1]
        cap.matched[1] = (thetas, converged)
    bad = _corrupt(got, leave_region)
    assert checks.failed_replicates(bad.cap, got.workload.region) == [1]


def test_every_changed_csv_byte_is_caught(quick):
    got, text = quick["uniform_exact"]
    assert bench.verify(got, text)[0] == []
    for i, ch in enumerate(text):
        for new in {"7" if ch != "7" else "3", "e" if ch != "e" else "n"}:
            changed = text[:i] + new + text[i + 1:]
            try:
                rows = checks.parse_coverage_csv(changed)
            except checks.CSVFormatError:
                continue
            assert checks.check_csv(rows, got.cfg, got.cap,
                                    got.workload.psi0()), (i, ch, new)


def test_wrong_rematch_and_local_max_are_caught(quick):
    from implicit_boot.harness import make_estimator
    from implicit_boot.models import make_model

    got, _ = quick["censored_t"]
    model = make_model("student_t_censored", n=got.cfg["n"])
    est = make_estimator("t_naive_mle", model)

    def shift_theta(cap):
        thetas, converged = cap.matched[0]
        thetas = thetas.copy()
        thetas[0, 0] += 1e-3
        cap.matched[0] = (thetas, converged)
        draws = cap.implicit[0].copy()
        draws[0] = thetas[0, 1]
        cap.implicit[0] = draws
    bad = _corrupt(got, shift_theta)
    problems, _ = checks.check_rematch(bad.cfg, bad.cap, model, est,
                                       got.workload.region)
    assert any("re-match residual" in p for p in problems), problems

    # a point off the maximum gains likelihood along some direction
    from implicit_boot.rng import RandomBlock
    obs = model.simulate(np.asarray(got.cfg["theta0"]), RandomBlock(
        u=streams.observed_block(got.cfg["master_seed"], 0, got.cfg["n"])))
    fit = make_estimator("t_censored_mle", model).estimate(obs).pi
    observed = obs.censored > 0.5
    assert checks.local_max_gap(fit, obs.y, obs.X, observed) <= 1e-7
    off = fit.copy()
    off[1] += 0.05
    assert checks.local_max_gap(off, obs.y, obs.X, observed) > 1e-3


def test_wrong_exclusion_is_caught(quick):
    got, _ = quick["lomax_coverage"]

    def exclude(cap):
        cap.results[2] = None
    bad = _corrupt(got, exclude)
    assert checks.check_excluded(bad.cfg, bad.cap)


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "uniform_exact", "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 12
    assert set(result["metrics"]) == {"replicates_per_s", "implicit_ci_s",
                                      "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert lines[-2].startswith("env ")
    env = json.loads(lines[-2][4:])
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["malloc_mmap_threshold"] == 32 * 1024 * 1024


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "covbench"), tmp_path / "covbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "covbench/run.py", "--workload", "lomax_coverage",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
