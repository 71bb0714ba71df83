"""One benchmark run: set up, run the workload, check, report."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

from .capture import Capture, Patches, process_start
from .workloads import WORKLOADS

END_TO_END = {"replicates_per_s": "replicates/s", "implicit_ci_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (layer name, field of Tracer.totals or None for counts)
PER_LAYER = {
    "matcher.switched_match.calls": ("matcher.switched_match", "calls"),
    "matcher.switched_match.total_s": ("matcher.switched_match", "total_s"),
    "matcher.batched_switched_match.self_s":
        ("matcher.batched_switched_match", "self_s"),
    "matcher.batch_deltas.total_s": ("matcher.batch_deltas", "total_s"),
    "matcher.closed_form_match.calls": ("matcher.closed_form_match", "calls"),
    "matcher.closed_form_match.self_s": ("matcher.closed_form_match", "self_s"),
    "estimators.estimate_batch.self_s": ("estimators.estimate_batch", "self_s"),
    "estimators.estimate_batch.rows": ("estimators.estimate_batch", "rows"),
    "estimators.z_batch.self_s": ("estimators.z_batch", "self_s"),
    "estimators.z_batch.rows": ("estimators.z_batch", "rows"),
    "estimators.estimate.calls": ("estimators.estimate", "calls"),
    "estimators.estimate.self_s": ("estimators.estimate", "self_s"),
    "estimators.z.calls": ("estimators.z", "calls"),
    "models.simulate_batch.self_s": ("models.simulate_batch", "self_s"),
    "models.simulate_batch.rows": ("models.simulate_batch", "rows"),
    "models.simulate.calls": ("models.simulate", "calls"),
    "models.simulate.self_s": ("models.simulate", "self_s"),
    "models.loglik.calls": ("models.loglik", "calls"),
    "models.loglik.self_s": ("models.loglik", "self_s"),
    "engines.implicit_bootstrap.self_s": ("engines.implicit_bootstrap", "self_s"),
    "engines.percentile_parametric_bootstrap.self_s":
        ("engines.percentile_parametric_bootstrap", "self_s"),
    "engines.asymptotic_components.total_s":
        ("engines.asymptotic_components", "total_s"),
    "engines.psi.calls": ("engines.psi", "calls"),
    "engines.psi.self_s": ("engines.psi", "self_s"),
    "engines.empirical_quantile.self_s": ("engines.empirical_quantile", "self_s"),
    "exact.summaries_from_uniforms.self_s":
        ("exact.summaries_from_uniforms", "self_s"),
    "rng.draw_uniforms.self_s": ("rng.draw_uniforms", "self_s"),
    "harness.replicate.self_s": ("harness.replicate", "self_s"),
    "harness.run_coverage.self_s": ("harness.run_coverage", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "matcher.row_evals": ("matcher.row_evals", None),
    "matcher.unconverged_draws": ("matcher.unconverged_draws", None),
    "matcher.out_of_region_draws": ("matcher.out_of_region_draws", None),
    "matcher.retried_rows": ("matcher.retried_rows", None),
    "rng.uniforms_drawn": ("rng.uniforms_drawn", None),
}


def _unit(name: str) -> str:
    if name == "trace.replicates_per_s":
        return "replicates/s"
    if name.endswith("_s"):
        return "s"
    if name == "matcher.retry_rescue_ratio":
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pool_threads": 1,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _simulate_coverage(cfg: dict, out_dir: str, cap: Capture, tracer=None):
    """Write the config and run ``ib simulate-coverage`` on it in-process.
    Returns perf_counter when the command returned."""
    from implicit_boot import cli

    path = os.path.join(out_dir, f"{cfg['scenario']}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        cap.install(patches)
        rc = cli.main(["simulate-coverage", "--config", path,
                       "--threads", "1", "--out", out_dir])
        end = time.perf_counter()
    if rc != 0:
        raise RuntimeError(f"simulate-coverage exited with {rc}")
    return end


@dataclass
class Collected:
    """One workload run and its recomputed replicates, before any check."""

    workload: object
    cfg: dict
    cap: Capture
    recheck: Capture
    tracer: object
    end: float           # perf_counter when the command returned
    setup_s: float
    peak_rss_mb: float


def collect(workload: str, seed: int | None, seconds: float, trace: bool,
            out_dir: str) -> Collected:
    wl = WORKLOADS[workload]
    cfg = wl.scenario(seed, seconds)
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    if trace:
        from .tracer import Tracer
        tracer = Tracer(wl.region)
    cap = Capture()
    end = _simulate_coverage(cfg, out_dir, cap, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    started = process_start()
    setup_s = (cap.first_replicate_boot - started if started is not None
               else float("nan"))

    recheck = Capture()
    _simulate_coverage(dict(cfg, scenario=f"{workload}_recheck",
                            M=min(wl.recheck, cfg["M"])), out_dir, recheck)
    return Collected(wl, cfg, cap, recheck, tracer, end, setup_s, peak_rss_mb)


def _durations(starts: list, end: float) -> list:
    """Wall time of each replicate (the last one includes writing the CSV)."""
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


def run(workload: str, seed: int | None, seconds: float, trace: bool,
        out_dir: str, env: dict) -> dict:
    """Collect, check and report one run; ``env`` is the environment block
    stored with the result."""
    got = collect(workload, seed, seconds, trace, out_dir)
    cfg, cap, tracer = got.cfg, got.cap, got.tracer
    wall = got.end - cap.starts[0]  # first replicate to the command's return
    # imported after the measured call: scipy.stats is not part of set-up
    from . import checks
    with open(os.path.join(out_dir, f"{workload}.csv")) as fh:
        problems, evidence = verify(got, fh.read())
    failed = checks.failed_replicates(cap, got.workload.region)

    if trace:
        totals = tracer.totals()
        metrics = {}
        for name, (layer, fieldname) in PER_LAYER.items():
            value = (tracer.counts.get(layer, 0) if fieldname is None
                     else totals[layer][fieldname] if layer in totals else 0)
            metrics[name] = value
        metrics["matcher.retry_rescue_ratio"] = tracer.retry_rescue_ratio()
        metrics["trace.replicates_per_s"] = cfg["M"] / wall
        tracer.write(os.path.join(out_dir, f"{workload}_spans.json"))
    else:
        metrics = {"replicates_per_s": cfg["M"] / wall,
                   "implicit_ci_s": statistics.median(cap.implicit_s),
                   "setup_s": got.setup_s, "peak_rss_mb": got.peak_rss_mb}
    result = {
        "correct": not problems, "attempted": cfg["M"], "failed": len(failed),
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or _unit(k)}
                    for k, v in metrics.items()}}
    with open(os.path.join(out_dir, f"{workload}_result.json"), "w") as fh:
        json.dump(dict(result, workload=workload, seed=seed,
                       master_seed=cfg["master_seed"], trace=trace,
                       failed_replicates=failed, problems=problems,
                       evidence=evidence, env=env,
                       replicate_s=_durations(cap.starts, got.end)),
                  fh, indent=1)
    return result


def verify(got: Collected, csv_text: str) -> tuple[list[str], dict]:
    """Every output check for the workload, given the coverage CSV it
    wrote; returns (problems, evidence)."""
    from implicit_boot.harness import make_estimator
    from implicit_boot.models import make_model

    from . import checks

    wl, cfg, cap = got.workload, got.cfg, got.cap
    problems, evidence = [], {}
    try:
        rows = checks.parse_coverage_csv(csv_text)
    except checks.CSVFormatError as err:
        return [f"coverage csv: {err}"], evidence
    problems += checks.check_csv(rows, cfg, cap, wl.psi0())
    problems += checks.check_endpoints(cfg, cap)
    problems += checks.check_excluded(cfg, cap)
    problems += checks.check_identical(cap, got.recheck,
                                      sorted(got.recheck.results))
    model = make_model(cfg["model"], n=cfg["n"])
    if cfg["match_path"] == "closed_form":
        problems += checks.check_uniform(cfg, cap, rows)
    else:
        est = make_estimator(cfg["estimator"], model)
        found, evidence["rematch_max_residual"] = checks.check_rematch(
            cfg, cap, model, est, wl.region)
        problems += found
    if cfg.get("baseline_estimator") == "t_censored_mle":
        base = make_estimator("t_censored_mle", model)
        found, evidence["censored_fit_max_gain"] = checks.check_censored_fits(
            cfg, cap, model, base)
        problems += found
    return problems, evidence
