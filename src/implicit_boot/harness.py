"""Monte Carlo coverage experiments, benchmarks, and reporting.

A scenario is a JSON document naming a model, a true parameter, an initial
estimator, the interval methods to compare, and the Monte Carlo sizes.  The
runner simulates M independent datasets, builds every method's intervals at
every confidence level, and aggregates empirical coverages into a CSV whose
bytes depend only on the configuration and the master seed (replicates are
dispatched to a thread pool but gathered by index, and all randomness is
pre-keyed by replicate id).

Wall-clock numbers are deliberately kept out of the coverage CSV so that the
same configuration always produces the same file; timings live in
:func:`run_bench`.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import engines, exact
from .errors import (ConfigError, ExcessExclusions, ImplicitBootError,
                     OutOfBox, ParseError)
from .estimators import (CensoredMeanEstimator, FrechetMLE, LomaxMLE,
                         LomaxNaiveWMLE, ParetoMLE, SampleMaxEstimator,
                         StudentTCensoredMLE, StudentTNaiveMLE)
from .matcher import MatchPath
from .models import MODEL_REGISTRY, make_model
from .rng import MasterSeed, Role, StreamKey, derive_seed, draw_block

__all__ = [
    "ScenarioConfig",
    "CoverageRecord",
    "CSV_HEADER",
    "load_config",
    "make_estimator",
    "make_psi",
    "setup",
    "run_coverage",
    "records_to_csv",
    "parse_csv",
    "run_exact_check",
    "run_bench",
    "emit_plot",
]

CSV_HEADER = ("scenario,method,alpha,n,M,B,coverage,mc_stderr,"
              "mean_len,mean_delta,excluded,wall_s")

_ESTIMATORS = {
    "sample_max": lambda model: SampleMaxEstimator(),
    "pareto_mle": lambda model: ParetoMLE(),
    "lomax_mle": lambda model: LomaxMLE(),
    "lomax_wmle": lambda model: LomaxNaiveWMLE(),
    "censored_mean": lambda model: CensoredMeanEstimator(),
    "t_naive_mle": lambda model: StudentTNaiveMLE(),
    "t_censored_mle": lambda model: StudentTCensoredMLE(model),
    "frechet_mle": lambda model: FrechetMLE(),
}


def make_estimator(name: str, model):
    try:
        return _ESTIMATORS[name](model)
    except KeyError:
        raise ConfigError(f"unknown estimator {name!r}; "
                          f"choose from {sorted(_ESTIMATORS)}") from None


def make_psi(spec: str, model):
    """Functional of theta named by a config string, evaluated on a (k, p)
    array of parameter rows to give k values.

    ``"default"`` is the model's default scalar, ``"component:j"`` picks
    coordinate j, ``"survival:y0"`` the survival probability past y0 for
    models exposing one.
    """
    if spec in ("", "default"):
        return model.default_psi
    if spec.startswith("component:"):
        try:
            j = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad component index in {spec!r}") from None
        if not 0 <= j < model.p:
            raise ConfigError(f"component {j} out of range for {model.name}")
        return engines._as_psi(j, model)
    if spec.startswith("survival:"):
        if not hasattr(model, "survival"):
            raise ConfigError(f"{model.name} has no survival functional")
        try:
            y0 = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad survival threshold in {spec!r}") from None
        return lambda thetas: model.survival(thetas, y0)
    raise ConfigError(f"unknown psi spec {spec!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    model: str
    theta0: tuple
    n: int
    estimator: str
    baseline_estimator: str = ""  # defaults to `estimator`
    psi: str = "default"
    methods: tuple = ("implicit", "percentile")
    alphas: tuple = (0.9, 0.925, 0.95, 0.975, 0.99)
    two_sided: bool = False
    match_path: str = "switched"
    master_seed: int = 0
    M: int = 1000
    B: int = 1000
    paper_M: int = 10000
    paper_B: int = 1000
    asymptotic_cov: str = "information"
    out: str = ""

    def __post_init__(self):
        if self.model not in MODEL_REGISTRY:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.M < 1 or self.B < 1 or self.n < 1:
            raise ConfigError("n, M and B must all be >= 1")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or any(not 0.0 < a < 1.0 for a in alphas) \
                or any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ConfigError(
                f"alphas must be strictly increasing within (0,1): {alphas}")
        for m in self.methods:
            if m not in engines.METHOD_REGISTRY:
                raise ConfigError(f"unknown method {m!r}; choose from "
                                  f"{tuple(engines.METHOD_REGISTRY)}")
        if self.match_path not in ("nested", "switched", "closed_form"):
            raise ConfigError(f"unknown match path {self.match_path!r}")
        if self.asymptotic_cov not in ("information", "bootstrap"):
            raise ConfigError(
                f"asymptotic_cov must be 'information' or 'bootstrap'")
        object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "methods", tuple(self.methods))

    def at_paper_scale(self) -> "ScenarioConfig":
        return replace(self, M=self.paper_M, B=self.paper_B)

    def resolved(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def setup(cfg: ScenarioConfig, n: int | None = None):
    """(model, est, base, psi, master) for a scenario; ``n`` defaults to
    the configured sample size.  A sample size the model cannot take, or a
    ``theta0`` outside the model's parameter space, is a
    :class:`ConfigError`."""
    try:
        model = make_model(cfg.model, n=cfg.n if n is None else n)
        model._check(cfg.theta0)
    except (ValueError, OutOfBox) as err:
        raise ConfigError(f"{cfg.scenario}: {err}") from None
    return (model, make_estimator(cfg.estimator, model),
            make_estimator(cfg.baseline_estimator or cfg.estimator, model),
            make_psi(cfg.psi, model), MasterSeed(cfg.master_seed))


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario JSON file; unknown keys are an error."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"scenario", "model", "theta0", "n", "estimator"} - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        return ScenarioConfig(**raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None


@dataclass(frozen=True)
class CoverageRecord:
    scenario: str
    method: str
    alpha: float
    n: int
    M: int
    B: int
    coverage: float
    mc_stderr: float
    mean_len: float
    mean_delta: float
    excluded: int
    wall_s: float

    def row(self) -> str:
        return ",".join([
            self.scenario, self.method, repr(float(self.alpha)),
            str(self.n), str(self.M), str(self.B),
            repr(float(self.coverage)), repr(float(self.mc_stderr)),
            repr(float(self.mean_len)), repr(float(self.mean_delta)),
            str(self.excluded), repr(float(self.wall_s)),
        ])


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.row() for r in records]) + "\n"


def parse_csv(text: str):
    """Rows of a coverage CSV as dicts; raises ParseError with a 1-based
    line number on any malformed content."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)
    cols = CSV_HEADER.split(",")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(cols):
            raise ParseError(f"expected {len(cols)} fields, got {len(parts)}",
                             line=i)
        row = dict(zip(cols, parts))
        try:
            for k in ("alpha", "coverage", "mc_stderr", "mean_len",
                      "mean_delta", "wall_s"):
                row[k] = float(row[k])
            for k in ("n", "M", "B", "excluded"):
                row[k] = int(row[k])
        except ValueError as err:
            raise ParseError(str(err), line=i) from None
        out.append(row)
    return out


def _replicate_stats(cfg: ScenarioConfig, model, est, base, psi, master, m):
    """One replicate: per-method interval endpoints at every alpha.

    Returns {method: (lower (A,), upper (A,), mean_delta)} with lower all
    -inf in one-sided mode, or None when the replicate must be excluded.
    """
    block = draw_block(derive_seed(master, StreamKey(m, Role.OBSERVED)),
                       model.noise_dim(cfg.n))
    data = model.simulate(np.asarray(cfg.theta0), block)
    out = {}
    try:
        for meth in cfg.methods:
            family = engines.METHOD_REGISTRY[meth](
                data, model, est, base, psi, cfg.B, master,
                path=MatchPath(cfg.match_path), cov=cfg.asymptotic_cov,
                replicate_id=m)
            out[meth] = (*family.endpoints(cfg.alphas, cfg.two_sided),
                         family.delta)
    except ImplicitBootError:
        return None
    return out


def run_coverage(cfg: ScenarioConfig, threads: int = 1, out_dir: str | None = None):
    """Coverage simulation over M replicates; returns (records, csv_text).

    When ``out_dir`` is given, writes ``<scenario>.csv`` and the fully
    resolved configuration ``<scenario>_config.json`` there.
    """
    model, est, base, psi, master = setup(cfg)
    v0 = engines._psi_at(psi, cfg.theta0)

    def one(m):
        return _replicate_stats(cfg, model, est, base, psi, master, m)

    # suppressed here rather than per replicate: the warning state is
    # process-global, so toggling it inside pool workers would race
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, range(cfg.M)))
        else:
            results = [one(m) for m in range(cfg.M)]

    included = [r for r in results if r is not None]
    excluded = cfg.M - len(included)
    if excluded > 0.1 * cfg.M:
        raise ExcessExclusions(
            f"{excluded}/{cfg.M} replicates failed; coverage would be biased")

    records = []
    alphas = np.asarray(cfg.alphas)
    for meth in cfg.methods:
        lo = np.stack([r[meth][0] for r in included])
        hi = np.stack([r[meth][1] for r in included])
        deltas = np.asarray([r[meth][2] for r in included])
        if cfg.two_sided:
            covered = (lo <= v0) & (v0 <= hi)
            lengths = np.mean(hi - lo, axis=0)
        else:
            covered = v0 <= hi
            lengths = np.full(alphas.shape, np.nan)
        cov = np.mean(covered, axis=0)
        Mi = len(included)
        for j, a in enumerate(alphas):
            records.append(CoverageRecord(
                scenario=cfg.scenario, method=meth, alpha=float(a),
                n=cfg.n, M=Mi, B=cfg.B,
                coverage=float(cov[j]),
                mc_stderr=float(np.sqrt(cov[j] * (1.0 - cov[j]) / Mi)),
                mean_len=float(lengths[j]),
                mean_delta=float(np.nanmean(deltas))
                if np.any(np.isfinite(deltas)) else float("nan"),
                excluded=excluded, wall_s=0.0))
    csv_text = records_to_csv(records)
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{cfg.scenario}.csv"), "w") as fh:
            fh.write(csv_text)
        with open(os.path.join(out_dir, f"{cfg.scenario}_config.json"),
                  "w") as fh:
            json.dump(cfg.resolved(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return records, csv_text


_EXACT_DEFAULTS = {
    "uniform": {"n": 10, "theta0": (1.0,), "estimator": "sample_max",
                "alphas": (0.9, 0.925, 0.95, 0.975, 0.99)},
    "pareto": {"n": 20, "theta0": (1.0, 1.0), "estimator": "pareto_mle",
               "alphas": (0.9, 0.925, 0.95, 0.975, 0.99)},
    # alpha = 1/2 exactly sits on the boundary atom: the B-sample quantile
    # then flips a near-fair coin whenever the observed estimate is 0, and
    # empirical coverage tends to 3/4 for every B even though the exact
    # conditional quantile gives 1/2.  The equality claim is therefore
    # checked strictly inside (0, 1/2).
    "andrews": {"n": 25, "theta0": (0.0,), "estimator": "censored_mean",
                "alphas": (0.1, 0.25, 0.4, 0.45, 0.6, 0.75, 0.9)},
}


def run_exact_check(example: str, M: int = 10000, B: int = 2000,
                    master: MasterSeed = MasterSeed(0), n: int | None = None,
                    alphas=None) -> dict:
    """Verify the closed-form matched intervals hit their theoretical
    coverage across the alpha grid, within 3-sigma Monte Carlo bands.

    Each replicate runs the production implicit method (closed-form path,
    the example's estimator, psi = each parameter coordinate in turn) on
    data simulated at the true parameter.  For the uniform example the
    report also carries the percentile parametric bootstrap's coverage as a
    known-to-fail contrast.  Randomness is keyed as in
    :func:`run_coverage`, so results are exactly reproducible.
    """
    if example not in _EXACT_DEFAULTS:
        raise ConfigError(f"no exact check for {example!r}; "
                          f"choose from {sorted(_EXACT_DEFAULTS)}")
    dft = _EXACT_DEFAULTS[example]
    n = dft["n"] if n is None else int(n)
    alphas = np.asarray(dft["alphas"] if alphas is None else alphas,
                        dtype=float)
    model = make_model(example)
    est = make_estimator(dft["estimator"], model)
    theta0 = np.asarray(dft["theta0"])
    names = ("mu0", "alpha0") if example == "pareto" else ("theta",)
    # the boundary mean's draws have an atom at theta0 = 0: covered strictly
    covers = np.less if example == "andrews" else np.less_equal
    hits = np.zeros((len(names), alphas.size))
    pb_hits = np.zeros(alphas.size)

    def upper(method, data, j, m):
        return engines.METHOD_REGISTRY[method](
            data, model, est, est, j, B, master, path=MatchPath.CLOSED_FORM,
            replicate_id=m).endpoints(alphas, False)[1]

    for m in range(M):
        block = draw_block(derive_seed(master, StreamKey(m, Role.OBSERVED)), n)
        data = model.simulate(theta0, block)
        for j in range(len(names)):
            hits[j] += covers(theta0[j], upper("implicit", data, j, m))
        if example == "uniform":
            # contrast: resample from the plug-in fit theta_hat = max(y)
            pb_hits += theta0[0] <= upper("percentile", data, 0, m)

    entries = []
    status = "PASS"
    for i, name in enumerate(names):
        for j, a in enumerate(alphas):
            expected = exact.exact_coverage_theory(example, float(a))
            band = 3.0 * np.sqrt(expected * (1.0 - expected) / M)
            cov = hits[i, j] / M
            ok = abs(cov - expected) <= band
            status = status if ok else "FAIL"
            entries.append({"psi": name, "alpha": float(a),
                            "coverage": float(cov), "expected": expected,
                            "band": float(band), "pass": bool(ok)})
    report = {"example": example, "n": n, "M": M, "B": B,
              "entries": entries, "status": status}
    if example == "uniform":
        j95 = int(np.argmin(np.abs(alphas - 0.95)))
        a95 = float(alphas[j95])
        band = 3.0 * np.sqrt(a95 * (1.0 - a95) / M)
        cov = float(pb_hits[j95] / M)
        report["percentile_contrast"] = {
            "alpha": a95, "coverage": cov, "band": band,
            "outside_band": bool(abs(cov - a95) > band)}
    return report


def run_bench(cfg: ScenarioConfig, reps: int = 10):
    """Median wall time per CI for each configured method, plus ratios to
    the percentile parametric bootstrap when it is among them."""
    model, est, base, psi, master = setup(cfg)
    times = {meth: [] for meth in cfg.methods}
    for r in range(reps):
        block = draw_block(derive_seed(master, StreamKey(r, Role.OBSERVED)),
                           model.noise_dim(cfg.n))
        data = model.simulate(np.asarray(cfg.theta0), block)
        for meth in cfg.methods:
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                engines.METHOD_REGISTRY[meth](
                    data, model, est, base, psi, cfg.B, master,
                    path=MatchPath(cfg.match_path), cov=cfg.asymptotic_cov,
                    replicate_id=r).endpoints(cfg.alphas, cfg.two_sided)
            times[meth].append(time.perf_counter() - t0)
    table = []
    med = {meth: float(np.median(ts)) for meth, ts in times.items()}
    ref = med.get("percentile")
    for meth in cfg.methods:
        table.append({"method": meth, "median_s": med[meth],
                      "ratio_vs_percentile":
                          med[meth] / ref if ref else float("nan")})
    return table


# ---------------------------------------------------------------------------
# SVG emission.  Hand-rolled so the output is a pure deterministic function
# of the parsed records (golden-file testable byte for byte).

_PALETTE = ("#1b6ca8", "#d1495b", "#3a7d44", "#8c5383", "#e09f3e", "#495057")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70.0, 24.0, 24.0, 56.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def emit_plot(csv_path: str, out_svg: str) -> None:
    """Coverage-versus-level curves, one polyline per (scenario, method),
    with the nominal diagonal dashed for reference."""
    with open(csv_path) as fh:
        rows = parse_csv(fh.read())
    groups = {}
    for r in rows:
        groups.setdefault((r["scenario"], r["method"]), []).append(
            (r["alpha"], r["coverage"]))
    for pts in groups.values():
        pts.sort()
    many = len({k[0] for k in groups}) > 1

    if groups:
        xs = [a for pts in groups.values() for a, _ in pts]
        ys = [c for pts in groups.values() for _, c in pts]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys + [xlo]), max(ys + [xhi])
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi - xlo < 1e-9:
        xlo, xhi = xlo - 0.05, xhi + 0.05
    if yhi - ylo < 1e-9:
        ylo, yhi = ylo - 0.05, yhi + 0.05
    xpad, ypad = 0.04 * (xhi - xlo), 0.04 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def sx(a):
        return _ML + (a - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(c):
        return _H - _MB - (c - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(_W - _MR)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        fa = i / 4.0
        xv, yv = xlo + fa * (xhi - xlo), ylo + fa * (yhi - ylo)
        x, y = sx(xv), sy(yv)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_H - _MB)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(_H - _MB + 5)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_H - _MB + 20)}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_ML)}" y2="{_fmt(y)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(y + 4)}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 12.0)}" '
                 'font-family="sans-serif" font-size="13" '
                 'text-anchor="middle">confidence level</text>')
    parts.append(f'<text x="16" y="{_fmt((_MT + _H - _MB) / 2)}" '
                 'font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_fmt((_MT + _H - _MB) / 2)})">empirical coverage</text>')

    # nominal diagonal, clipped to the shared range of both axes
    dlo, dhi = max(xlo, ylo), min(xhi, yhi)
    if dlo < dhi:
        parts.append(f'<line x1="{_fmt(sx(dlo))}" y1="{_fmt(sy(dlo))}" '
                     f'x2="{_fmt(sx(dhi))}" y2="{_fmt(sy(dhi))}" '
                     'stroke="#888888" stroke-width="1" '
                     'stroke-dasharray="6,4"/>')

    for gi, key in enumerate(sorted(groups)):
        color = _PALETTE[gi % len(_PALETTE)]
        pts = groups[key]
        coords = " ".join(f"{_fmt(sx(a))},{_fmt(sy(c))}" for a, c in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        label = f"{key[0]}/{key[1]}" if many else key[1]
        ly = _MT + 16 + 16 * gi
        parts.append(f'<line x1="{_fmt(_ML + 10)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(_ML + 34)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(_ML + 40)}" y="{_fmt(ly)}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="start">{label}</text>')
    parts.append("</svg>")
    with open(out_svg, "w") as fh:
        fh.write("\n".join(parts) + "\n")
