"""Output checks, computed apart from the program.

Each check takes what a run captured and returns a list of problems (empty
when the outputs are right).  The noise streams come from
:mod:`covbench.streams`, the coverage CSV is parsed here, order statistics
use a full sort, normal quantiles come from :mod:`statistics`, and the
censored-t log-likelihood is written out with :mod:`scipy.stats`.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np
from scipy import stats

from . import streams

CSV_COLUMNS = ("scenario", "method", "alpha", "n", "M", "B", "coverage",
               "mc_stderr", "mean_len", "mean_delta", "excluded", "wall_s")
_INT_COLUMNS = ("n", "M", "B", "excluded")
_TEXT_COLUMNS = ("scenario", "method")

REMATCH_REPLICATES = 2   # leading included replicates re-matched by scalar code
REMATCH_DRAWS = 10       # evenly spaced draws per re-matched replicate
# one order above the 1e-8 estimate gap below which the engine calls a draw
# converged
REMATCH_TOL = 1e-7
REL_TOL = 1e-12


class CSVFormatError(ValueError):
    pass


def parse_coverage_csv(text: str) -> list[dict]:
    """Rows of a coverage CSV.  Every field must be in canonical form
    (``repr`` of its float, ``str`` of its int), so a changed byte either
    changes a value or breaks the form."""
    if not text.endswith("\n"):
        raise CSVFormatError("missing final newline")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(CSV_COLUMNS):
        raise CSVFormatError(f"line 1: unexpected header {lines[0]!r}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise CSVFormatError(f"line {i}: {len(fields)} fields")
        row = {}
        for col, text_value in zip(CSV_COLUMNS, fields):
            if col in _TEXT_COLUMNS:
                row[col] = text_value
                continue
            try:
                value = (int(text_value) if col in _INT_COLUMNS
                         else float(text_value))
            except ValueError:
                raise CSVFormatError(f"line {i}: {col}={text_value!r}") from None
            canonical = str(value) if col in _INT_COLUMNS else repr(value)
            if text_value != canonical:
                raise CSVFormatError(
                    f"line {i}: {col}={text_value!r} is not canonical")
            row[col] = value
        rows.append(row)
    return rows


def included(cap) -> list[int]:
    return [m for m in sorted(cap.results) if cap.results[m] is not None]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return _same(a, b) or math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check_csv(rows: list[dict], cfg: dict, cap, psi0: float) -> list[str]:
    """Row set, counts and coverage recomputed from the captured endpoints."""
    problems = []
    inc = included(cap)
    if sorted(cap.results) != list(range(cfg["M"])):
        problems.append(f"replicates run {sorted(cap.results)[:5]}... "
                        f"!= 0..{cfg['M'] - 1}")
    Mi = len(inc)
    expected = [(meth, float(a)) for meth in cfg["methods"]
                for a in cfg["alphas"]]
    got = [(r["method"], r["alpha"]) for r in rows]
    if got != expected:
        return problems + [f"csv rows {got} != {expected}"]
    for r in rows:
        meth, alpha = r["method"], r["alpha"]
        j = cfg["alphas"].index(alpha)
        where = f"csv {meth} alpha={alpha}"
        for col, want in (("scenario", cfg["scenario"]), ("n", cfg["n"]),
                          ("M", Mi), ("B", cfg["B"]),
                          ("excluded", cfg["M"] - Mi), ("wall_s", 0.0)):
            if r[col] != want:
                problems.append(f"{where}: {col}={r[col]!r}, expected {want!r}")
        if Mi == 0:
            continue
        hits = sum(psi0 <= cap.results[m][meth][1][j] for m in inc)
        cov = hits / Mi
        if r["coverage"] != cov:
            problems.append(f"{where}: coverage {r['coverage']!r}, "
                            f"recomputed {cov!r}")
        se = math.sqrt(cov * (1.0 - cov) / Mi)
        if r["mc_stderr"] != se:
            problems.append(f"{where}: mc_stderr {r['mc_stderr']!r} != {se!r}")
        if not math.isnan(r["mean_len"]):
            problems.append(f"{where}: one-sided mean_len {r['mean_len']!r}")
        if meth == "implicit":
            deltas = np.array([cap.results[m][meth][2] for m in inc])
            want = float(np.sum(deltas) / Mi)
        else:
            want = math.nan
        if not _same(r["mean_delta"], want):
            problems.append(f"{where}: mean_delta {r['mean_delta']!r} != "
                            f"{want!r}")
    return problems


def order_statistic(values: np.ndarray, alpha: float) -> float:
    """The ceil(alpha * B)-th smallest draw, alpha read as its decimal."""
    B = len(values)
    k = math.ceil(Fraction(repr(alpha)) * B)
    return float(np.sort(values)[min(max(k, 1), B) - 1])


def check_endpoints(cfg: dict, cap) -> list[str]:
    """Each engine endpoint against the order statistic of its own draws
    (or, for the asymptotic method, psi_hat + z_alpha * sigma)."""
    problems = []
    for m in included(cap):
        for meth in cfg["methods"]:
            lo, hi, _ = cap.results[m][meth]
            if not np.all(np.isneginf(lo)):
                problems.append(f"replicate {m} {meth}: lower {lo} not -inf")
            for j, alpha in enumerate(cfg["alphas"]):
                if meth == "asymptotic":
                    psi_hat, sigma = cap.asymptotic[m]
                    want = psi_hat + statistics.NormalDist().inv_cdf(alpha) * sigma
                    ok = _close(float(hi[j]), want)
                else:
                    draws = (cap.implicit[m] if meth == "implicit"
                             else cap.percentile[m][0])
                    want = order_statistic(draws, alpha)
                    ok = _same(float(hi[j]), want)
                if not ok:
                    problems.append(f"replicate {m} {meth} alpha={alpha}: "
                                    f"endpoint {hi[j]!r}, expected {want!r}")
    return problems


def failed_replicates(cap, region) -> list[int]:
    """Replicates with an implicit draw outside the model's parameter space."""
    return [m for m, (thetas, _) in sorted(cap.matched.items())
            if not np.all(region(thetas))]


def check_uniform(cfg: dict, cap, rows: list[dict]) -> list[str]:
    """Closed-form workload: every implicit draw is max(y) / max(u*_b) from
    the noise streams; percentile coverage is exactly 0; implicit coverage
    lies within a binomial band of each level."""
    problems = []
    master, n, B = cfg["master_seed"], cfg["n"], cfg["B"]
    theta0 = cfg["theta0"][0]
    b = np.arange(1, B + 1)
    for m in included(cap):
        y_max = np.max(theta0 * streams.observed_block(master, m, n))
        want = y_max / np.max(streams.boot_blocks(master, m, b, n), axis=1)
        got = cap.implicit[m]
        if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL,
                                                      atol=0.0):
            problems.append(f"replicate {m}: implicit draws differ from "
                            "max(y)/max(u*) by more than 1e-12 relative")
            continue
        hi = cap.results[m]["implicit"][1]
        for j, alpha in enumerate(cfg["alphas"]):
            endpoint = order_statistic(want, alpha)
            if not math.isclose(hi[j], endpoint, rel_tol=REL_TOL):
                problems.append(f"replicate {m} alpha={alpha}: endpoint "
                                f"{hi[j]!r}, closed form {endpoint!r}")
    for r in rows:
        if r["method"] == "percentile" and r["coverage"] != 0.0:
            problems.append(f"percentile coverage {r['coverage']!r} at "
                            f"alpha={r['alpha']}, expected exactly 0")
        if r["method"] == "implicit" and r["M"] > 0:
            a = r["alpha"]
            band = 5.0 * math.sqrt(a * (1.0 - a) / r["M"]) + 1.0 / B
            if abs(r["coverage"] - a) > band:
                problems.append(f"implicit coverage {r['coverage']!r} outside "
                                f"{a} +/- {band:.4f}")
    return problems


def check_rematch(cfg: dict, cap, model, est, region) -> tuple[list[str], float]:
    """Re-match a fixed subset of converged in-region implicit draws with the
    scalar code: simulate at the draw on its own noise block and feed the
    scalar estimator (Lomax, through brentq) or Z-function (the others);
    it must reproduce pi_obs.  Returns (problems, largest residual)."""
    from implicit_boot.rng import RandomBlock

    problems, worst = [], 0.0
    master, n, B = cfg["master_seed"], cfg["n"], cfg["B"]
    theta0 = np.asarray(cfg["theta0"])
    dim = model.noise_dim(n)
    psi_index = (int(cfg["psi"].split(":")[1])
                 if cfg.get("psi", "default").startswith("component:") else 0)
    for m in included(cap)[:REMATCH_REPLICATES]:
        obs = model.simulate(theta0, RandomBlock(
            u=streams.observed_block(master, m, dim)))
        pi_obs = est.estimate(obs).pi
        thetas, converged = cap.matched[m]
        inside = region(thetas)
        for b in range(0, B, max(1, B // REMATCH_DRAWS)):
            theta = thetas[b]
            if cap.implicit[m][b] != theta[psi_index]:
                problems.append(f"replicate {m} draw {b}: psi draw "
                                f"{cap.implicit[m][b]!r} != theta "
                                f"{theta[psi_index]!r}")
            if not (converged[b] and inside[b]):
                continue
            u = streams.boot_blocks(master, m, [b + 1], dim)[0]
            sim = model.simulate(theta, RandomBlock(u=u))
            if est.name == "lomax_mle":
                resid = float(np.max(np.abs(est.estimate(sim).pi - pi_obs)
                                     / np.maximum(1.0, np.abs(pi_obs))))
            else:
                resid = float(np.max(np.abs(est.z(sim, pi_obs))))
            worst = max(worst, resid)
            if not resid <= REMATCH_TOL:
                problems.append(f"replicate {m} draw {b}: scalar re-match "
                                f"residual {resid:.3g} > {REMATCH_TOL:g}")
    return problems, worst


def censored_t_loglik(theta, y, X, observed) -> float:
    beta, sigma, nu = theta[:-2], theta[-2], theta[-1]
    eta = X @ beta
    r = (y[observed] - eta[observed]) / sigma
    return float(np.sum(stats.t.logpdf(r, nu))
                 - np.count_nonzero(observed) * math.log(sigma)
                 + np.sum(stats.t.logcdf(-eta[~observed] / sigma, nu)))


_NU_BOUNDS = (0.3, 100.0)


def local_max_gap(theta: np.ndarray, y, X, observed) -> float:
    """Largest log-likelihood gain over the fit along coordinate and fixed
    oblique directions at two step sizes, staying inside the box."""
    base = censored_t_loglik(theta, y, X, observed)
    p = theta.size
    dirs = list(np.eye(p))
    dirs += list(np.random.default_rng(7).standard_normal((4, p)))
    gain = -math.inf
    for d in dirs:
        d = d / np.linalg.norm(d)
        for h in (1e-4, 1e-2):
            for sign in (1.0, -1.0):
                t = theta + sign * h * d * (1.0 + np.abs(theta))
                if t[-2] <= 0.0 or not _NU_BOUNDS[0] <= t[-1] <= _NU_BOUNDS[1]:
                    continue
                gain = max(gain, censored_t_loglik(t, y, X, observed) - base)
    return gain


def check_censored_fits(cfg: dict, cap, model, base_est) -> tuple[list[str], float]:
    """Each of a subset of StudentTCensoredMLE fits (the observed-data fit
    and the first two bootstrap fits of the leading replicates) lies in the
    box, is a local maximum of the censored log-likelihood, and is the fit
    the engines used.  Returns (problems, largest gain found)."""
    from implicit_boot.rng import RandomBlock

    problems, worst = [], -math.inf
    master, n = cfg["master_seed"], cfg["n"]
    theta0 = np.asarray(cfg["theta0"])
    j = int(cfg["psi"].split(":")[1])
    for m in included(cap)[:REMATCH_REPLICATES]:
        obs = model.simulate(theta0, RandomBlock(
            u=streams.observed_block(master, m, n)))
        fit = base_est.estimate(obs).pi
        draws, point = cap.percentile[m]
        if fit[j] != point or fit[j] != cap.asymptotic[m][0]:
            problems.append(f"replicate {m}: refit psi {fit[j]!r} differs "
                            f"from the engines' point estimate {point!r}")
        fits = [("observed", fit, obs)]
        theta_sim = model.box.clamp(fit)
        for b in (1, 2):
            u = streams.boot_blocks(master, m, [b], n)[0]
            sim = model.simulate(theta_sim, RandomBlock(u=u))
            fit_b = base_est.estimate(sim).pi
            if len(draws) == cfg["B"] and draws[b - 1] != fit_b[j]:
                problems.append(f"replicate {m} draw {b}: refit psi "
                                f"{fit_b[j]!r} != draw {draws[b - 1]!r}")
            fits.append((f"bootstrap {b}", fit_b, sim))
        for label, theta, data in fits:
            if not (theta[-2] > 0.0
                    and _NU_BOUNDS[0] <= theta[-1] <= _NU_BOUNDS[1]):
                problems.append(f"replicate {m} {label} fit outside the box: "
                                f"{theta}")
                continue
            gain = local_max_gap(theta, data.y, data.X, data.censored > 0.5)
            worst = max(worst, gain)
            if gain > 1e-7:
                problems.append(f"replicate {m} {label} fit is not a local "
                                f"maximum: log-likelihood gain {gain:.3g}")
    return problems, worst


def check_excluded(cfg: dict, cap) -> list[str]:
    """An excluded Lomax replicate must have no MLE: its observed sample has
    a coefficient of variation of at most 1."""
    problems = []
    if cfg["model"] != "lomax":
        return problems
    b, q = cfg["theta0"]
    for m in sorted(set(cap.results) - set(included(cap))):
        u = streams.observed_block(cfg["master_seed"], m, cfg["n"])
        y = b * ((1.0 - u) ** (-1.0 / q) - 1.0)
        if np.std(y) / np.mean(y) > 1.0:
            problems.append(f"replicate {m} excluded although its sample "
                            "has a Lomax MLE (CV > 1)")
    return problems


def check_identical(first, second, replicates) -> list[str]:
    """The recomputed replicates give bit-identical draws and endpoints."""
    def raw(x):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()

    problems = []
    for m in replicates:
        pairs = [("endpoints", first.results.get(m), second.results.get(m))]
        for name in ("implicit", "percentile", "asymptotic", "matched"):
            a, b = getattr(first, name), getattr(second, name)
            if m in a or m in b:
                pairs.append((name, a.get(m), b.get(m)))
        for name, a, b in pairs:
            if (a is None) != (b is None):
                problems.append(f"replicate {m} {name}: present in one run only")
            elif a is not None and _flatten(a, raw) != _flatten(b, raw):
                problems.append(f"replicate {m} {name}: not bit-identical")
    return problems


def _flatten(value, raw):
    if isinstance(value, dict):
        return [(k, _flatten(v, raw)) for k, v in sorted(value.items())]
    if isinstance(value, tuple):
        return [_flatten(v, raw) for v in value]
    return raw(value)
