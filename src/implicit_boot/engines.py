"""Confidence-interval engines.

Each engine turns B resampled parameter draws into a percentile-style
interval for a scalar functional psi(theta):

* ``implicit_bootstrap`` -- re-solves the matching problem on B fresh noise
  blocks and reads quantiles of psi at the matched parameters;
* ``percentile_parametric_bootstrap`` -- classic plug-in resampling from a
  fitted parameter;
* ``studentized_bootstrap`` -- bootstrap-t with a delta-method scale;
* ``bca_bootstrap`` -- bias-corrected and accelerated percentiles;
* ``asymptotic_ci`` -- Wald interval from the observed information (or a
  parametric-bootstrap covariance when no likelihood is available);
* ``indirect_inference_correct`` -- consistency correction of a biased
  estimator by matching its average over frozen simulated samples, solved
  by the switched matcher's Newton iteration as one row.

``psi`` maps a (k, p) array of parameter rows to k values (``None``: the
model's ``default_psi``; an integer j: coordinate j).  Engines call it once
on all B draws, and on a one-row array for a single point; a psi that does
not return k values raises :class:`DomainError`.  ``observed_information``
likewise scores its log-likelihood on rows, the stencil points of every point
in one call: the bootstrap-t scales its draws with one ``loglik_batch`` per
block of 64.

``METHOD_REGISTRY`` maps each :class:`CIMethod` name to a function that
fits once and returns an :class:`IntervalFamily`, the method's intervals
at every confidence level; the one-level functions above read one level
off it.  The coverage harness, the bench and the CLI all go through the
registry, so a new method is one entry here.

All randomness is keyed by (replicate_id, role, draw index), so every engine
is a deterministic function of its master seed and reentrant across threads.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from . import exact
from .errors import (DomainError, ImplicitBootError, NonConvergence,
                     SingularInformation)
from .estimators import Estimator
from .matcher import (_TOL_DELTA, BoxTransform, MatchPath, _newton,
                      batched_switched_match, closed_form_match, nested_match)
from .models import Dataset, ModelSpec, ParamVector, _batch_of_one
from .rng import MasterSeed, RandomBlock, Role, derive_seeds, draw_uniforms

__all__ = [
    "CIMethod",
    "DistributionSample",
    "CIResult",
    "IntervalFamily",
    "METHOD_REGISTRY",
    "empirical_quantile",
    "implicit_bootstrap",
    "percentile_parametric_bootstrap",
    "studentized_bootstrap",
    "bca_level",
    "jackknife_acceleration",
    "bca_bootstrap",
    "asymptotic_components",
    "asymptotic_ci",
    "indirect_inference_correct",
    "observed_information",
]


class CIMethod(enum.Enum):
    IMPLICIT = "implicit"
    PERCENTILE = "percentile"
    STUDENTIZED = "studentized"
    BCA = "bca"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class DistributionSample:
    """Draws of psi at resampled parameters, with per-draw solver flags."""

    values: np.ndarray
    B: int = field(init=False)
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 1:
            raise DomainError("a distribution sample needs at least one draw")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "B", v.shape[0])


@dataclass(frozen=True)
class CIResult:
    method: CIMethod
    alpha: float
    lower: float
    upper: float
    point: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0,1): {self.alpha}")
        if self.lower > self.upper:
            raise DomainError(f"empty interval: [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class IntervalFamily:
    """One method's intervals at every confidence level, from one fit.

    ``endpoints(alphas, two_sided)`` returns the arrays (lower, upper), one
    entry per level; lower is -inf throughout in one-sided mode.  ``delta``
    is the mean matching gap of the implicit method, NaN for the others.
    """

    method: CIMethod
    point: float
    endpoints: Callable
    meta: dict = field(default_factory=dict)
    delta: float = float("nan")

    def at(self, alpha: float, two_sided: bool = False) -> CIResult:
        lower, upper = self.endpoints([alpha], two_sided)
        return CIResult(self.method, alpha, float(lower[0]), float(upper[0]),
                        self.point, self.meta)


def empirical_quantile(sample, alpha: float) -> float:
    """Left-continuous empirical quantile: order statistic k = ceil(alpha*B).

    This is the generalized inverse of the ECDF, i.e. the smallest value x
    with Pr(draw <= x) >= alpha under the empirical law.  A small guard
    absorbs floating-point error in alpha*B at exact multiples.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0,1): {alpha}")
    values = np.asarray(getattr(sample, "values", sample), dtype=float)
    B = values.shape[0]
    k = int(math.ceil(alpha * B - 1e-9))
    k = min(max(k, 1), B)
    return float(np.partition(values, k - 1)[k - 1])


def _quantiles(sample, levels) -> np.ndarray:
    return np.array([empirical_quantile(sample, level) for level in levels])


def _percentile_endpoints(sample, adjust=lambda level: level):
    """Endpoints read off ``sample`` at the tail levels of each alpha, each
    level first passed through ``adjust``."""
    def endpoints(alphas, two_sided):
        alphas = np.asarray(alphas, dtype=float)
        if two_sided:
            return (_quantiles(sample, map(adjust, (1.0 - alphas) / 2.0)),
                    _quantiles(sample, map(adjust, (1.0 + alphas) / 2.0)))
        return (np.full(alphas.shape, -np.inf),
                _quantiles(sample, map(adjust, alphas)))
    return endpoints


def _as_psi(psi, model: ModelSpec):
    if psi is None:
        return model.default_psi
    if isinstance(psi, (int, np.integer)):
        j = int(psi)
        return lambda thetas: np.asarray(thetas, dtype=float)[..., j]
    return psi


def _psi_rows(psi, thetas: np.ndarray) -> np.ndarray:
    """psi on the rows of ``thetas`` (a single point is one row): one call."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    values = np.asarray(psi(thetas), dtype=float)
    if values.shape != thetas.shape[:1]:
        raise DomainError(f"psi must map a {thetas.shape} array of parameter"
                          f" rows to {thetas.shape[0]} values: {values.shape}")
    return values


def _psi_at(psi, theta: np.ndarray) -> float:
    return float(_psi_rows(psi, theta)[0])


_B_COV = 200  # parametric-bootstrap re-estimates of cov="bootstrap"


def _boot_blocks(master: MasterSeed, replicate_id: int, B: int, m: int) -> np.ndarray:
    seeds = derive_seeds(master, replicate_id, Role.BOOT, np.arange(1, B + 1))
    return draw_uniforms(seeds, m)


def _warn_small_B(B: int) -> None:
    if B < 100:
        warnings.warn(f"B={B} is small for percentile intervals; "
                      "quantiles will be coarse", stacklevel=3)


def implicit_bootstrap(data: Dataset, model: ModelSpec, est: Estimator,
                       psi=None, B: int = 1000,
                       master: MasterSeed = MasterSeed(0),
                       path: MatchPath = MatchPath.SWITCHED,
                       alpha: float = 0.95, two_sided: bool = False,
                       replicate_id: int = 0):
    """Percentile interval from B re-solved matching problems.

    The auxiliary estimate is computed once on ``data``; each draw b solves
    the matching problem against a fresh noise block keyed by (replicate_id,
    BOOT, b).  The closed-form and switched paths solve all B draws in one
    call; the nested path solves them one by one.  Every path returns all B
    draws: a draw without a solution comes back unconverged.  ``psi`` maps
    the (B, p) array of matched parameters to B values in one call.  Returns
    the psi sample and the interval.
    """
    _warn_small_B(B)
    psi = _as_psi(psi, model)
    pi_obs = est.estimate(data)
    U = _boot_blocks(master, replicate_id, B, model.noise_dim(data.n))
    tol_flag = 0.5 * data.n ** -1.5 * max(1.0, float(np.linalg.norm(pi_obs.pi)))

    if path is MatchPath.CLOSED_FORM:
        res = closed_form_match(model.name, pi_obs,
                                exact.summaries_from_uniforms(model.name, U))
        thetas = res.theta_check
        deltas = np.full(B, res.delta)
        converged = np.full(B, res.converged)
    elif path is MatchPath.SWITCHED:
        thetas, deltas, converged, _ = batched_switched_match(pi_obs, model,
                                                              est, U)
    else:
        results = [nested_match(pi_obs, model, est, RandomBlock(u)) for u in U]
        thetas = np.array([r.theta_check for r in results])
        deltas = np.array([r.delta for r in results])
        converged = np.array([r.converged for r in results])

    delta_flag = deltas > tol_flag
    sample = DistributionSample(_psi_rows(psi, thetas),
                                flags={"converged": converged,
                                       "delta_flag": delta_flag})
    meta = {"B": sample.B,
            "delta_flag_frac": float(np.mean(delta_flag)),
            "mean_delta": float(np.mean(deltas))}
    lower, upper = _percentile_endpoints(sample)([alpha], two_sided)
    return sample, CIResult(CIMethod.IMPLICIT, alpha, float(lower[0]),
                            float(upper[0]), empirical_quantile(sample, 0.5), meta)


def _re_estimates(theta: np.ndarray, model: ModelSpec, est: Estimator,
                  U: np.ndarray):
    """Estimates on datasets simulated at ``theta``, one per noise row of U,
    keeping the rows that have one (not the NaN rows of the batched fit):
    (kept estimates (k, p), the simulated batch, the kept mask)."""
    batch = model.simulate_batch(np.tile(theta, (U.shape[0], 1)), U)
    stars = est.estimate_batch(batch)
    good = np.all(np.isfinite(stars), axis=1)
    return stars[good], batch, good


def _resample_thetas(data, model, est, B, master, replicate_id):
    """Fit, then re-estimate on B datasets simulated at the fit pulled
    inside the box: (fit, theta_stars, the simulated batch, the kept
    mask)."""
    fit = est.estimate(data).pi
    U = _boot_blocks(master, replicate_id, B, model.noise_dim(data.n))
    stars, batch, good = _re_estimates(model.box.clamp(fit), model, est, U)
    failed = int(np.sum(~good))
    if failed > B // 2:
        raise NonConvergence(f"{failed}/{B} bootstrap re-estimates failed")
    return fit, stars, batch, good


def percentile_parametric_bootstrap(data: Dataset, model: ModelSpec,
                                    consistent_est: Estimator, psi=None,
                                    B: int = 1000,
                                    master: MasterSeed = MasterSeed(0),
                                    alpha: float = 0.95,
                                    two_sided: bool = False,
                                    replicate_id: int = 0):
    """Plain percentile interval from resampling at the fitted parameter."""
    _warn_small_B(B)
    psi = _as_psi(psi, model)
    fit, stars, _, good = _resample_thetas(data, model, consistent_est,
                                           B, master, replicate_id)
    sample = DistributionSample(_psi_rows(psi, stars))
    lower, upper = _percentile_endpoints(sample)([alpha], two_sided)
    return sample, CIResult(CIMethod.PERCENTILE, alpha, float(lower[0]),
                            float(upper[0]), _psi_at(psi, model.box.clamp(fit)),
                            {"B": sample.B, "failed": int(np.sum(~good))})


def observed_information(loglik, thetas: np.ndarray, box=None) -> np.ndarray:
    """Negative Hessian of a log-likelihood by central differences, at one
    point (p,) or at each row of a (k, p) stack.

    ``loglik`` maps (K, p) parameter rows to K values; one call scores the
    S = 1 + 2p^2 stencil points of every point, rows i*S to (i+1)*S - 1 for
    point i.  Step per coordinate: eps^(1/3) * (1 + |theta_j|).  Given the
    parameter ``box``, a point within two steps of a bound is first moved two
    steps inside it, so that no evaluation leaves the parameter space.
    """
    thetas = np.asarray(thetas, dtype=float)
    t = np.atleast_2d(thetas)
    k, p = t.shape
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(t))
    D = h[:, :, None] * np.eye(p)  # D[:, i] = h_i e_i
    if box is not None:
        t = np.clip(t, box.lower + 2.0 * h, box.upper - 2.0 * h)
    i, j = np.triu_indices(p, 1)
    plus, minus = t[:, None] + D, t[:, None] - D
    stencil = [t[:, None], plus, minus, plus[:, i] + D[:, j],
               plus[:, i] - D[:, j], minus[:, i] + D[:, j], minus[:, i] - D[:, j]]
    f = loglik(np.concatenate(stencil, axis=1).reshape(-1, p)).reshape(k, -1)
    f0, f_p, f_m, f_pp, f_pm, f_mp, f_mm = np.split(
        f, np.cumsum([1, p, p] + [i.size] * 3), axis=1)
    H = np.empty((k, p, p))
    # float_power rounds h^2 as the scalar h ** 2 (pow) does; array ** 2 is h * h
    d = np.arange(p)
    H[:, d, d] = (f_p - 2.0 * f0 + f_m) / np.float_power(h, 2)
    H[:, i, j] = H[:, j, i] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[:, i] * h[:, j])
    return -H if thetas.ndim == 2 else -H[0]


def _psi_gradient(psi, thetas: np.ndarray) -> np.ndarray:
    """Central-difference gradients at the rows of ``thetas`` (k, p); psi
    takes the 2p stencil points of every row in one call."""
    k, p = thetas.shape
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(thetas))
    D = h[:, :, None] * np.eye(p)
    f = _psi_rows(psi, np.concatenate([thetas[:, None] + D, thetas[:, None] - D],
                                      axis=1).reshape(-1, p)).reshape(k, 2 * p)
    return (f[:, :p] - f[:, p:]) / (2.0 * h)


_SCORE_BLOCK = 64  # points whose stencils one loglik_batch call scores


def _delta_method_sigma(model, psi, thetas, batch) -> np.ndarray:
    """Delta-method scales of psi at the rows of ``thetas`` (k, p), row i
    from its observed information on sample i of ``batch``.  NaN where the
    information is singular (a zero pivot: ``np.linalg.solve`` raises and
    ``slogdet`` has sign 0) or the variance is not finite and positive.
    The informations are scored ``_SCORE_BLOCK`` points per call, so the
    memory does not grow with k."""
    k, p = thetas.shape
    info = np.empty((k, p, p))
    for start in range(0, k, _SCORE_BLOCK):
        part = slice(start, start + _SCORE_BLOCK)
        samples = batch.rows(part)
        m = samples.y.shape[0]
        info[part] = observed_information(
            lambda rows: model.loglik_batch(rows, samples.rows(
                np.repeat(np.arange(m), rows.shape[0] // m))),
            thetas[part], model.box)
    g = _psi_gradient(psi, thetas)
    with np.errstate(invalid="ignore"):
        ok = np.linalg.slogdet(info)[0] != 0.0
    var = np.full(k, np.nan)
    var[ok] = (g[ok, None, :] @ np.linalg.solve(info[ok], g[ok, :, None]))[:, 0, 0]
    return np.sqrt(np.where(np.isfinite(var) & (var > 0.0), var, np.nan))


def _studentized(data, model, est, base, psi, B, master, *,
                 path=MatchPath.SWITCHED, cov="information", replicate_id=0):
    """Bootstrap-t family: pivots (psi_b - psi_hat) / sigma_b from B refits
    of ``base``, each scaled by the delta method at its own fit.  The draws
    are simulated, refitted and scaled in one batch each; more than B/2
    draws without a fit or a scale raise :class:`NonConvergence`."""
    if not model.has_loglik:
        raise SingularInformation(f"{model.name} exposes no log-likelihood")
    _warn_small_B(B)
    psi = _as_psi(psi, model)
    theta_hat, thetas, batch, kept = _resample_thetas(
        data, model, base, B, master, replicate_id)
    psi_hat = _psi_at(psi, theta_hat)
    sigma_hat = float(_delta_method_sigma(model, psi, theta_hat[None],
                                          _batch_of_one(data))[0])
    if math.isnan(sigma_hat):
        raise SingularInformation(f"no delta-method variance at {theta_hat}")
    sigmas = _delta_method_sigma(model, psi, thetas, batch.rows(kept))
    good = ~np.isnan(sigmas)
    failed = int(np.sum(~kept)) + int(np.sum(~good))
    if failed > B // 2:
        raise NonConvergence(f"{failed}/{B} studentized draws failed")
    sample = DistributionSample((_psi_rows(psi, thetas[good]) - psi_hat)
                                / sigmas[good])

    def endpoints(alphas, two_sided):
        alphas = np.asarray(alphas, dtype=float)
        if two_sided:
            return (psi_hat - sigma_hat * _quantiles(sample, (1.0 + alphas) / 2.0),
                    psi_hat - sigma_hat * _quantiles(sample, (1.0 - alphas) / 2.0))
        return (np.full(alphas.shape, -np.inf),
                psi_hat - sigma_hat * _quantiles(sample, 1.0 - alphas))
    return IntervalFamily(CIMethod.STUDENTIZED, psi_hat, endpoints,
                          {"B": sample.B, "failed": failed,
                           "sigma_hat": sigma_hat})


def studentized_bootstrap(data: Dataset, model: ModelSpec, est_mle: Estimator,
                          psi=None, B: int = 1000,
                          master: MasterSeed = MasterSeed(0),
                          alpha: float = 0.95, two_sided: bool = False,
                          replicate_id: int = 0) -> CIResult:
    """Bootstrap-t interval with a delta-method scale from the observed
    information; requires the model to expose a log-likelihood."""
    return _studentized(data, model, None, est_mle, psi, B, master,
                        replicate_id=replicate_id).at(alpha, two_sided)


def _leave_one_out(data: Dataset, i: int) -> Dataset:
    return Dataset(
        y=np.delete(data.y, i),
        X=None if data.X is None else np.delete(data.X, i, axis=0),
        censored=None if data.censored is None else np.delete(data.censored, i))


def jackknife_acceleration(data: Dataset, est: Estimator, psi) -> float | None:
    """Acceleration constant from jackknife skewness of psi at leave-one-out
    fits, or None when the jackknife is degenerate."""
    fits = []
    for i in range(data.n):
        try:
            fits.append(est.estimate(_leave_one_out(data, i)).pi)
        except ImplicitBootError:
            continue
    if len(fits) < 2:
        return None
    jack = _psi_rows(psi, fits)
    centered = np.mean(jack) - jack
    denom = np.sum(centered ** 2) ** 1.5
    if denom < 1e-300:
        return None
    return float(np.sum(centered ** 3) / (6.0 * denom))


def bca_level(z0: float, a: float, level: float, B: int) -> float:
    """Percentile level after bias correction and acceleration, clipped to
    the resolvable range of a size-B sample."""
    z = z0 + special.ndtri(level)
    adj = float(special.ndtr(z0 + z / (1.0 - a * z)))
    return min(max(adj, 1.0 / (B + 1.0)), B / (B + 1.0))


def _bca(data, model, est, base, psi, B, master, *,
         path=MatchPath.SWITCHED, cov="information", replicate_id=0):
    """BCa family; see :func:`bca_bootstrap`."""
    _warn_small_B(B)
    psi = _as_psi(psi, model)
    fit, stars, _, good = _resample_thetas(data, model, base,
                                           B, master, replicate_id)
    psi_hat = _psi_at(psi, model.box.clamp(fit))
    sample = DistributionSample(_psi_rows(psi, stars))
    Bv = sample.B
    frac = np.mean(sample.values < psi_hat)
    frac = min(max(frac, 1.0 / (Bv + 1.0)), Bv / (Bv + 1.0))
    z0 = float(special.ndtri(frac))
    a = jackknife_acceleration(data, base, psi)
    meta = {"B": Bv, "failed": int(np.sum(~good)), "z0": z0, "a": a}
    if a is None:
        warnings.warn("degenerate jackknife; falling back to plain "
                      "percentile levels", stacklevel=2)
        meta.update({"a": 0.0, "fallback": "percentile"})
        return IntervalFamily(CIMethod.BCA, psi_hat, _percentile_endpoints(sample), meta)
    return IntervalFamily(CIMethod.BCA, psi_hat, _percentile_endpoints(
        sample, lambda level: bca_level(z0, a, level, Bv)), meta)


def bca_bootstrap(data: Dataset, model: ModelSpec, est_mle: Estimator,
                  psi=None, B: int = 1000,
                  master: MasterSeed = MasterSeed(0),
                  alpha: float = 0.95, two_sided: bool = False,
                  replicate_id: int = 0) -> CIResult:
    """Bias-corrected accelerated percentile interval.

    z0 comes from the bootstrap fraction below the point estimate and the
    acceleration from jackknife skewness; a degenerate jackknife falls back
    to plain percentile levels with a warning.
    """
    return _bca(data, model, None, est_mle, psi, B, master,
                replicate_id=replicate_id).at(alpha, two_sided)


def asymptotic_components(data: Dataset, model: ModelSpec, est: Estimator,
                          psi=None, cov: str = "information",
                          master: MasterSeed = MasterSeed(0), replicate_id: int = 0):
    """Delta-method point estimate and scale: (psi_hat, sigma).

    The parameter covariance comes from the inverse observed information of
    the model log-likelihood.  With ``cov="bootstrap"`` it is instead the
    sample covariance of ``_B_COV`` parametric-bootstrap re-estimates, for
    models without a tractable likelihood.
    """
    psi = _as_psi(psi, model)
    theta_hat = est.estimate(data).pi
    psi_hat = _psi_at(psi, theta_hat)
    if cov == "bootstrap":
        seeds = derive_seeds(master, replicate_id, Role.INNER,
                             np.arange(1, _B_COV + 1), salt=1)
        U = draw_uniforms(seeds, model.noise_dim(data.n))
        stars, _, _ = _re_estimates(model.box.clamp(theta_hat), model, est, U)
        if stars.shape[0] < 2:
            raise SingularInformation("too few bootstrap draws for a covariance")
        g = _psi_gradient(psi, theta_hat[None])[0]
        var = float(g @ np.cov(stars, rowvar=False).reshape(g.size, g.size) @ g)
        sigma = math.sqrt(var) if np.isfinite(var) and var > 0.0 else math.nan
    elif cov == "information":
        if not model.has_loglik:
            raise SingularInformation(f"{model.name} has no log-likelihood")
        sigma = float(_delta_method_sigma(model, psi, theta_hat[None],
                                          _batch_of_one(data))[0])
    else:
        raise ValueError(f"unknown cov option {cov!r}")
    if math.isnan(sigma):
        raise SingularInformation(f"no {cov} variance at {theta_hat}")
    return psi_hat, sigma


def _wald(psi_hat: float, sigma: float, cov: str) -> IntervalFamily:
    def endpoints(alphas, two_sided):
        alphas = np.asarray(alphas, dtype=float)
        if two_sided:
            z = special.ndtri((1.0 + alphas) / 2.0)
            return psi_hat - z * sigma, psi_hat + z * sigma
        return (np.full(alphas.shape, -np.inf),
                psi_hat + special.ndtri(alphas) * sigma)
    return IntervalFamily(CIMethod.ASYMPTOTIC, psi_hat, endpoints,
                          {"sigma_hat": sigma, "cov": cov})


def asymptotic_ci(data: Dataset, model: ModelSpec, est: Estimator, psi=None,
                  alpha: float = 0.95, two_sided: bool = False,
                  cov: str = "information", master: MasterSeed = MasterSeed(0),
                  replicate_id: int = 0) -> CIResult:
    """Wald interval via the delta method; see :func:`asymptotic_components`."""
    psi_hat, sigma = asymptotic_components(data, model, est, psi, cov,
                                           master, replicate_id)
    return _wald(psi_hat, sigma, cov).at(alpha, two_sided)


# ---------------------------------------------------------------------------
# The method registry.  Every entry takes the same arguments: ``est`` is the
# auxiliary estimator the implicit method matches, ``base`` the consistent
# estimator the baselines fit, ``path`` the matching path and ``cov`` the
# Wald covariance source.  Entries look the one-level engines up by module
# name at call time, so wrappers installed on those names see their calls.

def _implicit(data, model, est, base, psi, B, master, *,
              path=MatchPath.SWITCHED, cov="information", replicate_id=0):
    sample, ci = implicit_bootstrap(data, model, est, psi, B, master,
                                    path=path, replicate_id=replicate_id)
    return IntervalFamily(CIMethod.IMPLICIT, ci.point, _percentile_endpoints(sample),
                          ci.meta, ci.meta["mean_delta"])


def _percentile(data, model, est, base, psi, B, master, *,
                path=MatchPath.SWITCHED, cov="information", replicate_id=0):
    sample, ci = percentile_parametric_bootstrap(
        data, model, base, psi, B, master, replicate_id=replicate_id)
    return IntervalFamily(CIMethod.PERCENTILE, ci.point,
                          _percentile_endpoints(sample), ci.meta)


def _asymptotic(data, model, est, base, psi, B, master, *,
                path=MatchPath.SWITCHED, cov="information", replicate_id=0):
    psi_hat, sigma = asymptotic_components(data, model, base, psi, cov=cov,
                                           master=master,
                                           replicate_id=replicate_id)
    return _wald(psi_hat, sigma, cov)


METHOD_REGISTRY = {
    CIMethod.IMPLICIT.value: _implicit,
    CIMethod.PERCENTILE.value: _percentile,
    CIMethod.STUDENTIZED.value: _studentized,
    CIMethod.BCA.value: _bca,
    CIMethod.ASYMPTOTIC.value: _asymptotic,
}


def indirect_inference_correct(data: Dataset, model: ModelSpec,
                               est: Estimator, H: int = 50,
                               master: MasterSeed = MasterSeed(0),
                               replicate_id: int = 0) -> ParamVector:
    """Bias-correct an estimator by matching its simulated average.

    Solves mean_h est(simulate(theta, W_h)) = pi_obs over the parameter box
    with H frozen noise blocks, by :func:`matcher._newton` on one row whose
    noise row holds all H blocks.  It starts at the observed estimate and,
    while the gap exceeds 1e-8, restarts from the box centre and then the
    midpoint of the two, as the switched matcher does.  The estimator must
    have the parameter's dimension (a square system).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    pi_obs = est.estimate(data)
    pi = pi_obs.pi
    if pi.shape[0] != model.p:
        raise DomainError(f"{est.name} estimates {pi.shape[0]} values; "
                          f"indirect inference needs the model's {model.p}")
    m = model.noise_dim(data.n)
    seeds = derive_seeds(master, replicate_id, Role.INNER,
                         np.arange(1, H + 1), salt=2)
    V = draw_uniforms(seeds, m)[None]
    transform = BoxTransform(model.box)

    def gap(t, V):
        """The averaged gap at each row of ``t`` on its H noise blocks;
        1e10 where a simulated sample has no estimate."""
        k = t.shape[0]
        sim = model.simulate_batch(np.repeat(transform.to_box(t), H, axis=0),
                                   V.reshape(k * H, m))
        out = np.mean(est.estimate_batch(sim).reshape(k, H, -1), axis=1) - pi
        return np.where(np.isfinite(out), out, 1e10)

    t0 = transform.to_unconstrained(model.box.clamp(pi))
    center = transform.to_unconstrained(transform.center())
    best_t, best_f = t0, math.inf
    for start in (t0, center, 0.5 * (t0 + center)):
        t, _ = _newton(gap, start[None].copy(), V)
        f = float(np.linalg.norm(gap(t, V)))
        if f < best_f:
            best_t, best_f = t[0], f
        if best_f <= _TOL_DELTA:
            break
    scale = 1.0 + float(np.linalg.norm(pi))
    if best_f > 1e-4 * scale:
        raise NonConvergence(f"indirect-inference gap {best_f:.3g} after "
                             "Newton from three starts")
    return model.param(transform.to_box(best_t))
