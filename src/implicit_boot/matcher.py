"""Solve the bootstrap matching problem.

Three routes return a :class:`MatchResult`:

* ``nested_match`` -- derivative-free minimization of the auxiliary-estimate
  gap, re-estimating on every candidate's simulated sample;
* ``switched_match`` -- for Z-estimators, solve the simulated estimating
  equation at the observed auxiliary value (one estimation total);
* ``closed_form_match`` -- exact algebra for the uniform-scale, Pareto and
  boundary-mean examples.

``batched_switched_match`` solves the switched problems of all B noise
blocks of a replicate together, through the model's ``simulate_batch`` and
the estimator's ``z_batch``; every Z-estimator takes it.

All candidate evaluations inside one solve reuse the same noise block, so the
objective is a deterministic function of the parameter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from . import exact
from .errors import ImplicitBootError, NoZFunction
from .estimators import AuxEstimate, Estimator
from .models import ModelSpec
from .rng import RandomBlock

__all__ = [
    "MatchPath",
    "InitRule",
    "SolverConfig",
    "MatchResult",
    "BoxTransform",
    "nested_match",
    "switched_match",
    "closed_form_match",
    "batched_switched_match",
]


class MatchPath(enum.Enum):
    NESTED = "nested"
    SWITCHED = "switched"
    CLOSED_FORM = "closed_form"


class InitRule(enum.Enum):
    AT_PI_HAT = "at_pi_hat"
    AT_BOX_CENTER = "at_box_center"
    USER = "user"


@dataclass(frozen=True)
class SolverConfig:
    tol_delta: float = 1e-8
    tol_x: float = 1e-10
    max_evals: int | None = None  # defaults to 2000 * p
    restarts: int = 3
    init_rule: InitRule = InitRule.AT_PI_HAT
    init: np.ndarray | None = None

    def budget(self, p: int) -> int:
        return self.max_evals if self.max_evals is not None else 2000 * p


@dataclass(frozen=True)
class MatchResult:
    theta_check: np.ndarray
    delta: float
    objective_evals: int
    converged: bool
    path: MatchPath

    def __post_init__(self):
        t = np.asarray(self.theta_check, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "theta_check", t)


class BoxTransform:
    """Smooth bijection between a box and unconstrained coordinates.

    Per coordinate: identity when unbounded, a shifted log for one-sided
    bounds, a scaled logistic for two-sided bounds.
    """

    _CLIP = 700.0  # keeps exp() finite

    def __init__(self, box):
        self.box = box
        self.lo = box.lower
        self.hi = box.upper
        self.two_sided = np.isfinite(self.lo) & np.isfinite(self.hi)
        self.lower_only = np.isfinite(self.lo) & ~np.isfinite(self.hi)
        self.upper_only = ~np.isfinite(self.lo) & np.isfinite(self.hi)

    def to_box(self, t: np.ndarray) -> np.ndarray:
        """Map unconstrained coordinates into the box (last axis = coordinate)."""
        t = np.clip(np.asarray(t, dtype=float), -self._CLIP, self._CLIP)
        x = t.copy()
        ts, lo_, up_ = self.two_sided, self.lower_only, self.upper_only
        if ts.any():
            width = self.hi[ts] - self.lo[ts]
            x[..., ts] = self.lo[ts] + width / (1.0 + np.exp(-t[..., ts]))
        if lo_.any():
            x[..., lo_] = self.lo[lo_] + np.exp(t[..., lo_])
        if up_.any():
            x[..., up_] = self.hi[up_] - np.exp(t[..., up_])
        return x

    def to_unconstrained(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = x.copy()
        ts, lo_, up_ = self.two_sided, self.lower_only, self.upper_only
        if ts.any():
            frac = (x[..., ts] - self.lo[ts]) / (self.hi[ts] - self.lo[ts])
            frac = np.clip(frac, 1e-15, 1.0 - 1e-15)
            t[..., ts] = np.log(frac / (1.0 - frac))
        if lo_.any():
            t[..., lo_] = np.log(np.maximum(x[..., lo_] - self.lo[lo_], 1e-300))
        if up_.any():
            t[..., up_] = np.log(np.maximum(self.hi[up_] - x[..., up_], 1e-300))
        return t

    def center(self) -> np.ndarray:
        return self.to_box(np.zeros(self.lo.shape[0]))


def _initial_theta(cfg: SolverConfig, pi_obs: AuxEstimate, model: ModelSpec,
                   transform: BoxTransform) -> np.ndarray:
    if cfg.init_rule is InitRule.USER:
        if cfg.init is None:
            raise ValueError("init_rule=USER requires cfg.init")
        return np.asarray(cfg.init, dtype=float)
    if cfg.init_rule is InitRule.AT_PI_HAT and pi_obs.pi.shape[0] == model.p:
        return model.box.clamp(pi_obs.pi)
    return transform.center()


class _CountingObjective:
    """Wraps a theta-space objective for unconstrained coordinates, counting
    evaluations and absorbing estimator failures into a large penalty."""

    PENALTY = 1e10

    def __init__(self, fn, transform, dim=None):
        self.fn = fn
        self.transform = transform
        self.dim = dim
        self.evals = 0

    def __call__(self, t):
        self.evals += 1
        theta = self.transform.to_box(t)
        try:
            out = self.fn(theta)
        except ImplicitBootError:
            return (self.PENALTY if self.dim is None
                    else np.full(self.dim, self.PENALTY))
        if self.dim is None:
            return out
        out = np.atleast_1d(np.asarray(out, dtype=float))
        return np.where(np.isfinite(out), out, self.PENALTY)


def nested_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                 w_star: RandomBlock, cfg: SolverConfig = SolverConfig()) -> MatchResult:
    """Minimize the gap between observed and simulated auxiliary estimates."""
    transform = BoxTransform(model.box)

    def gap(theta):
        pi_star = est.estimate(model.simulate(theta, w_star)).pi
        return float(np.linalg.norm(pi_obs.pi - pi_star))

    objective = _CountingObjective(gap, transform)
    t0 = transform.to_unconstrained(_initial_theta(cfg, pi_obs, model, transform))
    f0 = objective(t0)
    best_t, best_f = t0, f0
    if f0 == 0.0:
        return MatchResult(transform.to_box(t0), 0.0, objective.evals, True,
                           MatchPath.NESTED)

    budget = cfg.budget(model.p)
    per_restart = max(budget // max(cfg.restarts, 1), 50)
    step = 0.25
    for _ in range(max(cfg.restarts, 1)):
        simplex = np.vstack([best_t, best_t + step * np.eye(best_t.shape[0])])
        res = optimize.minimize(
            objective, best_t, method="Nelder-Mead",
            options={"initial_simplex": simplex, "adaptive": True,
                     "xatol": min(cfg.tol_x, 1e-10), "fatol": 1e-13,
                     "maxfev": per_restart})
        if res.fun < best_f or (res.fun == best_f
                                and tuple(res.x) < tuple(best_t)):
            best_t, best_f = res.x, float(res.fun)
        step *= 0.05
        if best_f <= cfg.tol_delta:
            break
        if objective.evals >= budget:
            break
    theta = transform.to_box(best_t)
    return MatchResult(theta, best_f, objective.evals,
                       best_f <= cfg.tol_delta, MatchPath.NESTED)


def switched_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                   w_star: RandomBlock, cfg: SolverConfig = SolverConfig()) -> MatchResult:
    """Solve the simulated estimating equation at the observed auxiliary value.

    The reported residual is recomputed as the auxiliary-estimate gap so the
    two matching paths are directly comparable.
    """
    if not est.has_z:
        raise NoZFunction(f"{est.name} exposes no Z-function")
    transform = BoxTransform(model.box)

    def zres(theta):
        return np.asarray(est.z(model.simulate(theta, w_star), pi_obs.pi), dtype=float)

    objective = _CountingObjective(zres, transform, dim=model.p)
    t0 = transform.to_unconstrained(_initial_theta(cfg, pi_obs, model, transform))
    z0 = objective(t0)

    def gap(theta):
        pi_star = est.estimate(model.simulate(theta, w_star)).pi
        return float(np.linalg.norm(pi_obs.pi - pi_star))

    if np.all(z0 == 0.0):
        theta = transform.to_box(t0)
        return MatchResult(theta, gap(theta), objective.evals + 1, True,
                           MatchPath.SWITCHED)

    vec = objective

    center_t = transform.to_unconstrained(transform.center())
    starts = [t0, center_t, 0.5 * (t0 + center_t)]
    best_t, best_norm = t0, float(np.linalg.norm(z0))
    for s in starts:
        sol = optimize.root(vec, s, method="hybr", options={"xtol": 1e-13})
        norm = float(np.linalg.norm(vec(sol.x)))
        if norm < best_norm:
            best_t, best_norm = sol.x, norm
        if best_norm <= 1e-9:
            break
    if best_norm > 1e-9:
        # derivative-free fallback, then a finite-difference Gauss-Newton polish
        nm_from = best_t if best_norm < _CountingObjective.PENALTY else center_t
        nm = optimize.minimize(lambda t: float(np.linalg.norm(vec(t))), nm_from,
                               method="Nelder-Mead",
                               options={"adaptive": True, "xatol": 1e-10,
                                        "fatol": 1e-13,
                                        "maxfev": cfg.budget(model.p)})
        ls = optimize.least_squares(vec, nm.x, method="lm", xtol=1e-13, ftol=1e-13)
        cand_norm = float(np.linalg.norm(vec(ls.x)))
        if cand_norm < best_norm:
            best_t, best_norm = ls.x, cand_norm
    theta = transform.to_box(best_t)
    try:
        delta = gap(theta)
    except ImplicitBootError:
        delta = float("inf")
    objective.evals += 1
    return MatchResult(theta, delta, objective.evals,
                       delta <= cfg.tol_delta, MatchPath.SWITCHED)


def closed_form_match(example: str, pi_obs: AuxEstimate, w_star_summary) -> MatchResult:
    """Exact algebraic matching solution, parameterized by the observed
    auxiliary value only (the true parameter never enters).

    ``w_star_summary`` is one simulated noise summary or a (B, k) stack of
    them: the sample maximum of n uniforms (uniform example), the pair (max
    of n reversed uniforms, canonical shape estimate) for the Pareto example,
    or the scalar normal mean for the boundary-mean example.  The formulas
    are :func:`exact.exact_theta_check_batch`; ``theta_check`` has shape
    (p,) for one summary and (B, p) for a stack.
    """
    stats = np.asarray(w_star_summary, dtype=float)
    theta = exact.exact_theta_check_batch(example, pi_obs, stats)
    return MatchResult(theta if stats.ndim == 2 else theta[0], 0.0, 0, True,
                       MatchPath.CLOSED_FORM)


def batched_switched_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                           U: np.ndarray, cfg: SolverConfig = SolverConfig(),
                           max_iter: int = 60):
    """Solve all B switched matching problems of one replicate together.

    ``U`` holds the B noise blocks as rows.  A damped Newton iteration with a
    finite-difference Jacobian runs on the unconstrained coordinates of the
    whole batch, then again from the median of the solved rows for the rest.
    A row still unsolved goes to the scalar solver only when its iterate has
    no re-estimate (a non-finite gap) or its last Jacobian was zero; the
    others keep their batched iterate and come back unconverged.
    Returns ``(thetas (B,p), deltas (B,), converged (B,), row_evals)``.
    """
    if not est.has_z:
        raise NoZFunction(f"{est.name} exposes no Z-function")
    B = U.shape[0]
    p = model.p
    transform = BoxTransform(model.box)
    pi = pi_obs.pi
    evals = 0
    flat = np.zeros(B, dtype=bool)  # the row's last Jacobian was zero

    def zfun(t, rows):
        nonlocal evals
        evals += t.shape[0]
        thetas = transform.to_box(t)
        z = np.asarray(est.z_batch(model.simulate_batch(thetas, U[rows]), pi),
                       dtype=float)
        return np.where(np.isfinite(z), z, 1e8)

    def newton_pass(t, active):
        h = 1e-7
        for _ in range(max_iter):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            ta = t[rows]
            z = zfun(ta, rows)
            norms = np.linalg.norm(z, axis=1)
            done = norms < 1e-11
            if done.any():
                active[rows[done]] = False
                keep = ~done
                rows, ta, z, norms = rows[keep], ta[keep], z[keep], norms[keep]
                if rows.size == 0:
                    break
            J = np.empty((rows.size, p, p))
            for j in range(p):
                tp = ta.copy()
                tp[:, j] += h
                J[:, :, j] = (zfun(tp, rows) - z) / h
            flat[rows] = np.all(J == 0.0, axis=(1, 2))
            try:
                dx = -np.linalg.solve(J, z[..., None])[..., 0]
            except np.linalg.LinAlgError:
                dx = np.stack([-np.linalg.lstsq(J[i], z[i], rcond=None)[0]
                               for i in range(rows.size)])
            bad = ~np.all(np.isfinite(dx), axis=1)
            if bad.any():
                dx[bad] = 0.0
                active[rows[bad]] = False  # unsolved; see the retry rule below
            big = np.max(np.abs(dx), axis=1)
            scale = np.where(big > 4.0, 4.0 / np.maximum(big, 1e-300), 1.0)
            dx *= scale[:, None]
            # backtracking: halve steps on rows whose residual would grow
            step = np.ones(rows.size)
            for _ in range(6):
                znew = zfun(ta + step[:, None] * dx, rows)
                worse = np.linalg.norm(znew, axis=1) > norms
                if not worse.any():
                    break
                step[worse] *= 0.5
            t[rows] = ta + step[:, None] * dx
        return t

    def solved_rows(t):
        z = zfun(t, np.arange(B))
        return np.linalg.norm(z, axis=1) < 1e-9 * max(1.0, float(np.linalg.norm(pi)))

    t0 = transform.to_unconstrained(_initial_theta(cfg, pi_obs, model, transform))
    t = newton_pass(np.tile(t0, (B, 1)), np.ones(B, dtype=bool))
    ok = solved_rows(t)

    # The solutions of one batch cluster: a second pass started from the
    # coordinate-wise median of the solved rows rescues most strays.
    if ok.any() and not ok.all():
        t_med = np.median(t[ok], axis=0)
        t[~ok] = t_med
        t = newton_pass(t, ~ok)
        ok = solved_rows(t)

    thetas = transform.to_box(t)
    deltas = _batch_deltas(pi_obs, model, est, thetas, U)

    # Scalar retry only for unsolved rows whose iterate has no re-estimate
    # (a non-finite gap) or no Newton direction (a zero Jacobian).  An
    # unsolved row with a finite gap and a direction sits on a likelihood
    # ridge where no finite solution exists: any solver walks the same ridge,
    # so it keeps its batched iterate and stays unconverged.  On 300
    # criterion-6 Lomax replicates (n=50, B=500) the retry of every unsolved
    # row ran 919 times and rescued one row, the only one with an infinite
    # gap; the n=100 config retried 59 rows and rescued none.  A zero
    # Jacobian is a flat equation, such as the censored mean's where the
    # simulated mean is negative: the scalar solver's box-centre start
    # leaves it.
    cheap = replace(cfg, restarts=1, max_evals=300 * p)
    replaced = []
    for i in np.nonzero(~ok & (~np.isfinite(deltas) | flat))[0]:
        try:
            res = switched_match(pi_obs, model, est, RandomBlock(u=U[i]), cheap)
        except ImplicitBootError:
            continue
        evals += res.objective_evals
        if res.delta < deltas[i]:
            thetas[i] = res.theta_check
            replaced.append(i)
    if replaced:
        deltas[replaced] = _batch_deltas(pi_obs, model, est, thetas[replaced],
                                         U[replaced])
    converged = deltas <= cfg.tol_delta
    return thetas, deltas, converged, evals


def _batch_deltas(pi_obs, model, est, thetas, U):
    """Matching residuals for a batch of solved draws.

    Uses the batched re-estimate when available; otherwise a first-order
    residual through the finite-difference sensitivity of the Z-function in
    its auxiliary argument (exact in the limit of a solved equation).
    """
    sim = model.simulate_batch(thetas, U)
    if hasattr(est, "estimate_batch"):
        pi_star = np.asarray(est.estimate_batch(sim), dtype=float)
        gaps = np.linalg.norm(pi_star - pi_obs.pi, axis=1)
        return np.where(np.isfinite(gaps), gaps, np.inf)
    pi = pi_obs.pi
    p = pi.shape[0]
    z0 = np.asarray(est.z_batch(sim, pi), dtype=float)
    h = 1e-6
    G = np.empty((U.shape[0], p, p))
    for j in range(p):
        pj = pi.copy()
        pj[j] += h * (1.0 + abs(pj[j]))
        G[:, :, j] = (np.asarray(est.z_batch(sim, pj), dtype=float) - z0) \
            / (h * (1.0 + abs(pi[j])))
    try:
        gap = np.linalg.solve(G, z0[..., None])[..., 0]
    except np.linalg.LinAlgError:
        gap = np.stack([np.linalg.lstsq(G[i], z0[i], rcond=None)[0]
                        for i in range(U.shape[0])])
    gap = np.where(np.isfinite(gap), gap, np.inf)
    return np.linalg.norm(gap, axis=1)
