"""Solve the bootstrap matching problem.

Three routes return a :class:`MatchResult`:

* ``nested_match`` -- derivative-free minimization of the auxiliary-estimate
  gap, re-estimating on every candidate's simulated sample;
* ``switched_match`` -- for Z-estimators, solve the simulated estimating
  equation at the observed auxiliary value (one estimation total); it is
  ``batched_switched_match`` on a batch of one;
* ``closed_form_match`` -- exact algebra for the uniform-scale, Pareto and
  boundary-mean examples.

``batched_switched_match`` solves the switched problems of all B noise
blocks of a replicate together, through the model's ``simulate_batch`` and
the estimator's ``z_batch``, and scores each draw by its auxiliary-estimate
gap, re-estimated by ``estimate_batch``; it is the one switched solver.
Its root-finder, ``_newton``, is the package's one Newton iteration: the
indirect-inference correction in ``engines`` solves on it too.

All candidate evaluations inside one solve reuse the same noise block, so the
objective is a deterministic function of the parameter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import exact
from .errors import ImplicitBootError, NoZFunction
from .estimators import AuxEstimate, Estimator
from .models import ModelSpec
from .rng import RandomBlock

__all__ = [
    "MatchPath",
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


_TOL_DELTA = 1e-8  # matching gap at or below which a draw counts as solved
_TOL_X = 1e-10  # Nelder-Mead's parameter tolerance in the nested path
_RESTARTS = 3  # Nelder-Mead restarts of the nested path
_EVALS_PER_P = 2000  # its evaluation budget per parameter
_MAX_ITER = 60  # iterations per Newton pass


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


def _initial_theta(pi_obs: AuxEstimate, model: ModelSpec,
                   transform: BoxTransform) -> np.ndarray:
    """The observed estimate pulled inside the box when it has the
    parameter's dimension, else the box centre."""
    if pi_obs.pi.shape[0] == model.p:
        return model.box.clamp(pi_obs.pi)
    return transform.center()


def nested_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                 w_star: RandomBlock, init=None) -> MatchResult:
    """Minimize the gap between observed and simulated auxiliary estimates,
    from ``init`` when given."""
    transform = BoxTransform(model.box)
    evals = 0

    def objective(t):
        """The gap at unconstrained ``t``; an estimator failure scores 1e10."""
        nonlocal evals
        evals += 1
        try:
            # overflow and 0/0 at a far-off candidate come back as non-finite
            # values, without a warning
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                pi_star = est.estimate(model.simulate(transform.to_box(t),
                                                      w_star)).pi
                return float(np.linalg.norm(pi_obs.pi - pi_star))
        except ImplicitBootError:
            return 1e10

    start = (_initial_theta(pi_obs, model, transform) if init is None
             else np.asarray(init, dtype=float))
    t0 = transform.to_unconstrained(start)
    f0 = objective(t0)
    best_t, best_f = t0, f0
    if f0 == 0.0:
        return MatchResult(transform.to_box(t0), 0.0, evals, True,
                           MatchPath.NESTED)

    budget = _EVALS_PER_P * model.p
    per_restart = budget // _RESTARTS
    step = 0.25
    for _ in range(_RESTARTS):
        simplex = np.vstack([best_t, best_t + step * np.eye(best_t.shape[0])])
        res = optimize.minimize(
            objective, best_t, method="Nelder-Mead",
            options={"initial_simplex": simplex, "adaptive": True,
                     "xatol": _TOL_X, "fatol": 1e-13,
                     "maxfev": per_restart})
        if res.fun < best_f or (res.fun == best_f
                                and tuple(res.x) < tuple(best_t)):
            best_t, best_f = res.x, float(res.fun)
        step *= 0.05
        if best_f <= _TOL_DELTA:
            break
        if evals >= budget:
            break
    theta = transform.to_box(best_t)
    return MatchResult(theta, best_f, evals, best_f <= _TOL_DELTA,
                       MatchPath.NESTED)


def switched_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                   w_star: RandomBlock) -> MatchResult:
    """Solve the simulated estimating equation at the observed auxiliary value.

    The batched solve on a batch of one.  The reported residual is then
    recomputed as the auxiliary-estimate gap of the checked simulation, so
    the two matching paths are directly comparable and a solution outside
    the model's region (say, an unstable M/G/1 queue) comes back with an
    infinite gap, unconverged.
    """
    thetas, _, _, evals = batched_switched_match(pi_obs, model, est,
                                                 w_star.u[None])
    try:
        pi_star = est.estimate(model.simulate(thetas[0], w_star)).pi
        delta = float(np.linalg.norm(pi_obs.pi - pi_star))
    except ImplicitBootError:
        delta = float("inf")
    return MatchResult(thetas[0], delta, evals + 1, delta <= _TOL_DELTA,
                       MatchPath.SWITCHED)


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


def _newton(f, t, V):
    """Damped Newton on every row of ``t``, row i solving ``f`` on noise row
    ``V[i]``.

    ``f(ta, Va)`` maps k rows of unconstrained coordinates and their k noise
    rows to the (k, p) residuals; a row's residual must not depend on the
    other rows of the call.  The Jacobian is a forward difference (step
    1e-7).  A step is capped at 4 in any coordinate and tried at most six
    times, halved after each trial whose residual norm would grow; a row
    still worse at the sixth trial takes the untried 1/64 step.  Each trial
    scores only the rows still worse, and an accepted trial's residual is
    the next iteration's base, so no point of a row is scored twice.  A row
    stops once its norm is below 1e-11, its step is not finite, its
    Jacobian is zero, or after ``_MAX_ITER`` iterations.  Updates ``t`` in
    place; returns it and whether each row stopped on a zero Jacobian.
    """
    p = t.shape[1]
    active = np.ones(t.shape[0], dtype=bool)
    flat = np.zeros(t.shape[0], dtype=bool)
    carried = np.zeros(t.shape[0], dtype=bool)  # zs holds the row's residual
    zs = np.empty(t.shape)
    h = 1e-7
    for _ in range(_MAX_ITER):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        ta, Va = t[rows], V[rows]
        fresh = ~carried[rows]
        if fresh.all():
            z = f(ta, Va)  # Va itself keeps the noise memo for the columns
        else:
            z = zs[rows]
            if fresh.any():
                z[fresh] = f(ta[fresh], Va[fresh])
        carried[rows] = False
        norms = np.linalg.norm(z, axis=1)
        done = norms < 1e-11
        if done.any():
            active[rows[done]] = False
            keep = ~done
            rows, ta, Va, z, norms = (rows[keep], ta[keep], Va[keep],
                                      z[keep], norms[keep])
            if rows.size == 0:
                break
        J = np.empty((rows.size, p, p))
        for j in range(p):
            tp = ta.copy()
            tp[:, j] += h
            J[:, :, j] = (f(tp, Va) - z) / h
        zero = np.all(J == 0.0, axis=(1, 2))
        if zero.any():
            # no Newton direction: the row would never move again
            flat[rows[zero]] = True
            active[rows[zero]] = False
            keep = ~zero
            rows, ta, Va, z, norms, J = (rows[keep], ta[keep], Va[keep],
                                         z[keep], norms[keep], J[keep])
            if rows.size == 0:
                break
        try:
            dx = -np.linalg.solve(J, z[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dx = np.stack([-np.linalg.lstsq(J[i], z[i], rcond=None)[0]
                           for i in range(rows.size)])
        bad = ~np.all(np.isfinite(dx), axis=1)
        if bad.any():
            dx[bad] = 0.0
            active[rows[bad]] = False  # unsolved; the caller may restart it
        big = np.max(np.abs(dx), axis=1)
        scale = np.where(big > 4.0, 4.0 / np.maximum(big, 1e-300), 1.0)
        dx *= scale[:, None]
        # backtracking: halve the steps of the rows whose residual would grow
        step = np.ones(rows.size)
        trial = np.flatnonzero(~bad)
        for _ in range(6):
            if trial.size == 0:
                break
            # the whole set passes Va itself, which keeps the noise memo
            znew = f(ta[trial] + step[trial, None] * dx[trial],
                     Va if trial.size == rows.size else Va[trial])
            worse = np.linalg.norm(znew, axis=1) > norms[trial]
            accepted = rows[trial[~worse]]
            zs[accepted] = znew[~worse]
            carried[accepted] = True
            trial = trial[worse]
            step[trial] *= 0.5
        t[rows] = ta + step[:, None] * dx
    return t, flat


def batched_switched_match(pi_obs: AuxEstimate, model: ModelSpec, est: Estimator,
                           U: np.ndarray):
    """Solve all B switched matching problems of one replicate together.

    ``U`` holds the B noise blocks as rows.  The damped Newton iteration
    :func:`_newton` runs on the unconstrained coordinates of the whole batch,
    then again from the median of the solved rows for the rest.  A row still
    unsolved restarts, by the same iteration, from the box centre and then
    from the midpoint of the first start and the centre, but only when its
    iterate has no re-estimate (a non-finite gap) or it stopped on a zero
    Jacobian; the others keep their iterate and come back unconverged.

    Within one solve, the model's ``noise_batch`` is computed again only
    when the noise rows are a different array or the parameter moved on
    ``noise_coords``: a Newton iteration's Jacobian columns in the other
    coordinates share one, and for noise that reads no coordinate (the
    M/G/1 queue) so does a backtracking trial of all the iteration's rows.
    The iteration's base is carried forward from the previous trial, so for
    the censored t the first (beta, sigma) column inverts the t CDF and the
    other five reuse its quantiles.
    Returns ``(thetas (B,p), deltas (B,), converged (B,), row_evals)``.
    """
    if not est.has_z:
        raise NoZFunction(f"{est.name} exposes no Z-function")
    B = U.shape[0]
    transform = BoxTransform(model.box)
    pi = pi_obs.pi
    coords = list(model.noise_coords)
    evals = 0
    memo_V = memo_key = memo_noise = None  # the last noise_batch call

    def zfun(t, V):
        nonlocal evals, memo_V, memo_key, memo_noise
        evals += t.shape[0]
        thetas = transform.to_box(t)
        key = thetas[:, coords]
        if V is not memo_V or key.tobytes() != memo_key.tobytes():
            memo_V, memo_key, memo_noise = V, key, model.noise_batch(thetas, V)
        z = np.asarray(est.z_batch(model.simulate_batch(thetas, V,
                                                        noise=memo_noise),
                                   pi), dtype=float)
        return np.where(np.isfinite(z), z, 1e8)

    def solved_rows(t):
        z = zfun(t, U)
        return np.linalg.norm(z, axis=1) < 1e-9 * max(1.0, float(np.linalg.norm(pi)))

    t0 = transform.to_unconstrained(_initial_theta(pi_obs, model, transform))
    t, flat = _newton(zfun, np.tile(t0, (B, 1)), U)
    ok = solved_rows(t)

    # The solutions of one batch cluster: a second pass started from the
    # coordinate-wise median of the solved rows rescues most strays.
    if ok.any() and not ok.all():
        t_med = np.median(t[ok], axis=0)
        t[~ok], flat[~ok] = _newton(zfun, np.tile(t_med, (B - ok.sum(), 1)),
                                    U[~ok])
        ok = solved_rows(t)

    thetas = transform.to_box(t)
    deltas = _batch_deltas(pi_obs, model, est, thetas, U)

    # Restart only unsolved rows whose iterate has no re-estimate (a
    # non-finite gap) or no Newton direction (a zero Jacobian).  An unsolved
    # row with a finite gap and a direction sits on a likelihood ridge where
    # no finite solution exists: any start walks the same ridge, so it keeps
    # its iterate and stays unconverged.  On 300 criterion-6 Lomax
    # replicates (n=50, B=500) a retry of every unsolved row ran 919 times
    # and rescued one row, the only one with an infinite gap.  A zero
    # Jacobian is a flat equation, such as the censored mean's where the
    # simulated mean is negative: a start at the box centre leaves it.  A
    # restart's iterate replaces the row's only if its gap is smaller.
    center = transform.to_unconstrained(transform.center())
    retry = np.flatnonzero(~ok & (~np.isfinite(deltas) | flat))
    for start in (center, 0.5 * (t0 + center)):
        if retry.size == 0:
            break
        t_r, _ = _newton(zfun, np.tile(start, (retry.size, 1)), U[retry])
        thetas_r = transform.to_box(t_r)
        deltas_r = _batch_deltas(pi_obs, model, est, thetas_r, U[retry])
        better = deltas_r < deltas[retry]
        thetas[retry[better]] = thetas_r[better]
        deltas[retry[better]] = deltas_r[better]
        retry = retry[deltas[retry] > _TOL_DELTA]
    converged = deltas <= _TOL_DELTA
    return thetas, deltas, converged, evals


def _batch_deltas(pi_obs, model, est, thetas, U):
    """Matching residuals for a batch of solved draws: the norm of the gap
    between the observed auxiliary estimate and the re-estimate on each
    draw's simulated sample, inf where that sample has no estimate."""
    sim = model.simulate_batch(thetas, U)
    gaps = np.linalg.norm(est.estimate_batch(sim) - pi_obs.pi, axis=1)
    return np.where(np.isfinite(gaps), gaps, np.inf)
