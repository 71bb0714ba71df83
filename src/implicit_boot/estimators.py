"""Initial estimators: deliberately simple, possibly inconsistent.

Every estimator writes its fit once, as ``estimate_batch(batch)``: B
samples in, their (B, p) estimates out, NaN rows for samples without one,
each row independent of the rows that share its batch.  ``estimate(data)``
is that fit on a batch of one; only the three closed forms write their own.
The naive and censored t and the Frechet fits climb by one row-stable
damped-Newton ascent, :func:`_ascent`.  Z-estimators also expose
``z_batch(batch, pi)``, the estimating-equation residual of every sample,
which enables the switched matching path; ``z(data, pi)`` is that residual
on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, EmptyData, NonConvergence
from .models import (BatchDataset, Dataset, _batch_of_one,
                     _censored_t_loglik_grad, _linear_predictor)

__all__ = [
    "AuxEstimate",
    "Estimator",
    "SampleMaxEstimator",
    "ParetoMLE",
    "CensoredMeanEstimator",
    "LomaxMLE",
    "LomaxNaiveWMLE",
    "StudentTNaiveMLE",
    "StudentTCensoredMLE",
    "FrechetMLE",
    "lomax_score",
    "lomax_fisher_information",
    "HUBER_CUTOFF",
]

# Conventional high-efficiency Huber cut-off for a 2-dim score,
# sqrt(scipy.stats.chi2.ppf(0.95, 2)) to the last bit; written out because
# importing scipy.stats costs a third of a second at start-up.
HUBER_CUTOFF = 2.447746830680816


@dataclass(frozen=True)
class AuxEstimate:
    """Value of an initial estimator."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)


class Estimator:
    """Interface: a deterministic batched fit, optionally a Z-function.

    An estimator writes its fit once, as ``estimate_batch``: a
    :class:`BatchDataset` of B samples in, the (B, p) estimates out, NaN
    rows for samples without one.  ``estimate`` is that fit on a batch of
    one, raising :class:`NonConvergence` on a NaN row.  A Z-estimator writes
    its estimating equation once, as ``z_batch``: a batch and one auxiliary
    value in, the (B, p) residuals out.  ``z`` is that equation on a batch
    of one.
    """

    name: str = ""
    no_fit: str = "no fit for the sample"  # why a NaN row has no estimate

    def estimate_batch(self, batch: BatchDataset) -> np.ndarray:
        raise NotImplementedError

    def estimate(self, data: Dataset) -> AuxEstimate:
        self._check_size(data)
        pi = self.estimate_batch(_batch_of_one(data))[0]
        if not np.all(np.isfinite(pi)):
            raise NonConvergence(f"{self.name}: {self.no_fit}")
        return AuxEstimate(pi=pi)

    def _check_size(self, data: Dataset) -> None:
        """Raise when ``data`` is too small for any fit."""

    def z_batch(self, batch: BatchDataset, pi: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name} has no Z-function")

    @property
    def has_z(self) -> bool:
        return type(self).z_batch is not Estimator.z_batch

    def z(self, data: Dataset, pi: np.ndarray) -> np.ndarray:
        return self.z_batch(_batch_of_one(data), pi)[0]


class SampleMaxEstimator(Estimator):
    """pi_hat = y_(n); the scale estimator for the uniform model."""

    name = "sample_max"

    def estimate(self, data):
        if data.n < 1:
            raise EmptyData("sample maximum of an empty sample")
        return AuxEstimate(pi=np.array([np.max(data.y)]))

    def z_batch(self, batch, pi):
        return np.max(batch.y, axis=1, keepdims=True) - pi[0]

    def estimate_batch(self, batch):
        return np.max(batch.y, axis=1, keepdims=True)


class ParetoMLE(Estimator):
    """Closed-form Pareto MLE: mu_hat = y_(1), alpha_hat = n / sum log(y/y_(1))."""

    name = "pareto_mle"

    def estimate(self, data):
        if data.n < 2:
            raise EmptyData("Pareto MLE needs n >= 2")
        y = data.y
        mu = float(np.min(y))
        denom = float(np.sum(np.log(y / mu)))
        if denom <= 0.0:
            raise DegenerateSample("all observations equal; shape not identified")
        return AuxEstimate(pi=np.array([mu, data.n / denom]))

    def estimate_batch(self, batch):
        y = batch.y
        mu = np.min(y, axis=1, keepdims=True)
        alpha = y.shape[1] / np.sum(np.log(y / mu), axis=1, keepdims=True)
        return np.hstack([mu, alpha])

    def z_batch(self, batch, pi):
        return self.estimate_batch(batch) - np.asarray(pi, dtype=float)


class CensoredMeanEstimator(Estimator):
    """pi_hat = max(mean(y), 0); the boundary-respecting mean."""

    name = "censored_mean"

    def estimate(self, data):
        if data.n < 1:
            raise EmptyData("mean of an empty sample")
        return AuxEstimate(pi=np.array([max(float(np.mean(data.y)), 0.0)]))

    def estimate_batch(self, batch):
        return np.maximum(np.mean(batch.y, axis=1, keepdims=True), 0.0)

    def z_batch(self, batch, pi):
        return self.estimate_batch(batch) - np.asarray(pi, dtype=float)


def _lomax_score_parts(y, b, q):
    """The Lomax likelihood score (s_b, s_q) of each observation, elementwise
    in ``y``, ``b`` and ``q`` (broadcast)."""
    return (q + 1.0) * y / (b * b + b * y) - 1.0 / b, 1.0 / q - np.log1p(y / b)


def lomax_score(y: np.ndarray, b: float, q: float) -> np.ndarray:
    """Per-observation likelihood score of the Lomax density, shape (n, 2)."""
    return np.column_stack(_lomax_score_parts(y, b, q))


def lomax_fisher_information(b: float, q: float) -> np.ndarray:
    """Expected score outer product of the Lomax model (closed form)."""
    return np.array([
        [q / (b * b * (q + 2.0)), -1.0 / (b * (q + 1.0))],
        [-1.0 / (b * (q + 1.0)), 1.0 / (q * q)],
    ])


# log b - log(mean y) at which the profile score is evaluated to bracket its
# root; the root is the first sign change along this grid
_LOMAX_GRID = np.linspace(-12.0, 14.0, 53)


def _lomax_profile_shape(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """q(b) = 1 / mean(log(1 + y/b)) per row of ``y`` (B, n), ``b`` (B, 1)."""
    return 1.0 / np.mean(np.log1p(y / b), axis=1)


def _lomax_profile_score(y: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """(q(b) + 1) * mean(y / (b + y)) - 1 per row of ``y`` (B, n)."""
    b = np.exp(log_b)[:, None]
    t = y / b
    np.log1p(t, out=t)
    u = b + y
    np.divide(y, u, out=u)
    return (1.0 / np.mean(t, axis=1) + 1.0) * np.mean(u, axis=1) - 1.0


def _lomax_bracket(y: np.ndarray):
    """First sign change of the profile score along the grid, per row.

    A row leaves the scan at its first sign change, so a typical row costs
    half the grid.  Returns ``(lo, hi, f_lo, f_hi)`` in log b, NaN for rows
    whose score never changes sign (the MLE does not exist).
    """
    B = y.shape[0]
    log_ybar = np.log(np.mean(y, axis=1))
    lo, hi, f_lo, f_hi = np.full((4, B), np.nan)
    rows, y_rows = np.arange(B), y
    f_prev = _lomax_profile_score(y, log_ybar + _LOMAX_GRID[0])
    for j in range(1, _LOMAX_GRID.size):
        if rows.size == 0:
            break
        f = _lomax_profile_score(y_rows, log_ybar[rows] + _LOMAX_GRID[j])
        flip = f_prev * f < 0
        if flip.any():
            r = rows[flip]
            lo[r] = log_ybar[r] + _LOMAX_GRID[j - 1]
            hi[r] = log_ybar[r] + _LOMAX_GRID[j]
            f_lo[r], f_hi[r] = f_prev[flip], f[flip]
            rows, f = rows[~flip], f[~flip]
            y_rows = y[rows]
        f_prev = f
    return lo, hi, f_lo, f_hi


class LomaxMLE(Estimator):
    """Lomax MLE via the profile root of the scale score.

    The shape score gives q(b) = 1 / mean(log(1 + y/b)); the remaining
    one-dimensional equation (q(b) + 1) * mean(y / (b + y)) = 1 is solved on
    log b by Illinois regula falsi inside the first sign change along a
    fixed grid.
    """

    name = "lomax_mle"
    no_fit = "no sign change for the Lomax profile score"

    def z_batch(self, batch, pi):
        s_b, s_q = _lomax_score_parts(batch.y, *np.asarray(pi, dtype=float))
        return np.column_stack([np.mean(s_b, axis=1), np.mean(s_q, axis=1)])

    def estimate_batch(self, batch):
        """Row-wise MLE: the grid's bracket, then Illinois steps.

        Illinois regula falsi keeps the bracket and converges superlinearly,
        in 10-20 steps from the grid's bracket, where bisection took 60.
        Each step evaluates only the rows not yet within 1e-14 in log b, so
        a row's result does not depend on the rest of the batch.  Rows whose
        profile score has no root (the MLE does not exist for the sample)
        come back as NaN.
        """
        y = batch.y
        a, c, f_a, f_c = _lomax_bracket(y)
        log_b = c.copy()  # NaN on rows without a bracket
        rows = np.nonzero(~np.isnan(a))[0]
        a, c, f_a, f_c = a[rows], c[rows], f_a[rows], f_c[rows]
        for _ in range(100):  # 10-20 steps suffice; the cap only bounds the loop
            if rows.size == 0:
                break
            m = c - f_c * (c - a) / (f_c - f_a)
            f_m = _lomax_profile_score(y[rows], m)
            flip = f_m * f_c < 0
            a = np.where(flip, c, a)
            # Illinois: halve the kept end's value when it is kept again
            f_a = np.where(flip, f_c, 0.5 * f_a)
            c, f_c = m, f_m
            log_b[rows] = m
            more = (np.abs(c - a) > 1e-14 + 4e-16 * np.abs(c)) & (f_m != 0.0)
            rows, a, c, f_a, f_c = (rows[more], a[more], c[more], f_a[more],
                                    f_c[more])
        b = np.exp(log_b)[:, None]
        return np.hstack([b, _lomax_profile_shape(y, b)[:, None]])


# forward-difference step in log (b, q) of the weighted fit's Jacobian
_WMLE_STEP = 1e-7


class LomaxNaiveWMLE(Estimator):
    """Weighted Lomax MLE with Huber weights and no consistency correction.

    Weights w(y; theta) = min(1, c / ||I(theta)^{-1/2} s(y; theta)||) with the
    score standardized by the Fisher information; the estimating equation
    sum w * s = 0 is solved without the Fisher-consistency term, so the
    estimator is intentionally asymptotically biased.
    """

    name = "lomax_naive_wmle"

    def weights(self, y: np.ndarray, b: float, q: float) -> np.ndarray:
        s = lomax_score(y, b, q)
        info = lomax_fisher_information(b, q)
        vals, vecs = np.linalg.eigh(info)
        root_inv = vecs @ np.diag(vals ** -0.5) @ vecs.T
        norms = np.linalg.norm(s @ root_inv, axis=1)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, HUBER_CUTOFF / norms)

    def z_batch(self, batch, pi):
        """The weighted score of each sample at ``pi``, one (p,) value for
        every row or one (B, p) row per sample."""
        P = np.atleast_2d(np.asarray(pi, dtype=float))
        b, q = P[:, :1], P[:, 1:]
        s_b, s_q = _lomax_score_parts(batch.y, b, q)
        info = np.moveaxis(lomax_fisher_information(b[:, 0], q[:, 0]), -1, 0)
        vals, vecs = np.linalg.eigh(info)
        R = (vecs * vals[:, None, :] ** -0.5) @ vecs.transpose(0, 2, 1)
        zb = R[:, 0, :1] * s_b + R[:, 0, 1:] * s_q
        zq = R[:, 1, :1] * s_b + R[:, 1, 1:] * s_q
        norms = np.hypot(zb, zq)
        w = np.minimum(1.0, HUBER_CUTOFF / norms)
        return np.column_stack([np.mean(w * s_b, axis=1), np.mean(w * s_q, axis=1)])

    def estimate_batch(self, batch):
        """Row-wise Newton on log (b, q), started from the Lomax MLE.

        The Jacobian is a forward difference of ``z_batch``; a step is
        halved until the residual norm falls, and a row stops once its step
        moves log (b, q) by at most 1e-12 or the norm cannot fall.  Rows
        whose residual stays above 1e-8 (or whose MLE start does not exist)
        come back as NaN.
        """
        y = batch.y
        t = np.log(LomaxMLE().estimate_batch(batch))

        def z(tt, rows):
            with np.errstate(all="ignore"):
                out = self.z_batch(BatchDataset(y=y[rows]), np.exp(tt))
            return np.where(np.isfinite(out), out, np.inf)

        rows = np.flatnonzero(np.all(np.isfinite(t), axis=1))
        f = z(t[rows], rows)
        resid = np.full(y.shape[0], np.inf)
        resid[rows] = np.linalg.norm(f, axis=1)
        for _ in range(50):  # 4-8 steps from the MLE
            if rows.size == 0:
                break
            # dx = -J^-1 f, with J[j] the forward difference along log (b, q)_j
            J = [(z(t[rows] + e, rows) - f) / _WMLE_STEP
                 for e in _WMLE_STEP * np.eye(2)]
            det = J[0][:, 0] * J[1][:, 1] - J[1][:, 0] * J[0][:, 1]
            dx = np.column_stack([J[1][:, 0] * f[:, 1] - J[1][:, 1] * f[:, 0],
                                  J[0][:, 1] * f[:, 0] - J[0][:, 0] * f[:, 1]])
            dx /= det[:, None]
            finite = np.all(np.isfinite(dx), axis=1)
            step, search = np.ones(rows.size), finite.copy()
            for _ in range(30):
                i = np.flatnonzero(search)
                if i.size == 0:
                    break
                trial = t[rows[i]] + step[i, None] * dx[i]
                f_t = z(trial, rows[i])
                n_t = np.linalg.norm(f_t, axis=1)
                ok = n_t < resid[rows[i]]
                j = i[ok]
                t[rows[j]], f[j], resid[rows[j]] = trial[ok], f_t[ok], n_t[ok]
                search[j] = False
                step[i[~ok]] *= 0.5
            more = (finite & ~search
                    & (np.max(np.abs(step[:, None] * dx), axis=1) > 1e-12))
            rows, f = rows[more], f[more]
        t[resid > 1e-8] = np.nan
        return np.exp(t)

_FIT_ROWS = 64  # rows per ascent: bounds the working set, not the fits


def _ascent(f, t, lo, hi, capped):
    """Maximize a row-wise objective by damped Newton, row by row.

    ``f(t, rows, order)`` scores problems ``rows`` at points ``t`` (one per
    row) in the ascent's coordinates: the objective (B,) at ``order`` 0,
    with its gradient (B, d) and Hessian (B, d, d) at ``order`` 2.  Rows of
    ``t`` are starts; coordinate j stays in [lo[j], hi[j]] (infinite when
    free), held at a bound its gradient points out of.  Each iteration takes
    a Newton step with the Hessian's eigenvalues replaced by their absolute
    values, so the step ascends, scales it down until the ``capped``
    coordinates (those that enter an exp()) move by at most 2, and halves it
    until the objective rises enough (Armijo).  A row stops once its
    predicted gain is below 1e-10, after one last full step.  Converged rows
    are frozen and no quantity mixes rows, so a row's fit does not depend on
    its batch.  Returns the fits, NaN for rows that did not converge.
    """
    B, d = t.shape
    t = np.clip(t, lo, hi)
    active = np.all(np.isfinite(t), axis=1)
    converged = np.zeros(B, dtype=bool)
    diag = np.arange(d)
    for _ in range(50):  # 5-15 iterations from the usual starts
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        ta = t[rows]
        ll, g, H = f(ta, rows, 2)
        held = ((ta >= hi) & (g > 0.0)) | ((ta <= lo) & (g < 0.0))
        g[held] = 0.0
        H[held[:, :, None] | held[:, None, :]] = 0.0
        H[:, diag, diag] = np.where(held, -1.0, H[:, diag, diag])
        bad = ~(np.isfinite(ll) & np.all(np.isfinite(H), axis=(1, 2)))
        H[bad] = -np.eye(d)
        w, V = np.linalg.eigh(-H)
        w = np.abs(w)
        w = np.maximum(w, 1e-12 * np.max(w, axis=1, keepdims=True))
        c = np.sum(np.ascontiguousarray(V.transpose(0, 2, 1)) * g[:, None, :],
                   axis=2) / w
        dx = np.sum(V * c[:, None, :], axis=2)
        gain = np.sum(c * c * w, axis=1)
        big = np.max(np.abs(dx[:, capped]), axis=1)  # keeps exp() of the trial finite
        cap = np.where(big > 2.0, 2.0 / np.maximum(big, 1e-300), 1.0)
        dx *= cap[:, None]
        slope = cap * gain  # the objective's derivative along dx

        # rows whose predicted gain is negligible take the full step and
        # stop; the others halve theirs until the Armijo condition holds
        step = np.ones(rows.size)
        search = ~bad & (gain > 1e-10)
        for _ in range(40):
            if not search.any():
                break
            i = np.nonzero(search)[0]
            trial = np.clip(ta[i] + step[i, None] * dx[i], lo, hi)
            ok = f(trial, rows[i], 0) >= ll[i] + 1e-4 * step[i] * slope[i]
            search[i[ok]] = False
            step[i[~ok]] *= 0.5
        stuck = search  # no acceptable step: no fit for the row
        new = np.clip(ta + step[:, None] * dx, lo, hi)
        t[rows] = np.where((bad | stuck)[:, None], np.nan, new)
        done = ~bad & ~stuck & (gain <= 1e-10)
        converged[rows[done]] = True
        active[rows[bad | stuck | done]] = False
    t[~converged] = np.nan
    return t


_LOG_NU_BOUNDS = (np.log(0.3), np.log(100.0))


def _t_natural(t: np.ndarray, k: int) -> np.ndarray:
    """Rows (beta, log sigma, log nu) -> (beta, sigma, nu)."""
    theta = t.copy()
    theta[:, k:] = np.exp(t[:, k:])
    return theta


def _t_loglik(Y, X, observed):
    """The censored t-regression log-likelihood of the rows of Y as an
    :func:`_ascent` objective in (beta, log sigma, log nu)."""
    k = X.shape[1]

    def f(t, rows, order):
        theta = _t_natural(t, k)
        if order == 0:
            return _censored_t_loglik_grad(theta, Y[rows], X, observed[rows],
                                           order=0)
        ll, g, H = _censored_t_loglik_grad(theta, Y[rows], X, observed[rows],
                                           order=2)
        jac = np.ones_like(theta)
        jac[:, k:] = theta[:, k:]
        g = g * jac
        H = H * jac[:, :, None] * jac[:, None, :]
        H[:, k, k] += g[:, k]
        H[:, k + 1, k + 1] += g[:, k + 1]
        return ll, g, H
    return f


def _t_fits(Y, X, observed=None):
    """t-regression fits of the rows of Y in (beta, log sigma, log nu).

    The naive fit takes every response as observed and climbs from least
    squares (log nu from log 5); given ``observed``, the censored fit then
    climbs from it.  log nu stays in [log 0.3, log 100].  NaN rows mark
    samples without a fit, and every row when n <= k + 2.
    """
    k = X.shape[1]
    beta = np.einsum("kn,bn->bk", np.linalg.pinv(X), Y)
    s = np.maximum(np.std(Y - _linear_predictor(beta, X), axis=1), 1e-3)
    t = np.column_stack([beta, np.log(s), np.full(Y.shape[0], np.log(5.0))])
    if Y.shape[1] <= k + 2:
        t[:] = np.nan
    lo, hi = np.full(k + 2, -np.inf), np.full(k + 2, np.inf)
    lo[k + 1], hi[k + 1] = _LOG_NU_BOUNDS
    for i in range(0, Y.shape[0], _FIT_ROWS):
        rows = slice(i, i + _FIT_ROWS)
        Yr = Y[rows]
        t[rows] = _ascent(_t_loglik(Yr, X, np.ones(Yr.shape, dtype=bool)),
                          t[rows], lo, hi, slice(k, None))
        if observed is not None:
            t[rows] = _ascent(_t_loglik(Yr, X, observed[rows]), t[rows], lo,
                              hi, slice(k, None))
    return t


class StudentTNaiveMLE(Estimator):
    """MLE of the uncensored t regression applied to censored data as-is.

    Censored responses (stored zeros) are treated as exact observations.
    The fit climbs from least squares over (beta, log sigma, log nu) with
    log nu boxed to [log 0.3, log 100] (see :func:`_t_fits`).
    """

    name = "student_t_naive_mle"

    def _check_size(self, data):
        if data.n <= data.X.shape[1] + 2:
            raise EmptyData("too few rows for the t regression MLE")

    def estimate_batch(self, batch):
        return _t_natural(_t_fits(batch.y, batch.X), batch.X.shape[1])

    def z_batch(self, batch, pi):
        # the censored score with every response observed, at one pi for
        # all rows
        y = batch.y
        pi = np.asarray(pi, dtype=float)[None]
        return _censored_t_loglik_grad(pi, y, batch.X,
                                       np.ones(y.shape, dtype=bool))[1] / y.shape[1]


class StudentTCensoredMLE(Estimator):
    """Direct maximizer of the censored t-regression likelihood.

    The consistent comparator used by the baseline CI methods.  Each fit
    starts from the naive t fit, then climbs the censored log-likelihood by
    damped Newton with its analytic gradient and Hessian (see
    :func:`_t_fits`).  Fits are clamped 1e-9 of the box width inside the
    box.
    """

    name = "student_t_censored_mle"

    def __init__(self, model):
        self.model = model

    def estimate_batch(self, batch):
        Y = batch.y
        observed = (batch.censored if batch.censored is not None
                    else (Y > 0.0).astype(float)) > 0.5
        t = _t_fits(Y, batch.X, observed)
        return self.model.box.clamp(_t_natural(t, batch.X.shape[1]),
                                    margin=1e-9)


def _frechet_loglik(D, gap, s, a, order):
    """Frechet log-likelihood of each row of D = y - m (B, n), whose
    location m sits ``gap`` below the row minimum, at scale ``s`` and shape
    ``a`` (each (B, 1)).  With ``order`` 1 also the gradient, with 2 also the
    Hessian, both in (log gap, log s, log a).
    """
    n = D.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = np.log(D / s)  # log z
        w = np.exp(-a * L)  # z^-a
        a = a[:, 0]
        S_L, S_w = np.sum(L, axis=1), np.sum(w, axis=1)
        ll = n * np.log(a / s[:, 0]) - (1.0 + a) * S_L - S_w
        if order == 0:
            return ll
        r = gap / D  # d log z / d log gap
        wr = w * r
        S_r, S_wr, S_wL = np.sum(r, axis=1), np.sum(wr, axis=1), np.sum(w * L, axis=1)
        g = np.column_stack([a * S_wr - (1.0 + a) * S_r, a * (n - S_w),
                             n - a * S_L + a * S_wL])
        if order == 1:
            return ll, g
        a2 = a * a
        rr = r * (1.0 - r)
        H = np.empty((D.shape[0], 3, 3))
        H[:, 0, 0] = (a * np.sum(w * rr, axis=1) - (1.0 + a) * np.sum(rr, axis=1)
                      - a2 * np.sum(wr * r, axis=1))
        H[:, 0, 1] = H[:, 1, 0] = a2 * S_wr
        H[:, 0, 2] = H[:, 2, 0] = a * (S_wr - S_r) - a2 * np.sum(wr * L, axis=1)
        H[:, 1, 1] = -a2 * S_w
        H[:, 1, 2] = H[:, 2, 1] = g[:, 1] + a2 * S_wL
        H[:, 2, 2] = a * (S_wL - S_L) - a2 * np.sum(w * L * L, axis=1)
    return ll, g, H


# the Frechet fit's starts for the location gap below y_(1), in sample sds;
# a sample keeps the first start of the highest likelihood
_FRECHET_GAPS = np.array([0.5, 0.1, 2.0])


class FrechetMLE(Estimator):
    """MLE of the three-parameter (location-scale-shape) Frechet density.

    Location is kept strictly below y_(1) via the reparameterization
    m = y_(1) - exp(t); the fit climbs over (t, log s, log a) by
    :func:`_ascent` from three location gaps, at scale sd(y) and shape 1.
    """

    name = "frechet_mle"

    def _check_size(self, data):
        if data.n < 4:
            raise EmptyData("Frechet MLE needs n >= 4")

    def estimate_batch(self, batch):
        fits = np.full((batch.y.shape[0], 3), np.nan)
        if batch.y.shape[1] < 4:
            return fits
        free = np.full(3, np.inf)
        for i in range(0, fits.shape[0], _FIT_ROWS):
            Y = batch.y[i:i + _FIT_ROWS]
            ymin = np.min(Y, axis=1, keepdims=True)
            # one ascent row per sample and start
            excess = np.repeat(Y - ymin, _FRECHET_GAPS.size, axis=0)
            sd = np.repeat(np.maximum(np.std(Y, axis=1), 1e-6), _FRECHET_GAPS.size)
            t = np.log(np.column_stack([np.resize(_FRECHET_GAPS, sd.size) * sd,
                                        sd, np.ones(sd.size)]))

            def f(t, rows, order):
                e = np.exp(t)
                return _frechet_loglik(excess[rows] + e[:, :1], e[:, :1],
                                       e[:, 1:2], e[:, 2:], order)

            t = _ascent(f, t, -free, free, slice(None))
            ll = f(t, np.arange(sd.size), 0).reshape(len(Y), -1)
            best = np.argmax(np.where(np.isnan(ll), -np.inf, ll), axis=1)
            t = t.reshape(len(Y), -1, 3)[np.arange(len(Y)), best]
            fits[i:i + _FIT_ROWS] = np.column_stack(
                [ymin[:, 0] - np.exp(t[:, 0]), np.exp(t[:, 1:])])
        return fits

    def z_batch(self, batch, pi):
        m, s, a = np.asarray(pi, dtype=float)
        y = batch.y
        gap = np.min(y, axis=1, keepdims=True) - m
        bad = gap[:, 0] <= 0.0
        gap[bad] = 1.0
        D = np.where(bad[:, None], 1.0, y - m)
        ones = np.ones_like(gap)
        _, g = _frechet_loglik(D, gap, s * ones, a * ones, 1)
        # to (m, s, a): d log gap / dm = -1 / gap
        out = g / np.column_stack([-gap, s * ones, a * ones]) / y.shape[1]
        out[bad | ~np.all(np.isfinite(out), axis=1)] = 1e6
        return out
