"""Initial estimators: deliberately simple, possibly inconsistent.

Each estimator is a pure map ``Dataset -> AuxEstimate``.  Estimators that can
be written as Z-estimators additionally expose ``z_batch(batch, pi)``, the
estimating-equation residual of every sample in a batch, which enables the
switched matching path; ``z(data, pi)`` is the same residual on a batch of
one.  Estimators with a batched form expose ``estimate_batch(batch)``, the
(B, p) estimates of a batch with NaN rows for samples without one; the
engines re-estimate simulated samples through it in one call.  The
censored-t MLE writes only that form: its ``estimate`` is a batch of one,
and each row's fit is independent of the rows that share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import DegenerateSample, EmptyData, NonConvergence
from .models import (BatchDataset, Dataset, _censored_t_loglik_grad,
                     _linear_predictor)

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
    """Value of an initial estimator plus solver diagnostics."""

    pi: np.ndarray
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)


class Estimator:
    """Interface: a deterministic estimate, optionally a Z-function.

    A Z-estimator writes its estimating equation once, as ``z_batch``: a
    :class:`BatchDataset` of B samples and one auxiliary value in, the
    (B, p) residuals out.  ``z`` is that equation on a batch of one.
    """

    name: str = ""

    def estimate(self, data: Dataset) -> AuxEstimate:
        raise NotImplementedError

    def z_batch(self, batch: BatchDataset, pi: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name} has no Z-function")

    @property
    def has_z(self) -> bool:
        return type(self).z_batch is not Estimator.z_batch

    def z(self, data: Dataset, pi: np.ndarray) -> np.ndarray:
        return self.z_batch(_batch_of_one(data), pi)[0]


def _batch_of_one(data: Dataset) -> BatchDataset:
    return BatchDataset(
        y=data.y[None], X=data.X,
        censored=None if data.censored is None else data.censored[None])


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


def lomax_score(y: np.ndarray, b: float, q: float) -> np.ndarray:
    """Per-observation likelihood score of the Lomax density, shape (n, 2)."""
    s_b = (q + 1.0) * y / (b * b + b * y) - 1.0 / b
    s_q = 1.0 / q - np.log1p(y / b)
    return np.column_stack([s_b, s_q])


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
    log b inside the first sign change along a fixed grid: by Brent's method
    for one sample, by Illinois regula falsi for a batch.
    """

    name = "lomax_mle"

    def estimate(self, data):
        y = data.y
        if data.n < 2:
            raise NonConvergence("Lomax MLE is not identified from a single point")
        Y = y[None, :]
        lo, hi, _, _ = _lomax_bracket(Y)
        if np.isnan(lo[0]):
            raise NonConvergence("no sign change for the Lomax profile score")

        def phi(log_b):
            return float(_lomax_profile_score(Y, np.array([log_b]))[0])

        log_b, res = optimize.brentq(phi, lo[0], hi[0], xtol=1e-14, rtol=1e-15,
                                     full_output=True)
        b = np.array([[np.exp(log_b)]])
        return AuxEstimate(pi=np.array([b[0, 0], _lomax_profile_shape(Y, b)[0]]),
                           converged=res.converged, iterations=res.iterations)

    def z_batch(self, batch, pi):
        b, q = np.asarray(pi, dtype=float)
        y = batch.y
        s_b = np.mean((q + 1.0) * y / (b * b + b * y) - 1.0 / b, axis=1)
        s_q = np.mean(1.0 / q - np.log1p(y / b), axis=1)
        return np.column_stack([s_b, s_q])

    def estimate_batch(self, batch):
        """Row-wise MLE: the scalar path's bracket, then Illinois steps.

        Illinois regula falsi keeps the bracket and converges superlinearly,
        in 10-20 steps from the grid's bracket, where bisection took 60.
        Each step evaluates only the rows not yet within the scalar path's
        tolerance, so a row's result does not depend on the rest of the
        batch.  Rows whose profile score has no root (the MLE does not exist
        for the sample) come back as NaN, mirroring the scalar path's raise.
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


class LomaxNaiveWMLE(Estimator):
    """Weighted Lomax MLE with Huber weights and no consistency correction.

    Weights w(y; theta) = min(1, c / ||I(theta)^{-1/2} s(y; theta)||) with the
    score standardized by the Fisher information; the estimating equation
    sum w * s = 0 is solved without the Fisher-consistency term, so the
    estimator is intentionally asymptotically biased.
    """

    name = "lomax_naive_wmle"

    def __init__(self, cutoff: float = HUBER_CUTOFF):
        self.cutoff = float(cutoff)

    def weights(self, y: np.ndarray, b: float, q: float) -> np.ndarray:
        s = lomax_score(y, b, q)
        info = lomax_fisher_information(b, q)
        vals, vecs = np.linalg.eigh(info)
        root_inv = vecs @ np.diag(vals ** -0.5) @ vecs.T
        norms = np.linalg.norm(s @ root_inv, axis=1)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, self.cutoff / norms)

    def z_batch(self, batch, pi):
        b, q = np.asarray(pi, dtype=float)
        y = batch.y
        s_b = (q + 1.0) * y / (b * b + b * y) - 1.0 / b
        s_q = 1.0 / q - np.log1p(y / b)
        info = lomax_fisher_information(b, q)
        vals, vecs = np.linalg.eigh(info)
        R = vecs @ np.diag(vals ** -0.5) @ vecs.T
        zb = R[0, 0] * s_b + R[0, 1] * s_q
        zq = R[1, 0] * s_b + R[1, 1] * s_q
        norms = np.hypot(zb, zq)
        w = np.minimum(1.0, self.cutoff / norms)
        return np.column_stack([np.mean(w * s_b, axis=1), np.mean(w * s_q, axis=1)])

    def estimate(self, data):
        init = LomaxMLE().estimate(data).pi
        evals = 0

        def eq(t):
            nonlocal evals
            evals += 1
            b, q = np.exp(t)
            return self.z(data, (b, q))

        sol = optimize.root(eq, np.log(init), method="hybr", tol=1e-12)
        pi = np.exp(sol.x)
        resid = float(np.linalg.norm(self.z(data, pi)))
        if resid > 1e-8:
            raise NonConvergence(f"weighted score residual {resid:.2e}")
        return AuxEstimate(pi=pi, converged=True, iterations=evals)


def _t_reg_loglik_grad(theta: np.ndarray, y: np.ndarray, X: np.ndarray):
    """Log-likelihood and gradient of the (uncensored) t regression in the
    natural parameterization theta = (beta..., sigma, nu): row 0 of the
    censored form with every response observed."""
    ll, g = _censored_t_loglik_grad(theta[None], y[None], X,
                                    np.ones((1, y.shape[0]), dtype=bool))
    return float(ll[0]), g[0]


class StudentTNaiveMLE(Estimator):
    """MLE of the uncensored t regression applied to censored data as-is.

    Censored responses (stored zeros) are treated as exact observations.
    Optimization runs over (beta, log sigma, log nu) with log nu boxed to
    [log 0.3, log 100].
    """

    name = "student_t_naive_mle"

    def estimate(self, data):
        y, X = data.y, data.X
        k = X.shape[1]
        if y.shape[0] <= k + 2:
            raise EmptyData("too few rows for the t regression MLE")
        beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta0
        s0 = max(float(np.std(resid)), 1e-3)
        x0 = np.concatenate([beta0, [np.log(s0), np.log(5.0)]])
        evals = 0

        def negloglik(t):
            nonlocal evals
            evals += 1
            theta = np.concatenate([t[:k], np.exp(t[k:])])
            ll, g = _t_reg_loglik_grad(theta, y, X)
            return -ll, -np.concatenate([g[:k], g[k:] * theta[k:]])

        bounds = [(None, None)] * k + [(None, None), (np.log(0.3), np.log(100.0))]
        res = optimize.minimize(negloglik, x0, jac=True, method="L-BFGS-B",
                                bounds=bounds,
                                options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-9})
        theta = np.concatenate([res.x[:k], np.exp(res.x[k:])])
        at_edge = res.x[k + 1] <= np.log(0.3) + 1e-9 or res.x[k + 1] >= np.log(100.0) - 1e-9
        if not res.success and not at_edge:
            raise NonConvergence(f"t regression MLE: {res.message}")
        return AuxEstimate(pi=theta, converged=not at_edge, iterations=evals)

    def z_batch(self, batch, pi):
        # the censored score with every response observed, at one pi for
        # all rows
        y = batch.y
        pi = np.asarray(pi, dtype=float)[None]
        return _censored_t_loglik_grad(pi, y, batch.X,
                                       np.ones(y.shape, dtype=bool))[1] / y.shape[1]


_LOG_NU_BOUNDS = (np.log(0.3), np.log(100.0))
_FIT_ROWS = 64  # rows of Y per censored-t solve


def _t_natural(t: np.ndarray, k: int) -> np.ndarray:
    """Rows (beta, log sigma, log nu) -> (beta, sigma, nu)."""
    theta = t.copy()
    theta[:, k:] = np.exp(t[:, k:])
    return theta


def _t_ascent(Y, X, observed, t):
    """Maximize the censored t-regression log-likelihood of each row of Y.

    Rows of ``t`` are starts in (beta, log sigma, log nu); log nu stays in
    [log 0.3, log 100].  Each iteration takes a Newton step with the
    Hessian's eigenvalues replaced by their absolute values, so the step
    always ascends, and halves it until the log-likelihood rises enough
    (Armijo).  A coordinate log nu at a bound whose gradient points out of
    the box is held there.  A row stops once its predicted gain is below
    1e-10, after one last full step.  Converged rows are frozen, and no
    quantity mixes rows, so a row's fit does not depend on its batch.
    Returns the fits in the same coordinates, NaN for rows that did not
    converge.
    """
    B, k = t.shape[0], X.shape[1]
    lo, hi = _LOG_NU_BOUNDS
    t = t.copy()
    t[:, k + 1] = np.clip(t[:, k + 1], lo, hi)
    active = np.all(np.isfinite(t), axis=1)
    converged = np.zeros(B, dtype=bool)

    def loglik(tt, rows):
        return _censored_t_loglik_grad(_t_natural(tt, k), Y[rows], X,
                                       observed[rows], order=0)

    for _ in range(50):  # 5-15 iterations from the usual starts
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        ta = t[rows]
        theta = _t_natural(ta, k)
        ll, g, H = _censored_t_loglik_grad(theta, Y[rows], X, observed[rows],
                                           order=2)
        # to (beta, log sigma, log nu)
        jac = np.ones_like(theta)
        jac[:, k:] = theta[:, k:]
        g = g * jac
        H = H * jac[:, :, None] * jac[:, None, :]
        H[:, k, k] += g[:, k]
        H[:, k + 1, k + 1] += g[:, k + 1]
        m = ta[:, k + 1]
        held = ((m >= hi) & (g[:, k + 1] > 0.0)) | ((m <= lo) & (g[:, k + 1] < 0.0))
        g[held, k + 1] = 0.0
        H[held, k + 1, :] = 0.0
        H[held, :, k + 1] = 0.0
        H[held, k + 1, k + 1] = -1.0
        bad = ~(np.isfinite(ll) & np.all(np.isfinite(H), axis=(1, 2)))
        H[bad] = -np.eye(k + 2)
        w, V = np.linalg.eigh(-H)
        w = np.abs(w)
        w = np.maximum(w, 1e-12 * np.max(w, axis=1, keepdims=True))
        c = np.sum(np.ascontiguousarray(V.transpose(0, 2, 1)) * g[:, None, :],
                   axis=2) / w
        dx = np.sum(V * c[:, None, :], axis=2)
        gain = np.sum(c * c * w, axis=1)
        big = np.max(np.abs(dx[:, k:]), axis=1)  # keeps exp() of the trial finite
        cap = np.where(big > 2.0, 2.0 / np.maximum(big, 1e-300), 1.0)
        dx *= cap[:, None]
        slope = cap * gain  # the log-likelihood's derivative along dx

        # rows whose predicted gain is negligible take the full step and
        # stop; the others halve theirs until the Armijo condition holds
        step = np.ones(rows.size)
        search = ~bad & (gain > 1e-10)
        for _ in range(40):
            if not search.any():
                break
            i = np.nonzero(search)[0]
            trial = ta[i] + step[i, None] * dx[i]
            trial[:, k + 1] = np.clip(trial[:, k + 1], lo, hi)
            ok = loglik(trial, rows[i]) >= ll[i] + 1e-4 * step[i] * slope[i]
            search[i[ok]] = False
            step[i[~ok]] *= 0.5
        stuck = search  # no acceptable step: no fit for the row
        new = ta + step[:, None] * dx
        new[:, k + 1] = np.clip(new[:, k + 1], lo, hi)
        t[rows] = np.where((bad | stuck)[:, None], np.nan, new)
        done = ~bad & ~stuck & (gain <= 1e-10)
        converged[rows[done]] = True
        active[rows[bad | stuck | done]] = False
    t[~converged] = np.nan
    return t


class StudentTCensoredMLE(Estimator):
    """Direct maximizer of the censored t-regression likelihood.

    The consistent comparator used by the baseline CI methods.  Each fit
    starts from the naive t fit (the same ascent with every response taken
    as observed, from least squares), then climbs the censored
    log-likelihood by damped Newton with its analytic gradient and Hessian
    (see :func:`_t_ascent`).  ``estimate_batch`` fits the samples of a
    batch together, NaN rows marking samples without a fit; ``estimate`` is
    that fit on a batch of one and raises instead of returning NaN.
    Fits are clamped 1e-9 of the box width inside the box.
    """

    name = "student_t_censored_mle"

    def __init__(self, model):
        self.model = model

    def estimate(self, data):
        theta = self.estimate_batch(_batch_of_one(data))[0]
        if not np.all(np.isfinite(theta)):
            raise NonConvergence("censored t-regression MLE did not converge")
        return AuxEstimate(pi=theta)

    def estimate_batch(self, batch):
        Y, X = batch.y, batch.X
        k = X.shape[1]
        observed = (batch.censored if batch.censored is not None
                    else (Y > 0.0).astype(float)) > 0.5
        beta = np.einsum("kn,bn->bk", np.linalg.pinv(X), Y)
        s = np.maximum(np.std(Y - _linear_predictor(beta, X), axis=1), 1e-3)
        t = np.column_stack([beta, np.log(s), np.full(Y.shape[0], np.log(5.0))])
        if Y.shape[1] <= k + 2:
            t[:] = np.nan
        # the fits are row by row, so blocks of rows give the same fits;
        # they bound the working set, which grows with the rows of a solve
        for i in range(0, Y.shape[0], _FIT_ROWS):
            rows = slice(i, i + _FIT_ROWS)
            naive = _t_ascent(Y[rows], X, np.ones(Y[rows].shape, dtype=bool),
                              t[rows])
            t[rows] = _t_ascent(Y[rows], X, observed[rows], naive)
        return self.model.box.clamp(_t_natural(t, k), margin=1e-9)


def _frechet_loglik_grad(theta: np.ndarray, y: np.ndarray):
    m, s, a = theta
    if s <= 0.0 or a <= 0.0:
        return -np.inf, np.zeros(3)
    z = (y - m) / s
    if np.any(z <= 0.0):
        return -np.inf, np.zeros(3)
    with np.errstate(over="ignore", invalid="ignore"):
        logz = np.log(z)
        za = z ** -a
        ll = float(np.sum(np.log(a / s) - (1.0 + a) * logz - za))
        g_m = float(np.sum((1.0 + a) / z - a * z ** (-a - 1.0)) / s)
        g_s = float(np.sum(a * (1.0 - za)) / s)
        g_a = float(np.sum(1.0 / a - logz + za * logz))
    if not np.isfinite(ll):
        return -np.inf, np.zeros(3)
    return ll, np.array([g_m, g_s, g_a])


class FrechetMLE(Estimator):
    """MLE of the three-parameter (location-scale-shape) Frechet density.

    Location is kept strictly below y_(1) via the reparameterization
    m = y_(1) - exp(t); scale and shape are optimized on the log scale.
    """

    name = "frechet_mle"

    def estimate(self, data):
        y = data.y
        if data.n < 4:
            raise EmptyData("Frechet MLE needs n >= 4")
        ymin = float(np.min(y))
        spread = max(float(np.std(y)), 1e-6)
        evals = 0

        def unpack(t):
            return np.array([ymin - np.exp(t[0]), np.exp(t[1]), np.exp(t[2])])

        def negloglik(t):
            nonlocal evals
            evals += 1
            theta = unpack(t)
            ll, g = _frechet_loglik_grad(theta, y)
            if not np.isfinite(ll):
                return 1e12, np.zeros(3)
            jac = np.array([-np.exp(t[0]), theta[1], theta[2]])
            return -ll, -g * jac

        best = None
        for gap in (0.5 * spread, 0.1 * spread, 2.0 * spread):
            x0 = np.array([np.log(gap), np.log(spread), 0.0])
            res = optimize.minimize(negloglik, x0, jac=True, method="L-BFGS-B",
                                    options={"maxiter": 2000, "ftol": 1e-14,
                                             "gtol": 1e-10})
            if best is None or res.fun < best.fun:
                best = res
        theta = unpack(best.x)
        grad_norm = float(np.linalg.norm(_frechet_loglik_grad(theta, y)[1]))
        if grad_norm > 1e-4 * data.n:
            raise NonConvergence(f"Frechet MLE gradient norm {grad_norm:.2e}")
        return AuxEstimate(pi=theta, converged=True, iterations=evals)

    def z_batch(self, batch, pi):
        m, s, a = np.asarray(pi, dtype=float)
        y = batch.y
        n = y.shape[1]
        bad = np.min(y, axis=1) <= m
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = np.where(bad[:, None], 1.0, (y - m) / s)
            logz = np.log(z)
            za = z ** -a
            g_m = np.sum((1.0 + a) / z - a * z ** (-a - 1.0), axis=1) / s
            g_s = np.sum(a * (1.0 - za), axis=1) / s
            g_a = np.sum(1.0 / a - logz + za * logz, axis=1)
        out = np.column_stack([g_m, g_s, g_a]) / n
        out[bad | ~np.all(np.isfinite(out), axis=1)] = 1e6
        return out
