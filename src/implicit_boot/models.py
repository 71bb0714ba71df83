"""Parametric data-generating processes.

Each model is a pure, stateless map ``(thetas, U) -> BatchDataset`` built
from quantile transforms of open-interval uniforms, so the noise
distribution never depends on the parameter.  ``simulate(theta, block)`` is
the same map on a batch of one.  A model whose transform begins with a
costly map of the uniforms declares it as ``noise_batch(thetas, U)`` and
the coordinates that map reads as ``noise_coords``; ``simulate_batch``
accepts its result as ``noise=``, so a solver that moves only the other
coordinates computes it once.  A likelihood is written once too, as the
row-wise ``loglik_batch``, so the engines' observed information scores all
its stencil points in one call; ``loglik(theta, data)`` is a batch of one.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import OutOfBox
from .rng import RandomBlock

__all__ = [
    "Box",
    "ParamVector",
    "Dataset",
    "BatchDataset",
    "ModelSpec",
    "UniformScaleModel",
    "ParetoModel",
    "LomaxModel",
    "AndrewsModel",
    "StudentTCensoredModel",
    "MG1QueueModel",
    "student_t_quantile",
    "load_design_matrix",
    "MODEL_REGISTRY",
    "make_model",
]


@dataclass(frozen=True)
class Box:
    """Per-coordinate box constraints; bounds may be +/-inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def p(self) -> int:
        return self.lower.shape[0]

    def contains(self, values: np.ndarray) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(v > self.lower) and np.all(v < self.upper))

    def clamp(self, values: np.ndarray, margin: float = 1e-6) -> np.ndarray:
        """Pull a point strictly inside the box (used for initialization)."""
        v = np.asarray(values, dtype=float).copy()
        lo, hi = self.lower, self.upper
        width = np.where(np.isfinite(lo) & np.isfinite(hi), hi - lo, 1.0)
        v = np.maximum(v, np.where(np.isfinite(lo), lo + margin * width, v))
        v = np.minimum(v, np.where(np.isfinite(hi), hi - margin * width, v))
        return v


@dataclass(frozen=True)
class ParamVector:
    """A point inside a box-constrained parameter space."""

    values: np.ndarray
    box: Box

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.box.p:
            raise OutOfBox(f"dimension {v.shape[0]} != box dimension {self.box.p}")
        if not self.box.contains(v):
            raise OutOfBox(f"{v} violates box [{self.box.lower}, {self.box.upper}]")


@dataclass(frozen=True)
class BatchDataset:
    """A stack of B simulated samples (rows), for the batched matching path."""

    y: np.ndarray  # (B, n)
    X: np.ndarray | None = None
    censored: np.ndarray | None = None

    def rows(self, index) -> BatchDataset:
        """The samples at ``index`` (a mask or index array); X is shared."""
        return BatchDataset(self.y[index], self.X,
                            None if self.censored is None else self.censored[index])


@dataclass(frozen=True)
class Dataset:
    """Observed or simulated sample; regression models carry X and censoring."""

    y: np.ndarray
    X: np.ndarray | None = None
    censored: np.ndarray | None = None  # d_i = 1 when the response is observed

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _batch_of_one(data: Dataset) -> BatchDataset:
    return BatchDataset(data.y[None], data.X,
                        None if data.censored is None else data.censored[None])


def student_t_quantile(u: np.ndarray, nu: float | np.ndarray) -> np.ndarray:
    """Student-t quantile via the inverse regularized incomplete beta.

    ``scipy.special.stdtrit`` inverts the regularized incomplete beta
    representation of the t CDF with Newton refinement; relative accuracy is
    well below 1e-12 away from the endpoints.
    """
    return special.stdtrit(nu, np.asarray(u, dtype=float))


class ModelSpec:
    """Interface every data-generating process implements.

    A model writes its transform once, as ``simulate_batch``: B parameter
    rows and B noise rows in, a :class:`BatchDataset` of B samples out.
    ``simulate`` is that transform on a batch of one, after ``_check``; a
    model with constraints beyond its box extends ``_check``.

    ``noise_batch(thetas, U)`` is the first step of that transform, the map
    of the uniforms before the other parameters enter, and ``noise_coords``
    names the coordinates of ``thetas`` it reads.  ``simulate_batch(thetas,
    U, noise=noise_batch(thetas2, U))`` returns the same bits as
    ``simulate_batch(thetas, U)`` whenever ``thetas2`` equals ``thetas`` on
    ``noise_coords``.  By default the step is the identity, reads no
    coordinate, and ``simulate_batch`` ignores ``noise``.
    """

    name: str = ""
    p: int = 0
    box: Box
    noise_coords: tuple[int, ...] = ()

    def noise_dim(self, n: int) -> int:
        return n

    def noise_batch(self, thetas: np.ndarray, U: np.ndarray):
        return U

    def simulate_batch(self, thetas: np.ndarray, U: np.ndarray,
                       noise=None) -> BatchDataset:
        raise NotImplementedError

    def simulate(self, theta: np.ndarray, block: RandomBlock) -> Dataset:
        theta = self._check(theta)
        batch = self.simulate_batch(theta[None], block.u[None])
        return Dataset(y=batch.y[0], X=batch.X,
                       censored=None if batch.censored is None else batch.censored[0])

    def default_psi(self, thetas: np.ndarray) -> np.ndarray:
        """The first coordinate of each parameter row: (k, p) -> (k,)."""
        return np.asarray(thetas, dtype=float)[..., 0]

    def loglik_batch(self, thetas: np.ndarray, batch: BatchDataset) -> np.ndarray:
        """Log-likelihood of row b on sample b, (K, p) -> (K,), or on one sample."""
        raise NotImplementedError(f"{self.name} exposes no log-likelihood")

    def loglik(self, theta: np.ndarray, data: Dataset) -> float:
        theta = self._check(theta)
        return float(self.loglik_batch(theta[None], _batch_of_one(data))[0])

    @property
    def has_loglik(self) -> bool:
        return type(self).loglik_batch is not ModelSpec.loglik_batch

    def param(self, values) -> ParamVector:
        return ParamVector(np.asarray(values, dtype=float), self.box)

    def _check(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[0] != self.p or not self.box.contains(theta):
            raise OutOfBox(f"{self.name}: {theta} outside parameter box")
        return theta


class UniformScaleModel(ModelSpec):
    """U(0, theta) observations: y_i = theta * u_i."""

    name = "uniform"
    p = 1

    def __init__(self):
        self.box = Box(np.array([0.0]), np.array([np.inf]))

    def simulate_batch(self, thetas, U, noise=None):
        return BatchDataset(y=np.asarray(thetas)[:, :1] * U)


class ParetoModel(ModelSpec):
    """Pareto(mu, alpha) via the inverse CDF: y = mu * (1 - u)^(-1/alpha)."""

    name = "pareto"
    p = 2

    def __init__(self):
        self.box = Box(np.zeros(2), np.full(2, np.inf))

    def simulate_batch(self, thetas, U, noise=None):
        thetas = np.asarray(thetas, dtype=float)
        mu, alpha = thetas[:, :1], thetas[:, 1:2]
        return BatchDataset(y=mu * (1.0 - U) ** (-1.0 / alpha))


class LomaxModel(ModelSpec):
    """Lomax(b, q): y = b * ((1 - u)^(-1/q) - 1)."""

    name = "lomax"
    p = 2

    def __init__(self):
        self.box = Box(np.zeros(2), np.full(2, np.inf))

    def simulate_batch(self, thetas, U, noise=None):
        thetas = np.asarray(thetas, dtype=float)
        b, q = thetas[:, :1], thetas[:, 1:2]
        return BatchDataset(y=b * ((1.0 - U) ** (-1.0 / q) - 1.0))

    def loglik_batch(self, thetas, batch):
        b, q = np.asarray(thetas, dtype=float).T[:, :, None]
        return np.sum(np.log(q / b) - (q + 1.0) * np.log1p(batch.y / b), axis=1)

    def survival(self, thetas, y0: float) -> np.ndarray:
        """Pr(Y > y0) at each parameter row: (k, 2) -> (k,)."""
        b, q = np.asarray(thetas, dtype=float).T
        return (1.0 + y0 / b) ** (-q)


class AndrewsModel(ModelSpec):
    """N(theta, 1) observations with theta restricted to [0, inf).

    The lower boundary is part of the parameter space (theta = 0 is the case
    of interest), so the box is open only above.
    """

    name = "andrews"
    p = 1

    def __init__(self):
        self.box = Box(np.array([-1e-12]), np.array([np.inf]))

    def simulate_batch(self, thetas, U, noise=None):
        return BatchDataset(y=np.asarray(thetas)[:, :1] + special.ndtri(U))

    def loglik_batch(self, thetas, batch):
        r = batch.y - np.asarray(thetas, dtype=float)[:, :1]
        return -0.5 * np.sum(r * r, axis=1) - 0.5 * r.shape[1] * np.log(2.0 * np.pi)


@lru_cache(maxsize=1)
def load_design_matrix() -> np.ndarray:
    """Frozen 753 x 4 standardized synthetic design (header x1,x2,x3,x4)."""
    ref = importlib.resources.files("implicit_boot").joinpath("data/design_matrix.csv")
    with ref.open("rb") as fh:
        X = np.loadtxt(fh, delimiter=",", skiprows=1)
    X.setflags(write=False)
    return X


class StudentTCensoredModel(ModelSpec):
    """Left-censored linear regression with Student-t errors.

    y_i = x_i' beta + sigma * T_nu^{-1}(u_i), observed as y_i * 1{y_i > 0}.
    theta = (beta0, ..., beta4, sigma, nu); covariates are the first n rows
    of the frozen design, with an intercept column prepended.
    """

    name = "student_t_censored"
    p = 7
    noise_coords = (6,)  # the t quantiles read nu only

    def __init__(self, n: int):
        lo = np.concatenate([np.full(5, -np.inf), [0.0, 0.3]])
        hi = np.concatenate([np.full(5, np.inf), [np.inf, 100.0]])
        self.box = Box(lo, hi)
        design = load_design_matrix()
        if n > design.shape[0]:
            raise ValueError(f"n={n} exceeds the {design.shape[0]}-row design")
        self.X = np.hstack([np.ones((n, 1)), design[:n]])
        self.X.setflags(write=False)
        self._n = n

    def noise_batch(self, thetas, U):
        nu = np.asarray(thetas, dtype=float)[:, 6:7]
        return student_t_quantile(U, np.broadcast_to(nu, U.shape))

    def simulate_batch(self, thetas, U, noise=None):
        thetas = np.asarray(thetas, dtype=float)
        beta, sigma = thetas[:, :5], thetas[:, 5:6]
        eps = self.noise_batch(thetas, U) if noise is None else noise
        y = _linear_predictor(beta, self.X) + sigma * eps
        d = (y > 0.0).astype(float)
        return BatchDataset(y=y * d, X=self.X, censored=d)

    def loglik_batch(self, thetas, batch):
        """Censored-data likelihood: density on observed rows, t upper tail
        probability of the linear predictor on censored rows."""
        X = batch.X if batch.X is not None else self.X
        observed = batch.y > 0.0 if batch.censored is None else batch.censored > 0.5
        return _censored_t_loglik_grad(np.asarray(thetas, dtype=float), batch.y,
                                       X, observed, order=0)


def _linear_predictor(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x_i' beta for every row of ``beta`` (B, k): (B, n).

    Not ``beta @ X.T``: the rounding of a BLAS product depends on the batch
    shape, and a row must come out the same whatever rows share its batch.
    """
    return np.einsum("bk,nk->bn", beta, X)


# relative step in nu of the central differences of log T_nu on censored rows
_NU_STEP = 1e-4


def _censored_t_loglik_grad(thetas: np.ndarray, Y: np.ndarray, X: np.ndarray,
                            observed: np.ndarray, order: int = 1):
    """Censored t-regression log-likelihood of each row, with derivatives.

    Row b of ``thetas`` (B, k+2) holds (beta, sigma, nu) and is scored on row
    b of ``Y`` (B, n), whose entries with ``observed`` (B, n) false are
    censored at 0 and stored as 0; a row of ``thetas`` (1, k+2) scores every
    sample, and a sample (1, n) is scored by every row.  With r = (y -
    x'beta) / sigma, an observed entry adds log t_nu(r) - log sigma and a censored one
    log T_nu(r), the t CDF at -x'beta / sigma.
    Returns the log-likelihoods (B,); with ``order`` 1 also the gradients
    in (beta, sigma, nu), (B, k+2); with ``order`` 2 also the Hessians,
    (B, k+2, k+2).  The nu derivatives of log T_nu are central differences
    (scipy has none); everything else is closed form.  Every sum runs over
    the last axis of one row's terms, so a row does not depend on the rows
    stacked with it.
    """
    k = X.shape[1]
    sigma, nu = thetas[:, k:k + 1], thetas[:, k + 1:k + 2]
    r = (Y - _linear_predictor(thetas[:, :k], X)) / sigma
    rr = r * r
    log1p = np.log1p(rr / nu)
    c = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
         - 0.5 * np.log(nu * np.pi))
    phi = c - 0.5 * (nu + 1.0) * log1p  # log t_nu(r); log T_nu(r) where censored
    cens = ~np.broadcast_to(np.asarray(observed, dtype=bool), r.shape)
    r_c, nu_c = r[cens], np.broadcast_to(nu, r.shape)[cens]
    log_pdf = phi[cens]
    log_cdf = np.log(special.stdtr(nu_c, r_c))
    phi[cens] = log_cdf
    n_obs = r.shape[1] - np.count_nonzero(cens, axis=1)
    ll = np.sum(phi, axis=1) - n_obs * np.log(sigma[:, 0])
    if order == 0:
        return ll

    # derivatives of phi in r and nu, entry by entry, overwritten where
    # censored
    w = nu + rr
    phi_r = -(nu + 1.0) * r / w
    dig = 0.5 * (special.digamma((nu + 1.0) / 2.0) - special.digamma(nu / 2.0)
                 - 1.0 / nu)
    phi_nu = dig - 0.5 * log1p + (nu + 1.0) * rr / (2.0 * nu * w)
    h = _NU_STEP * nu_c
    log_cdf_up = np.log(special.stdtr(nu_c + h, r_c))
    log_cdf_down = np.log(special.stdtr(nu_c - h, r_c))
    lam = np.exp(log_pdf - log_cdf)                        # t_nu(r) / T_nu(r)
    pdf_r, pdf_nu = phi_r[cens], phi_nu[cens]
    phi_r[cens] = lam
    phi_nu[cens] = (log_cdf_up - log_cdf_down) / (2.0 * h)
    # (beta, sigma) enter through r only: d r / d(beta, sigma) = -cols / sigma.
    # Sums run over one (B, n) product at a time, along its last axis.
    cols = [X[:, i] for i in range(k)] + [r]
    g = np.empty((r.shape[0], k + 2))
    for i, col in enumerate(cols):
        g[:, i] = -np.sum(col * phi_r, axis=1)
    g[:, :k + 1] /= sigma
    g[:, k] -= n_obs / sigma[:, 0]
    g[:, k + 1] = np.sum(phi_nu, axis=1)
    if order == 1:
        return ll, g

    w *= w  # (nu + r^2)^2
    phi_rr = -(nu + 1.0) * (nu - rr) / w
    phi_rnu = -r * (rr - 1.0) / w
    trigam = 0.25 * (special.polygamma(1, (nu + 1.0) / 2.0)
                     - special.polygamma(1, nu / 2.0)) + 0.5 / (nu * nu)
    phi_nunu = trigam + rr * (rr * (nu - 1.0) - 2.0 * nu) / (2.0 * nu * nu * w)
    phi_rr[cens] = lam * (pdf_r - lam)
    phi_rnu[cens] = lam * (pdf_nu - phi_nu[cens])
    phi_nunu[cens] = (log_cdf_up - 2.0 * log_cdf + log_cdf_down) / (h * h)
    H = np.empty((r.shape[0], k + 2, k + 2))
    for i, col in enumerate(cols):
        weighted = col * phi_rr
        for j in range(i + 1):
            H[:, i, j] = H[:, j, i] = np.sum(weighted * cols[j], axis=1)
        H[:, i, k + 1] = H[:, k + 1, i] = -np.sum(col * phi_rnu, axis=1)
    H[:, :k + 1, :k + 1] /= sigma[:, :, None] ** 2
    H[:, :k + 1, k + 1] /= sigma
    H[:, k + 1, :k + 1] /= sigma
    # the second derivatives of r: d2r/dbeta dsigma = x / sigma^2,
    # d2r/dsigma2 = 2 r / sigma^2; and n_obs / sigma^2 from -n_obs log sigma
    H[:, :k, k] -= g[:, :k] / sigma
    H[:, k, k] += (2.0 * np.sum(phi_r * r, axis=1) + n_obs) / sigma[:, 0] ** 2
    H[:, k, :k] = H[:, :k, k]
    H[:, k + 1, k + 1] = np.sum(phi_nunu, axis=1)
    return ll, g, H


class MG1QueueModel(ModelSpec):
    """M/G/1 queue observed through inter-departure times.

    Services are U(theta1, theta2), arrivals Poisson with rate theta3; the
    Lindley recursion over departures consumes n service uniforms and n
    inter-arrival uniforms (noise_dim = 2n).
    """

    name = "mg1"
    p = 3

    def __init__(self):
        self.box = Box(np.array([0.0, 0.0, 0.0]), np.full(3, np.inf))

    def noise_dim(self, n):
        return 2 * n

    def _check(self, theta):
        theta = super()._check(theta)
        if not theta[0] < theta[1]:
            raise OutOfBox(f"mg1 requires theta1 < theta2, got {theta}")
        return theta

    def noise_batch(self, thetas, U):
        """Service uniforms and unit-rate exponential inter-arrival times;
        no parameter enters."""
        n = U.shape[1] // 2
        return U[:, :n], -np.log1p(-U[:, n:])

    def simulate_batch(self, thetas, U, noise=None):
        thetas = np.asarray(thetas, dtype=float)
        t1, t2, t3 = thetas[:, :1], thetas[:, 1:2], thetas[:, 2:3]
        u, e = self.noise_batch(thetas, U) if noise is None else noise
        s = t1 + (t2 - t1) * u
        v = e / t3
        a = np.cumsum(v, axis=1)
        # d_i = max(d_{i-1}, a_i) + s_i with d_0 = 0 unrolls to
        # d_i = S_i + max_{j<=i}(a_j - S_{j-1}), S_i = cumsum(s).
        S = np.cumsum(s, axis=1)
        d = S + np.maximum.accumulate(a - (S - s), axis=1)
        y = np.diff(d, axis=1, prepend=0.0)
        return BatchDataset(y=y)


MODEL_REGISTRY = {
    "uniform": UniformScaleModel,
    "pareto": ParetoModel,
    "lomax": LomaxModel,
    "andrews": AndrewsModel,
    "student_t_censored": StudentTCensoredModel,
    "mg1": MG1QueueModel,
}


def make_model(name: str, n: int | None = None) -> ModelSpec:
    cls = MODEL_REGISTRY[name]
    if name == "student_t_censored":
        if n is None:
            raise ValueError("student_t_censored needs the sample size n")
        return cls(n)
    return cls()
