"""Parametric data-generating processes.

Each model is a pure, stateless map ``(thetas, U) -> BatchDataset`` built
from quantile transforms of open-interval uniforms, so the noise
distribution never depends on the parameter.  ``simulate(theta, block)`` is
the same map on a batch of one.
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
    """

    name: str = ""
    p: int = 0
    box: Box

    def noise_dim(self, n: int) -> int:
        return n

    def simulate_batch(self, thetas: np.ndarray, U: np.ndarray) -> BatchDataset:
        raise NotImplementedError

    def simulate(self, theta: np.ndarray, block: RandomBlock) -> Dataset:
        theta = self._check(theta)
        batch = self.simulate_batch(theta[None], block.u[None])
        return Dataset(y=batch.y[0], X=batch.X,
                       censored=None if batch.censored is None else batch.censored[0])

    def default_psi(self, thetas: np.ndarray) -> np.ndarray:
        """The first coordinate of each parameter row: (k, p) -> (k,)."""
        return np.asarray(thetas, dtype=float)[..., 0]

    def loglik(self, theta: np.ndarray, data: Dataset) -> float:
        raise NotImplementedError(f"{self.name} exposes no log-likelihood")

    @property
    def has_loglik(self) -> bool:
        return type(self).loglik is not ModelSpec.loglik

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

    def simulate_batch(self, thetas, U):
        return BatchDataset(y=np.asarray(thetas)[:, :1] * U)


class ParetoModel(ModelSpec):
    """Pareto(mu, alpha) via the inverse CDF: y = mu * (1 - u)^(-1/alpha)."""

    name = "pareto"
    p = 2

    def __init__(self):
        self.box = Box(np.zeros(2), np.full(2, np.inf))

    def simulate_batch(self, thetas, U):
        thetas = np.asarray(thetas, dtype=float)
        mu, alpha = thetas[:, :1], thetas[:, 1:2]
        return BatchDataset(y=mu * (1.0 - U) ** (-1.0 / alpha))


class LomaxModel(ModelSpec):
    """Lomax(b, q): y = b * ((1 - u)^(-1/q) - 1)."""

    name = "lomax"
    p = 2

    def __init__(self):
        self.box = Box(np.zeros(2), np.full(2, np.inf))

    def simulate_batch(self, thetas, U):
        thetas = np.asarray(thetas, dtype=float)
        b, q = thetas[:, :1], thetas[:, 1:2]
        return BatchDataset(y=b * ((1.0 - U) ** (-1.0 / q) - 1.0))

    def loglik(self, theta, data):
        b, q = self._check(theta)
        y = data.y
        return float(np.sum(np.log(q / b) - (q + 1.0) * np.log1p(y / b)))

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

    def simulate_batch(self, thetas, U):
        return BatchDataset(y=np.asarray(thetas)[:, :1] + special.ndtri(U))

    def loglik(self, theta, data):
        (theta,) = self._check(theta)
        r = data.y - theta
        return float(-0.5 * np.sum(r * r) - 0.5 * data.n * np.log(2.0 * np.pi))


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

    def simulate_batch(self, thetas, U):
        thetas = np.asarray(thetas, dtype=float)
        beta, sigma, nu = thetas[:, :5], thetas[:, 5:6], thetas[:, 6:7]
        eps = student_t_quantile(U, np.broadcast_to(nu, U.shape))
        y = beta @ self.X.T + sigma * eps
        d = (y > 0.0).astype(float)
        return BatchDataset(y=y * d, X=self.X, censored=d)

    def loglik(self, theta, data):
        """Censored-data likelihood: density on observed rows, t upper tail
        probability of the linear predictor on censored rows."""
        theta = self._check(theta)
        beta, sigma, nu = theta[:5], theta[5], theta[6]
        X = data.X if data.X is not None else self.X
        d = data.censored if data.censored is not None else (data.y > 0.0).astype(float)
        eta = X @ beta
        obs = d > 0.5
        r = (data.y[obs] - eta[obs]) / sigma
        ll = np.sum(_t_logpdf(r, nu)) - np.count_nonzero(obs) * np.log(sigma)
        if np.any(~obs):
            # Pr(Y <= 0) equals the t CDF evaluated at -eta/sigma.
            ll += np.sum(np.log(special.stdtr(nu, -eta[~obs] / sigma)))
        return float(ll)


def _t_logpdf(r: np.ndarray, nu: float) -> np.ndarray:
    c = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
         - 0.5 * np.log(nu * np.pi))
    return c - 0.5 * (nu + 1.0) * np.log1p(r * r / nu)


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

    def simulate_batch(self, thetas, U):
        thetas = np.asarray(thetas, dtype=float)
        t1, t2, t3 = thetas[:, :1], thetas[:, 1:2], thetas[:, 2:3]
        n = U.shape[1] // 2
        s = t1 + (t2 - t1) * U[:, :n]
        v = -np.log1p(-U[:, n:]) / t3
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
