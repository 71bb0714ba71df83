"""The four paper scenarios the benchmark runs.

Each workload is an acceptance-criterion config with its replicate count
fixed per nominal second of run length: ``--seconds 20`` gives the declared
benchmark size, ``--seconds 1`` the quick size the tests use.  The count is
fixed work, never a time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _positive(thetas: np.ndarray) -> np.ndarray:
    return np.all(np.isfinite(thetas) & (thetas > 0.0), axis=1)


def _mg1_region(thetas: np.ndarray) -> np.ndarray:
    # services U(theta1, theta2) need 0 < theta1 < theta2; arrival rate > 0
    return (_positive(thetas) & (thetas[:, 0] < thetas[:, 1]))


def _tobit_region(thetas: np.ndarray) -> np.ndarray:
    finite = np.all(np.isfinite(thetas), axis=1)
    return (finite & (thetas[:, 5] > 0.0)
            & (thetas[:, 6] >= 0.3) & (thetas[:, 6] <= 100.0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict          # scenario config without M and master_seed
    default_seed: int     # the criterion's master seed
    seeded: bool          # False: inputs are the criterion's, whatever --seed
    per_second: float     # replicates per nominal second of run length
    recheck: int          # leading replicates computed a second time
    region: object        # thetas (k, p) -> bool (k,): inside the model's space

    def replicates(self, seconds: float) -> int:
        return max(1, int(math.floor(self.per_second * seconds + 0.5)))

    def master_seed(self, seed: int | None) -> int:
        if seed is None or not self.seeded:
            return self.default_seed
        return int(seed)

    def scenario(self, seed: int | None, seconds: float) -> dict:
        return dict(self.config, scenario=self.name,
                    M=self.replicates(seconds),
                    master_seed=self.master_seed(seed))

    def psi0(self) -> float:
        """psi(theta0), read from the config's psi spec."""
        theta0 = self.config["theta0"]
        spec = self.config.get("psi", "default")
        if spec.startswith("component:"):
            return float(theta0[int(spec.split(":", 1)[1])])
        return float(theta0[0])  # every model here defaults to theta[0]


TOBIT_THETA0 = [4.0, -1.0, 1.5, -0.5, -1.5, 1.4142135623730951, 2.0]

WORKLOADS = {w.name: w for w in (
    Workload(
        name="lomax_coverage",
        why="criterion-6 Lomax n=50: batched Newton, estimate_batch and the "
            "scalar retry of ridge rows do the work",
        config=dict(model="lomax", theta0=[1.0, 1.5], n=50,
                    estimator="lomax_mle", methods=["implicit", "percentile"],
                    alphas=[0.95], match_path="switched", B=500),
        default_seed=12, seeded=False, per_second=5.0, recheck=3,
        region=_positive),
    Workload(
        name="mg1_queue",
        why="criterion-8 M/G/1 theta1: simulation-bound switched solve "
            "(simulate_batch, z_batch, per-row lstsq); carries fault F1",
        config=dict(model="mg1", theta0=[0.3, 0.9, 1.0], n=250,
                    estimator="frechet_mle", psi="component:0",
                    methods=["implicit"], alphas=[0.95],
                    match_path="switched", B=500),
        default_seed=0, seeded=False, per_second=0.15, recheck=1,
        region=_mg1_region),
    Workload(
        name="censored_t",
        why="criterion-7 censored t: scalar StudentTCensoredMLE fits of the "
            "percentile baseline and the asymptotic path do the work",
        config=dict(model="student_t_censored", theta0=TOBIT_THETA0, n=100,
                    estimator="t_naive_mle",
                    baseline_estimator="t_censored_mle", psi="component:1",
                    methods=["implicit", "percentile", "asymptotic"],
                    alphas=[0.95], match_path="switched", B=200),
        default_seed=0, seeded=False, per_second=0.2, recheck=1,
        region=_tobit_region),
    Workload(
        name="uniform_exact",
        why="criterion-9 uniform closed form: bypasses every solver; "
            "closed_form_match, psi, rng and quantiles do the work",
        config=dict(model="uniform", theta0=[1.0], n=10,
                    estimator="sample_max",
                    methods=["implicit", "percentile"],
                    alphas=[0.9, 0.925, 0.95, 0.975, 0.99],
                    match_path="closed_form", B=2000),
        default_seed=0, seeded=True, per_second=60.0, recheck=5,
        region=_positive),
)}
