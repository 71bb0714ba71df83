"""Simulation-based confidence intervals from simple initial estimators.

The package builds percentile confidence intervals by re-solving a bootstrap
matching problem: for each simulated noise block, find the parameter whose
simulated auxiliary estimate reproduces the observed one.  The auxiliary
estimator may be deliberately naive (plug-in, uncorrected, or robustified
without consistency corrections); the matching step absorbs its bias.

Baselines (percentile parametric bootstrap, bootstrap-t, BCa, delta-method
asymptotics, bias-corrected indirect inference) and a deterministic Monte
Carlo coverage harness live alongside the main engine.
"""

from .errors import ImplicitBootError
from .rng import MasterSeed, Role, StreamKey, RandomBlock, derive_seed, draw_block
from .models import make_model, MODEL_REGISTRY
from .matcher import MatchPath, nested_match, switched_match, closed_form_match
from .engines import (CIResult, implicit_bootstrap, percentile_parametric_bootstrap,
                      studentized_bootstrap, bca_bootstrap, asymptotic_ci,
                      indirect_inference_correct, empirical_quantile)

__version__ = "0.1.0"

__all__ = [
    "ImplicitBootError",
    "MasterSeed", "Role", "StreamKey", "RandomBlock", "derive_seed", "draw_block",
    "make_model", "MODEL_REGISTRY",
    "MatchPath", "nested_match", "switched_match",
    "closed_form_match",
    "CIResult", "implicit_bootstrap", "percentile_parametric_bootstrap",
    "studentized_bootstrap", "bca_bootstrap", "asymptotic_ci",
    "indirect_inference_correct", "empirical_quantile",
    "__version__",
]
