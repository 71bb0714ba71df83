"""Untraced hooks: the end-to-end timers and the captures the checks read.

Every hook replaces a name where its caller looks it up (a module attribute
or a class attribute) and is undone when the :class:`Patches` context
closes.  The hooks run once per replicate or once per engine call, never
per draw.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


def boot_clock() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def process_start() -> float | None:
    """This process's start on the boot clock, or None off Linux."""
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return None


class Patches:
    """Replace attributes for the life of a ``with`` block."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


@dataclass
class Capture:
    """What one ``simulate-coverage`` call produced, keyed by replicate."""

    first_replicate_boot: float | None = None      # boot clock at replicate 0
    starts: list = field(default_factory=list)      # perf_counter per replicate
    results: dict = field(default_factory=dict)     # m -> endpoints or None
    implicit: dict = field(default_factory=dict)    # m -> psi draws
    implicit_s: list = field(default_factory=list)  # one wall time per call
    percentile: dict = field(default_factory=dict)  # m -> (psi draws, point)
    asymptotic: dict = field(default_factory=dict)  # m -> (psi_hat, sigma)
    matched: dict = field(default_factory=dict)     # m -> (thetas, converged)
    current: int = -1

    def install(self, patches: Patches) -> None:
        from implicit_boot import engines, harness

        replicate_stats = harness._replicate_stats
        implicit = engines.implicit_bootstrap
        percentile = engines.percentile_parametric_bootstrap
        asymptotic = engines.asymptotic_components
        batched = engines.batched_switched_match

        def hooked_replicate(cfg, model, est, base, psi, master, m):
            if not self.starts:
                self.first_replicate_boot = boot_clock()
            self.starts.append(time.perf_counter())
            out = replicate_stats(cfg, model, est, base, psi, master, m)
            self.results[m] = out
            return out

        def hooked_implicit(*args, **kwargs):
            self.current = kwargs["replicate_id"]
            t0 = time.perf_counter()
            sample, ci = implicit(*args, **kwargs)
            self.implicit_s.append(time.perf_counter() - t0)
            self.implicit[self.current] = sample.values
            return sample, ci

        def hooked_percentile(*args, **kwargs):
            sample, ci = percentile(*args, **kwargs)
            self.percentile[kwargs["replicate_id"]] = (sample.values, ci.point)
            return sample, ci

        def hooked_asymptotic(*args, **kwargs):
            out = asymptotic(*args, **kwargs)
            self.asymptotic[kwargs["replicate_id"]] = out
            return out

        def hooked_batched(*args, **kwargs):
            out = batched(*args, **kwargs)
            self.matched[self.current] = (out[0], out[2])
            return out

        patches.set(harness, "_replicate_stats", hooked_replicate)
        patches.set(engines, "implicit_bootstrap", hooked_implicit)
        patches.set(engines, "percentile_parametric_bootstrap",
                    hooked_percentile)
        patches.set(engines, "asymptotic_components", hooked_asymptotic)
        patches.set(engines, "batched_switched_match", hooked_batched)
