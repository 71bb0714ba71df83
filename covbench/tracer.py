"""Traced run: spans around the calls into each layer of implicit_boot.

Each layer's public functions are wrapped where their callers look them up.
A span records its name, parent, start, end and self time (duration minus
the time of the calls made inside it).  Functions called once per draw
(``closed_form_match``, psi, the scalar ``simulate``, ``estimate``, ``z``
and ``loglik``) are aggregated per parent span instead: calls, total and
self time.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

_RAISED = object()


class Tracer:
    def __init__(self, region):
        self.region = region            # thetas (k, p) -> bool (k,)
        self.spans = []                 # finished spans
        self.aggregates = {}            # (parent id, name) -> [calls, total, self]
        self.counts = defaultdict(int)
        self.rescued = 0
        self._frames = [[0.0, 0.0]]     # open calls: [start, child time]
        self._ids = [None]              # ids of the open spans
        self._next_id = 0
        self._retries = None            # blocks retried by the open batch
        self._retried = []              # blocks retried by the last batch

    # -- wrappers -------------------------------------------------------
    def span(self, name, fn, rows=None, on_return=None):
        frames, ids, spans = self._frames, self._ids, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = ids[-1]
            frame = [clock(), 0.0]
            frames.append(frame)
            ids.append(sid)
            out = _RAISED
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                frames.pop()
                ids.pop()
                dur = end - frame[0]
                frames[-1][1] += dur
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": frame[0], "end": end, "self": dur - frame[1]}
                if rows is not None:
                    rec["rows"] = int(rows(args))
                if out is _RAISED:
                    rec["raised"] = True
                elif on_return is not None:
                    on_return(args, out, rec)
                spans.append(rec)
        return traced

    def aggregate(self, name, fn):
        frames, ids, aggs = self._frames, self._ids, self.aggregates
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                frames.pop()
                frames[-1][1] += dur
                key = (ids[-1], name)
                rec = aggs.get(key)
                if rec is None:
                    rec = aggs[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
        return traced

    # -- layer hooks ------------------------------------------------------
    def install(self, patches) -> None:
        from implicit_boot import (cli, engines, estimators, exact, harness,
                                   matcher, models, rng)

        put = patches.set
        put(cli, "main", self.span("cli.main", cli.main))
        put(harness, "run_coverage",
            self.span("harness.run_coverage", harness.run_coverage))
        put(harness, "_replicate_stats",
            self.span("harness.replicate", harness._replicate_stats))
        for attr in ("implicit_bootstrap", "percentile_parametric_bootstrap",
                     "asymptotic_components", "empirical_quantile"):
            put(engines, attr, self.span(f"engines.{attr}",
                                         getattr(engines, attr)))

        make_psi = harness.make_psi

        def traced_make_psi(spec, model):
            return self.aggregate("engines.psi", make_psi(spec, model))
        put(harness, "make_psi", traced_make_psi)

        put(engines, "batched_switched_match",
            self.span("matcher.batched_switched_match",
                      self._batched(engines.batched_switched_match),
                      on_return=self._batched_counts))
        put(engines, "closed_form_match",
            self.aggregate("matcher.closed_form_match",
                           engines.closed_form_match))
        put(matcher, "switched_match",
            self.span("matcher.switched_match",
                      self._retry(matcher.switched_match)))
        put(matcher, "_batch_deltas",
            self.span("matcher.batch_deltas", matcher._batch_deltas))
        put(exact, "summaries_from_uniforms",
            self.span("exact.summaries_from_uniforms",
                      exact.summaries_from_uniforms))

        def uniforms_drawn(args, out, rec):
            self.counts["rng.uniforms_drawn"] += int(out.size)
        draw = self.span("rng.draw_uniforms", rng.draw_uniforms,
                         on_return=uniforms_drawn)
        for owner in (rng, engines, harness, exact):
            if hasattr(owner, "draw_uniforms"):
                put(owner, "draw_uniforms", draw)

        def batch_rows(args):
            return np.shape(args[1].y)[0]

        for cls in vars(estimators).values():
            if not (isinstance(cls, type)
                    and issubclass(cls, estimators.Estimator)):
                continue
            for attr in ("estimate", "z"):
                if attr in cls.__dict__:
                    put(cls, attr, self.aggregate(f"estimators.{attr}",
                                                  cls.__dict__[attr]))
            for attr in ("estimate_batch", "z_batch"):
                if attr in cls.__dict__:
                    put(cls, attr, self.span(f"estimators.{attr}",
                                             cls.__dict__[attr],
                                             rows=batch_rows))
        for cls in models.MODEL_REGISTRY.values():
            for attr in ("simulate", "loglik"):
                if attr in cls.__dict__:
                    put(cls, attr, self.aggregate(f"models.{attr}",
                                                  cls.__dict__[attr]))
            if "simulate_batch" in cls.__dict__:
                put(cls, "simulate_batch",
                    self.span("models.simulate_batch",
                              cls.__dict__["simulate_batch"],
                              rows=lambda args: np.shape(args[1])[0]))

    def _batched(self, fn):
        def batched(*args, **kwargs):
            self._retries = []
            try:
                return fn(*args, **kwargs)
            finally:
                self._retried = self._retries
                self._retries = None
        return batched

    def _retry(self, fn):
        def switched(pi_obs, model, est, w_star, *rest, **kwargs):
            if self._retries is not None:
                self._retries.append(w_star.u)
            return fn(pi_obs, model, est, w_star, *rest, **kwargs)
        return switched

    def _batched_counts(self, args, out, rec):
        thetas, _, converged, row_evals = out
        U = args[3]
        self.counts["matcher.row_evals"] += int(row_evals)
        self.counts["matcher.unconverged_draws"] += int(np.sum(~converged))
        self.counts["matcher.out_of_region_draws"] += int(
            np.sum(~self.region(thetas)))
        rows = {int(np.flatnonzero(np.all(U == u, axis=1))[0])
                for u in self._retried}
        self.counts["matcher.retried_rows"] += len(rows)
        self.rescued += int(sum(converged[i] for i in rows))
        rec["retried_rows"] = len(rows)

    # -- results ------------------------------------------------------------
    def totals(self) -> dict:
        """name -> {calls, total_s, self_s, rows} over spans and aggregates."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "rows": 0})
        for s in self.spans:
            t = out[s["name"]]
            t["calls"] += 1
            t["total_s"] += s["end"] - s["start"]
            t["self_s"] += s["self"]
            t["rows"] += s.get("rows", 0)
        for (_, name), (calls, total, self_s) in self.aggregates.items():
            t = out[name]
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += self_s
        return out

    def retry_rescue_ratio(self) -> float:
        retried = self.counts["matcher.retried_rows"]
        return self.rescued / retried if retried else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "aggregates": [
                           {"parent": parent, "name": name, "calls": c,
                            "total": t, "self": s}
                           for (parent, name), (c, t, s)
                           in self.aggregates.items()],
                       "counts": dict(self.counts)}, fh)
