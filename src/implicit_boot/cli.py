"""Command-line front end.

Subcommands: ``ci`` (intervals for a user dataset), ``simulate-coverage``,
``exact-check``, ``bench``, ``plot``.  Exit codes: 0 success, 2 malformed
configuration or input, 3 a self-check failed its acceptance band, 4 too
many Monte Carlo replicates had to be excluded.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import engines, harness
from .errors import (ConfigError, ExcessExclusions, ImplicitBootError,
                     ParseError)
from .matcher import MatchPath
from .models import Dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3
EXIT_EXCLUSIONS = 4


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get("IB_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"IB_THREADS must be an integer, got {env!r}")
    return 1


def _read_data(path: str) -> Dataset:
    """One-column or headered CSV.  Recognized headers: y (required),
    x1..xk regressors, censored (1 = observed)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as err:
        raise ConfigError(f"cannot read data file {path}: {err}") from None
    if not lines:
        raise ConfigError(f"data file {path} is empty")
    first = [tok.strip() for tok in lines[0].split(",")]
    try:
        [float(tok) for tok in first]
        header = None
        body = lines
    except ValueError:
        header = first
        body = lines[1:]
    if not body:
        raise ConfigError(f"data file {path} has a header but no rows")
    rows = []
    for i, ln in enumerate(body, start=2 if header else 1):
        toks = [t.strip() for t in ln.split(",")]
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ConfigError(f"{path}:{i}: non-numeric value") from None
        if len(toks) != len(body[0].split(",")):
            raise ConfigError(f"{path}:{i}: ragged row")
    arr = np.asarray(rows, dtype=float)
    if header is None:
        if arr.shape[1] != 1:
            raise ConfigError("multi-column data files need a header row")
        return Dataset(y=arr[:, 0])
    cols = {name: arr[:, j] for j, name in enumerate(header)}
    if "y" not in cols:
        raise ConfigError("headered data files need a 'y' column")
    xnames = sorted(k for k in cols if k.startswith("x"))
    X = np.column_stack([np.ones(arr.shape[0])]
                        + [cols[k] for k in xnames]) if xnames else None
    cens = cols.get("censored")
    return Dataset(y=cols["y"], X=X,
                   censored=None if cens is None else cens.astype(bool))


def _cmd_ci(args) -> int:
    cfg = harness.load_config(args.config)
    data = _read_data(args.data)
    model, est, base, psi, master = harness.setup(cfg, n=data.n)
    for meth in cfg.methods:
        family = engines.METHOD_REGISTRY[meth](
            data, model, est, base, psi, cfg.B, master,
            path=MatchPath(cfg.match_path), cov=cfg.asymptotic_cov)
        lower, upper = family.endpoints(cfg.alphas, cfg.two_sided)
        for alpha, lo, hi in zip(cfg.alphas, lower, upper):
            print(f"{meth}\talpha={alpha}\t[{lo:.6g}, {hi:.6g}]\t"
                  f"point={family.point:.6g}")
    return EXIT_OK


def _cmd_simulate_coverage(args) -> int:
    cfg = harness.load_config(args.config)
    if args.paper_scale:
        cfg = cfg.at_paper_scale()
    out_dir = args.out or cfg.out or "."
    records, _ = harness.run_coverage(cfg, threads=_threads(args),
                                      out_dir=out_dir)
    for r in records:
        print(f"{r.method}\talpha={r.alpha}\tcoverage={r.coverage:.4f}"
              f"\t(se {r.mc_stderr:.4f})")
    print(f"wrote {os.path.join(out_dir, cfg.scenario + '.csv')}")
    return EXIT_OK


def _cmd_exact_check(args) -> int:
    report = harness.run_exact_check(args.example, M=args.M, B=args.B)
    for e in report["entries"]:
        mark = "ok" if e["pass"] else "FAIL"
        print(f"{report['example']}\tpsi={e['psi']}\talpha={e['alpha']}"
              f"\tcoverage={e['coverage']:.4f}\texpected={e['expected']}"
              f"\tband={e['band']:.4f}\t{mark}")
    if "percentile_contrast" in report:
        c = report["percentile_contrast"]
        print(f"percentile-bootstrap contrast: coverage={c['coverage']:.4f} "
              f"at alpha={c['alpha']} "
              f"({'outside' if c['outside_band'] else 'INSIDE'} band)")
        if not c["outside_band"]:
            return EXIT_CHECK_FAILED
    print(f"status: {report['status']}")
    return EXIT_OK if report["status"] == "PASS" else EXIT_CHECK_FAILED


def _cmd_bench(args) -> int:
    cfg = harness.load_config(args.config)
    table = harness.run_bench(cfg, reps=args.reps)
    for row in table:
        print(f"{row['method']}\tmedian={row['median_s']:.4f}s"
              f"\tx{row['ratio_vs_percentile']:.2f} vs percentile")
    return EXIT_OK


def _cmd_plot(args) -> int:
    harness.emit_plot(args.infile, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ib",
        description="Confidence intervals from matched simulated estimates, "
                    "plus coverage experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="intervals for a dataset")
    ci.add_argument("--config", required=True)
    ci.add_argument("--data", required=True)
    ci.set_defaults(func=_cmd_ci)

    sim = sub.add_parser("simulate-coverage", help="Monte Carlo coverage run")
    sim.add_argument("--config", required=True)
    sim.add_argument("--paper-scale", action="store_true",
                     help="use the full-scale M and B from the config")
    sim.add_argument("--threads", type=int, default=0,
                     help="worker threads (default: IB_THREADS or 1)")
    sim.add_argument("--out", default="",
                     help="output directory (default: config's, else .)")
    sim.set_defaults(func=_cmd_simulate_coverage)

    ex = sub.add_parser("exact-check", help="closed-form coverage self-check")
    ex.add_argument("--example", required=True,
                    choices=("uniform", "pareto", "andrews"))
    ex.add_argument("--M", type=int, default=10000)
    ex.add_argument("--B", type=int, default=2000)
    ex.set_defaults(func=_cmd_exact_check)

    be = sub.add_parser("bench", help="median CI wall times per method")
    be.add_argument("--config", required=True)
    be.add_argument("--reps", type=int, default=10)
    be.set_defaults(func=_cmd_bench)

    pl = sub.add_parser("plot", help="coverage curves from a results CSV")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExcessExclusions as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EXCLUSIONS
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ImplicitBootError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
