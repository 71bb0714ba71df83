"""Coverage-study benchmark for implicit-boot.

Runs one named paper scenario for a fixed set of coverage replicates through
``ib simulate-coverage`` (``implicit_boot.cli.main``) in-process, checks the
outputs against computations made apart from the program, and prints the
end-to-end metrics (or, with ``--trace 1``, the per-layer metrics).  Entry
point: ``python3 covbench/run.py --workload NAME``; see README.md.
"""
