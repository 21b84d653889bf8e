"""Shared constants for the benchmark harness."""

#: Benchmarks used by the figure-level comparisons.  A representative subset
#: of the memory-intensive suite keeps the harness fast; every surrogate can
#: be enabled by editing this list.
FIGURE_BENCHMARKS = ("mcf", "libquantum", "milc", "sphinx3", "bwaves", "lbm")

#: Trace length per benchmark (micro-ops).  Scaled down from the paper's
#: 1B-instruction SimPoints so the harness runs in minutes.  At this length
#: runs are in the cold-cache regime, where suite means still move with trace
#: length.
FIGURE_TRACE_UOPS = 5_000
