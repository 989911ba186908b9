"""What the benchmark measures: workloads, metric names, units and bounds.

BENCHMARK.json at the repository root is generated from this file by
`python3 bench/run.py --write-spec`; the benchmark's tests check that the
two agree.
"""

from __future__ import annotations

RUN_SECONDS = 14

# Set-ups timed per run, each in a fresh interpreter; setup_s is their
# median.  A triangle set-up pays the ~30 s cold lattice build, so a run
# affords only one within a time limit for a whole series of runs; a cli
# set-up is one `import finfree.cli`.
SETUP_SAMPLES = {"triangle": 1, "diagnostics": 5, "cli": 9}

# The reference task (finbench.hostspeed.REFERENCES) whose time scales each
# workload's timings to a nominal host speed.
REFERENCE = {"triangle": "loop", "diagnostics": "loop", "cli": "interpreter"}

# Samples per Monte Carlo cross-check (criterion 03), in process and in
# `verify-mc`.
MC_SAMPLES = 100_000

WORKLOADS = (
    ("triangle", "in-process transform round trips, boxplus and lattice counts at d <= 10: "
                 "warm lattice sums in transforms and partitions, cold build in set-up"),
    ("diagnostics", "in-process thresholds, Sturm tests at d = 12..24, divisibility, "
                    "convergence at never-repeated d and MC: polynomial and the cache-miss "
                    "use of transforms"),
    ("cli", "one fresh finfree.cli process per README example or documented error: "
            "import and process start dominate"),
)

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings are scaled by the host's speed (finbench.hostspeed) and their
# percentiles are Harrell-Davis estimates (finbench.stats); even so, ten
# seeds on the shared 2-vCPU host the benchmark was built on spread by up
# to 0.10 of the median between quartiles, so the timing bounds stay at the
# largest allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

TRANSFORM_DIRECTIONS = (
    "cumulants_from_coefficients",
    "moments_from_coefficients",
    "coefficients_from_cumulants",
    "coefficients_from_moments",
    "cumulants_from_moments",
    "moments_from_cumulants",
)

CLI_SUBCOMMANDS = (
    "convolve", "power", "cumulants", "moments", "coeffs", "rtransform", "family",
    "converge", "check-id", "threshold", "cramer", "verify-mc", "partitions", "error",
)

UNITS = {"cold_s": "s", "busy_s": "s", "p50_ms": "ms", "in_bits_max": "bits",
         "samples_per_s": "1/s", "import_s": "s", "overhead_ratio": "ratio"}
HIGHER_IS_BETTER = {"samples_per_s"}


def _per_layer_names() -> list:
    names = []
    for fn in TRANSFORM_DIRECTIONS:
        names += ["transforms.%s.%s" % (fn, s) for s in ("cold_s", "p50_ms", "busy_s")]
    names += [
        "partitions.enumerate_partitions.busy_s",
        "partitions.count_by_type.busy_s",
        "convolution.boxplus.busy_s",
        "convolution.boxplus_power.busy_s",
        "divisibility.real_rooted_threshold.busy_s",
        "polynomial.is_real_rooted.p50_ms",
        "polynomial.is_real_rooted.busy_s",
        "polynomial.is_real_rooted.in_bits_max",
        "freeprob.convergence_report.busy_s",
        "divisibility.infinite_divisibility_report.busy_s",
        "divisibility.is_conditionally_positive_definite.busy_s",
        "matrix_oracle.mc_boxplus.samples_per_s",
        "cli.import_s",
    ]
    names += ["cli.%s.p50_ms" % sub for sub in CLI_SUBCOMMANDS]
    names.append("trace.overhead_ratio")
    return names


PER_LAYER = tuple(
    (name, UNITS[name.rsplit(".", 1)[1]],
     "higher" if name.rsplit(".", 1)[1] in HIGHER_IS_BETTER else "lower")
    for name in _per_layer_names()
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
