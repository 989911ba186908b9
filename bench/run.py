"""finfree benchmark: python3 bench/run.py [--workload W] [--seed N]
[--seconds S] [--trace 0|1]

Runs each workload (triangle, diagnostics, cli; all three when --workload
is left out) in fresh processes, checks every output, prints every metric
with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
`--write-spec` regenerates BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from finbench import spec  # noqa: E402
from finbench.hostspeed import REFERENCES  # noqa: E402
from finbench.stats import hd_quantile, tail  # noqa: E402

WORKER_TIMEOUT_S = 170
SETUP_REF_EVERY_S = 0.5
UNIT = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every run
    return env


def import_samples(count: int) -> list:
    """Seconds a fresh interpreter takes to `import finfree.cli` and exit,
    scaled by the host speed measured just before and after."""
    ref = REFERENCES[spec.REFERENCE["cli"]]
    out = []
    for _ in range(count):
        before = ref.samples()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import finfree.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
        wall = perf_counter() - t0
        out.append(wall / ref.slowness(before + ref.samples()))
    return out


def start_worker(workload, seed, seconds, trace, *extra) -> tuple:
    """Run one worker process; return (seconds from spawning it to its READY
    line, scaled by the host speed sampled before the spawn, every
    SETUP_REF_EVERY_S while the worker sets up, and at READY; the rest of
    its stdout)."""
    argv = [sys.executable, "-m", "finbench.worker", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    ref = REFERENCES[spec.REFERENCE[workload]]
    samples = ref.samples()
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            # a 30 s set-up outlasts the host's changes of speed, so the
            # samples at its two ends alone do not give the speed during it
            while not select.select([proc.stdout], [], [], SETUP_REF_EVERY_S)[0]:
                if perf_counter() - t0 > WORKER_TIMEOUT_S:
                    raise TimeoutError("%s worker not READY after %d s"
                                       % (workload, WORKER_TIMEOUT_S))
                samples.append(ref.run())
            ready = proc.stdout.readline()
            wall = perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    word, _, after = ready.partition(" ")
    if proc.returncode != 0 or word != "READY":
        raise RuntimeError("%s worker exited with %s" % (workload, proc.returncode))
    return wall / ref.slowness(samples + json.loads(after)), rest


def end_to_end(setups, rep) -> tuple:
    slot = rep["slots"][0]
    lat = slot["lat"]
    value, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / slot["busy_s"],
        "latency_p50_ms": 1e3 * hd_quantile(lat, 0.5),
        "latency_tail_ms": 1e3 * value,
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    wall = slot["wall_lat"]
    notes = {"latency_tail_percentile": pct, "latency_samples": len(lat),
             "setup_samples": len(setups), "fail_ratio": _fail_ratio(rep),
             "wall_throughput_ops_s": len(wall) / slot["wall_busy_s"],
             "wall_latency_p50_ms": 1e3 * hd_quantile(wall, 0.5),
             "wall_latency_tail_ms": 1e3 * tail(wall)[0]}
    return metrics, notes


def per_layer(imports, rep) -> tuple:
    layers, cold = rep["layers"], rep["cold_s"]
    plain, traced = rep["slots"]
    metrics = {}
    for name, _, _ in spec.PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if stat == "cold_s":
            metrics[name] = cold.get(base, 0.0)
        elif stat == "samples_per_s":
            g = layers.get(base)
            metrics[name] = g["calls"] * spec.MC_SAMPLES / g["busy_s"] if g else 0.0
        elif name == "cli.import_s":
            metrics[name] = statistics.median(imports) if imports else 0.0
        elif name == "trace.overhead_ratio":
            metrics[name] = ((traced["busy_s"] / traced["attempted"])
                             / (plain["busy_s"] / plain["attempted"]) - 1.0)
        else:
            metrics[name] = layers.get(base, {}).get(stat, 0)
    notes = {"fail_ratio": _fail_ratio(rep), "spans": rep["spans"],
             "all_layers": layers, "cold_s": cold}
    return metrics, notes


def _fail_ratio(rep) -> float:
    attempted = sum(s["attempted"] for s in rep["slots"])
    return len(rep["failures"]) / attempted


def run_workload(workload, seed, seconds, trace) -> dict:
    n_setups = spec.SETUP_SAMPLES[workload]
    if workload == "cli":
        setups = import_samples(n_setups)
    elif trace:
        setups = []
    else:
        setups = [start_worker(workload, seed, seconds, 0, "--setup-only", str(i))[0]
                  for i in range(n_setups - 1)]
    extra = []
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
        extra = ["--trace-out", str(trace_out)]
    worker_setup, out = start_worker(workload, seed, seconds, trace, *extra)
    rep = json.loads(out.strip().splitlines()[-1])
    if trace:
        metrics, notes = per_layer(setups, rep)
        notes["trace_file"] = str(trace_out.relative_to(ROOT))
    else:
        if workload != "cli":
            setups.append(worker_setup)
        metrics, notes = end_to_end(setups, rep)
    notes.update(cycles=rep["cycles"], wall_s=rep["wall_s"], slowness=rep["slowness"],
                 failures=rep["failures"][:20])
    attempted = sum(s["attempted"] for s in rep["slots"])
    return {"workload": workload, "attempted": attempted, "failed": len(rep["failures"]),
            "metrics": metrics, "notes": notes}


def metadata(seed, seconds, trace) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "seconds": seconds, "trace": trace, "git_sha": sha,
            "src_lines": src_lines, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu}


def print_report(res) -> None:
    print("== %s: %d attempted, %d failed" % (res["workload"], res["attempted"],
                                               res["failed"]))
    for name, value in res["metrics"].items():
        print("  %-56s %14.6g %s" % (name, value, UNIT[name]))
    notes = res["notes"]
    print("  %-56s %14.6g %s" % ("fail_ratio", notes["fail_ratio"], "ratio"))
    if "latency_tail_percentile" in notes:
        print("  latency_tail_ms is p%.2f of %d samples; setup_s is the median of %d"
              % (notes["latency_tail_percentile"], notes["latency_samples"],
                 notes["setup_samples"]))
    for why in notes["failures"]:
        print("  FAILED %s" % why)
    print(json.dumps({"notes": notes}))


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from bench/finbench/spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "finfree" / "__init__.py").is_file():
        print("bench: no finfree sources at %s" % SRC, file=sys.stderr)
        return 2

    print(json.dumps({"meta": metadata(args.seed, args.seconds, args.trace)}))
    workloads = names if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, args.trace)
        print_report(res)
        results.append(res)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": UNIT[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {"%s.%s" % (r["workload"], k): {"value": v, "unit": UNIT[k]}
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
