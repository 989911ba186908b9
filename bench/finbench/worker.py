"""One workload in one fresh process: set up, say READY, measure, report.

Run as `python -m finbench.worker --workload W --seed N --seconds S
--trace 0|1 [--setup-only I]` with src/ and bench/ on PYTHONPATH; run.py does
that.  The first stdout line is READY and the host-speed samples, once
set-up is done (the parent times set-up up to it); the last is one JSON
object with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import sys
import types
from contextlib import nullcontext
from time import perf_counter

from . import spec
from .hostspeed import REFERENCES, HostSpeed

LAYERS = ("partitions", "transforms", "convolution", "polynomial",
          "divisibility", "freeprob", "matrix_oracle")
# Stop after the cycle that crosses this many times --seconds, so that a
# much slower commit still ends inside the per-run time limit.
TIME_CAP_FACTOR = 6


def make_workload(name):
    if name == "triangle":
        from .triangle import Triangle
        return Triangle()
    if name == "diagnostics":
        from .diagnostics import Diagnostics
        return Diagnostics()
    if name == "cli":
        from .cliops import Cli
        return Cli()
    raise ValueError("unknown workload %r" % name)


def bind(tracer=None):
    """The library as the workloads call it: the modules themselves, or
    stand-ins whose public functions record spans."""
    api = types.SimpleNamespace(span=tracer.span if tracer else _no_span)
    for name in LAYERS + ("families", "util"):
        mod = importlib.import_module("finfree." + name)
        traced = tracer is not None and name in LAYERS
        setattr(api, name, tracer.module(name, mod) if traced else mod)
    return api


def _no_span(name):
    return nullcontext()


def measure(workload, rng, cycles, apis, tracer=None, time_cap=math.inf,
            ref=REFERENCES["loop"]):
    """Closed loop, one operation at a time.  Cycle c runs on apis[c % len].

    An operation is timed from its first library call to its last; its
    check runs afterwards, untimed.  A wrong answer or an exception in
    either counts as failed, and its time is not a success latency.
    Between operations the host's speed is sampled with `ref`
    (finbench.hostspeed); a slot's `lat` and `busy_s` are scaled by it, `wall_lat` and
    `wall_busy_s` are the raw wall times.
    """
    slots = [{"attempted": 0, "timed": []} for _ in apis]
    failures = []
    host = HostSpeed(ref)
    host.sample()
    start = perf_counter()
    for c in range(cycles):
        slot = slots[c % len(apis)]
        api = apis[c % len(apis)]
        for op in workload.cycle(rng):
            slot["attempted"] += 1
            if tracer is not None:
                tracer.op = sum(s["attempted"] for s in slots)
            ok, why = False, "wrong result"
            t0 = perf_counter()
            try:
                with api.span("op." + op[0]):
                    out = workload.run(api, op)
                dt = perf_counter() - t0
                with api.span("check." + op[0]):
                    ok = workload.check(api, op, out)
            except Exception as exc:  # a failed operation must not end the run
                dt = perf_counter() - t0
                why = "%s: %s" % (type(exc).__name__, exc)
            slot["timed"].append((t0, dt, ok))
            if not ok:
                failures.append("%s: %s" % (op[0], why))
            host.maybe_sample()
        if perf_counter() - start > time_cap:
            break
    wall_s = perf_counter() - start
    for _ in range(ref.window):
        host.sample()
    for slot in slots:
        timed = slot.pop("timed")
        scaled = [dt / host.scale(t0, t0 + dt) for t0, dt, _ in timed]
        slot["lat"] = [x for x, (_, _, ok) in zip(scaled, timed) if ok]
        slot["busy_s"] = math.fsum(scaled)
        slot["wall_lat"] = [dt for _, dt, ok in timed if ok]
        slot["wall_busy_s"] = math.fsum(dt for _, dt, _ in timed)
    return {"slots": slots, "failures": failures, "cycles": c + 1, "wall_s": wall_s,
            "slowness": host.slowness()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="finbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="file for the spans")
    ap.add_argument("--setup-only", type=int, default=None, metavar="I",
                    help="set up and exit; draw the warm-up inputs from stream I of the seed")
    args = ap.parse_args(argv)

    if args.setup_only is None:
        rng = random.Random(args.seed)
    else:
        rng = random.Random("%d/setup%d" % (args.seed, args.setup_only))
    workload = make_workload(args.workload)
    tracer = None
    if args.trace:
        from .tracer import Tracer
        tracer = Tracer()
        tracer.op = "warmup"
    api = bind(tracer)
    workload.warmup(api, rng)
    gc.collect()
    # host speed at the end of set-up, for run.py to scale setup_s
    ref = REFERENCES[spec.REFERENCE[args.workload]]
    print("READY " + json.dumps(ref.samples()), flush=True)
    if args.setup_only is not None:
        return 0

    cycles = max(1, math.ceil(args.seconds / workload.cycle_s))
    if tracer is None:
        apis = [api]
    else:
        # untraced and traced cycles alternate; the gap is the tracing overhead
        apis = [bind(None), api]
        cycles *= 2
    res = measure(workload, rng, cycles, apis, tracer,
                  time_cap=TIME_CAP_FACTOR * args.seconds, ref=ref)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    res["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        res["layers"] = tracer.layer_stats(skip_op="warmup")
        res["cold_s"] = tracer.first_durations("warmup")
        res["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
