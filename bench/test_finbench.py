"""Tests of the benchmark itself: every workload's generator and checker at a
tiny size, failure accounting, the tracer, and the BENCHMARK.json contract.

Run with `python3 -m pytest bench` (the repository's own test command
collects them too).
"""

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from finbench import spec  # noqa: E402
from finbench.cliops import Cli  # noqa: E402
from finbench.diagnostics import Diagnostics, _psd_by_minors  # noqa: E402
from finbench.hostspeed import REFERENCES, HostSpeed  # noqa: E402
from finbench.stats import hd_quantile, tail  # noqa: E402
from finbench.tracer import Tracer, exact_bits  # noqa: E402
from finbench.triangle import Triangle  # noqa: E402
from finbench.worker import bind, measure  # noqa: E402


def tiny_triangle():
    return Triangle(degrees=range(2, 5), lattice_sizes=range(1, 5))


def tiny_diagnostics():
    return Diagnostics(threshold_degrees=(2, 3), rr_degrees=(12,), hermite_degrees=(2, 5),
                       random_degrees=(3,), cpd_lengths=(4, 6), orders=(2, 3), mc_degree=2)


def tiny_cli():
    return Cli(only={"convolve", "cumulants", "partitions", "error"})


def patched(api, module, **funcs):
    """A copy of api whose `module` has some functions replaced."""
    mod = types.SimpleNamespace(**vars(getattr(api, module)))
    for name, fn in funcs.items():
        setattr(mod, name, fn)
    out = types.SimpleNamespace(**vars(api))
    setattr(out, module, mod)
    return out


@pytest.mark.parametrize("make", [tiny_triangle, tiny_diagnostics, tiny_cli])
def test_workload_passes_its_own_checks(make):
    workload = make()
    api = bind()
    rng = random.Random(5)
    workload.warmup(api, rng)
    res = measure(workload, rng, 2, [api])
    slot = res["slots"][0]
    assert res["failures"] == []
    assert slot["attempted"] == len(slot["lat"]) == len(slot["wall_lat"]) > 0
    assert res["slowness"] > 0


@pytest.mark.parametrize("make", [tiny_triangle, tiny_diagnostics, tiny_cli])
def test_same_seed_same_inputs(make):
    def inputs(seed):
        # a cli op ends with its expected-result closure; compare the argv
        return repr([op[:3] if op[0] == "cli" else op
                     for op in make().cycle(random.Random(seed))])

    assert inputs(9) == inputs(9)
    assert inputs(9) != inputs(10)


def _count_kind(workload, seed, kind):
    return sum(op[0] == kind for op in workload.cycle(random.Random(seed)))


def test_corrupted_triangle_result_is_a_failure():
    api = bind()
    t = api.transforms

    def off_by_one(k):
        p = t.coefficients_from_cumulants(k)
        return type(p)(p.d, p.a[:-1] + (p.a[-1] + 1,))

    bad = patched(api, "transforms", coefficients_from_cumulants=off_by_one)
    workload = tiny_triangle()
    res = measure(workload, random.Random(3), 1, [bad])
    slot = res["slots"][0]
    want = _count_kind(tiny_triangle(), 3, "roundtrip")
    assert len(res["failures"]) == want > 0
    assert all(f == "roundtrip: wrong result" for f in res["failures"])
    assert len(slot["lat"]) == slot["attempted"] - want


def test_corrupted_diagnostics_and_exceptions_are_failures():
    api = bind()

    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    bad = patched(api, "polynomial", is_real_rooted=lambda p, require_distinct=False: "no")
    bad = patched(bad, "freeprob", convergence_report=boom)
    workload = tiny_diagnostics()
    res = measure(workload, random.Random(4), 1, [bad])
    kinds = sorted(f.split(":")[0] for f in res["failures"])
    # thresholds run the real library, but their check asks the corrupted
    # is_real_rooted
    assert kinds.count("realrooted") == 1
    assert kinds.count("converge") == 2
    assert kinds.count("threshold") == 2
    assert any("ZeroDivisionError: injected" in f for f in res["failures"])
    slot = res["slots"][0]
    assert len(slot["lat"]) == slot["attempted"] - len(res["failures"])


def test_corrupted_cli_output_is_a_failure():
    workload = Cli(only={"convolve", "error"})
    api = bind()
    ops = workload.cycle(random.Random(6))
    for op in ops:
        code, out, err = workload.run(api, op)
        assert workload.check(api, op, (code, out, err))
        if code == 0:
            doc = json.loads(out)
            doc["a"][-1] = "12345"
            assert not workload.check(api, op, (code, json.dumps(doc), err))
            assert not workload.check(api, op, (code, out, "warning\n"))
        else:
            assert not workload.check(api, op, (code + 1, out, err))
            assert not workload.check(api, op, (code, out, err + err))


def test_host_speed_scales_by_the_samples_around_an_interval():
    loop = REFERENCES["loop"]
    assert loop.window == 3
    host = HostSpeed(loop)
    host.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    host.refs = [loop.nominal_s * k for k in (9, 1, 1, 1, 2, 2, 2, 9)]
    # three samples before 4.5 (slowness 1) and three after 4.6 (slowness 2)
    assert host.scale(4.5, 4.6) == pytest.approx(1.5)
    # an interval past the last sample uses the last three
    assert host.scale(9.0, 9.5) == pytest.approx((2 + 2 + 9) / 3)


def test_psd_by_minors():
    assert _psd_by_minors([0, 1, 0, 1])
    assert not _psd_by_minors([1, 1, 2, 1])  # 1*1 - 2*2 < 0
    # rescaled Poisson(1, 4): Hankel minor -9/128 (criterion 10)
    from fractions import Fraction as F
    assert not _psd_by_minors([F(1), F(3, 4), F(3, 8), F(3, 32)])


def test_tail_is_the_percentile_with_ten_samples_beyond():
    value, pct = tail(list(range(1, 101)))
    assert pct == 90.0 and 89 < value < 92
    assert tail([3, 1, 2]) == (3, 100.0)


def test_hd_quantile():
    assert hd_quantile([5.0], 0.5) == 5.0
    assert hd_quantile(range(1, 100), 0.5) == pytest.approx(50, abs=1e-6)  # symmetric
    # it smooths over the gap that makes the plain median jump
    assert 1 < hd_quantile([1] * 50 + [3] * 51, 0.5) < 3
    xs = [float(x) for x in range(1000)]
    assert hd_quantile(xs, 0.25) == pytest.approx(250, abs=2)


def test_tracer_self_time_and_bits():
    from fractions import Fraction as F
    tr = Tracer()
    tr.op = 1
    inner = tr.wrap("m.f", lambda x: (x, F(1, 1024)))
    with tr.span("op.k"):
        inner(F(7, 3))
    stats = tr.layer_stats()
    assert stats["m.f"]["calls"] == 1 and stats["m.f"]["out_bits_max"] == 11
    assert stats["m.f"]["in_bits_max"] == 3
    op = stats["op.k"]
    assert 0 <= op["busy_s"] <= op["p50_ms"] / 1e3
    assert exact_bits("text") == 0


def test_traced_api_records_every_layer_call():
    tr = Tracer()
    api = bind(tr)
    workload = tiny_triangle()
    tr.op = "warmup"
    workload.warmup(api, random.Random(1))
    cold = tr.first_durations("warmup")
    for fn in spec.TRANSFORM_DIRECTIONS:
        assert cold["transforms." + fn] > 0


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
