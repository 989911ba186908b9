"""Workload `cli`: one fresh `python -m finfree.cli` process per operation.

Why it exists: this is how the roadmap defines end to end.  Interpreter
start and import dominate every command, so a change that moves work into
import time or into every process shows up here and nowhere else.

One cycle runs every README example once, with values drawn from the seed
in the same shapes, plus the documented error cases whose exit codes are
not planned to change: malformed JSON (3), an unknown subcommand (2),
`partitions --n 13` (4), complex-rooted `check-id` (5) and a degree
mismatch in `convolve` (5).  A success must exit 0 with an empty stderr and
stdout JSON equal to the same result computed through the library API; an
error must exit with its code, an empty stdout and exactly one JSON object
on stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from finfree.polynomial import MonicPoly
from finfree.util import format_rational

from .inputs import HALF_GRID, rand_poly, rand_rational
from .spec import MC_SAMPLES

ROOT = Path(__file__).resolve().parents[2]
COMMAND_TIMEOUT_S = 120
CONVERGE_DEGREES = (16, 32, 64, 128)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def _poly_json(p) -> str:
    return json.dumps(p.to_json())


def _roots(rs) -> str:
    return ",".join(str(r) for r in rs)


def _fmt_threshold(t):
    return None if t is None else format_rational(t)


def _small_roots(rng, d):
    return [rand_rational(rng, 4, 2) for _ in range(d)]


class Cli:
    cycle_s = 4.8

    def __init__(self, only=None):
        # `only` limits a cycle to the named commands (tests run a few).
        self.only = only
        self._env = child_env()

    def warmup(self, api, rng) -> None:
        """Nothing to fill: every operation starts a fresh interpreter."""

    def cycle(self, rng) -> list:
        p, q = rand_poly(rng, 2), rand_poly(rng, 2)
        r2 = _small_roots(rng, 2)
        r3 = _small_roots(rng, 3)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        kappa = [str(rand_rational(rng)) for _ in range(2)]
        moms = [str(rand_rational(rng)) for _ in range(2)]
        lam = Fraction(rng.randint(1, 8), 4)
        free = [rand_rational(rng, 3, 2) for _ in range(3)]
        thr_roots = rng.sample(HALF_GRID, 4)
        thr = MonicPoly.from_roots(thr_roots)
        eps = Fraction(1, 2 ** rng.randint(3, 6))
        mc_p = MonicPoly.from_roots([rng.randint(-3, 3) for _ in range(2)])
        mc_q = MonicPoly.from_roots([rng.randint(-3, 3) for _ in range(2)])
        mc_seed = rng.randrange(2**31)
        neg = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        k_json = json.dumps({"d": 2, "variant": "standard", "kappa": kappa})
        m_json = json.dumps({"m": moms})

        def lib(fn):
            return ("ok", fn)

        ops = [
            ("convolve", ["convolve", _poly_json(p), _poly_json(q)],
             lib(lambda a: a.convolution.boxplus(p, q).to_json())),
            ("power", ["power", "--roots=" + _roots(r2), "--t=%s" % t],
             lib(lambda a: a.convolution.boxplus_power(MonicPoly.from_roots(r2), t).to_json())),
            ("cumulants", ["cumulants", _poly_json(p)],
             lib(lambda a: a.transforms.cumulants_from_coefficients(p).to_json())),
            ("cumulants", ["cumulants", "--roots=" + _roots(r3), "--rescaled"],
             lib(lambda a: a.transforms.rescale_cumulants(
                 a.transforms.cumulants_from_coefficients(MonicPoly.from_roots(r3))).to_json())),
            ("moments", ["moments", "--roots=" + _roots(r2), "--N", "6"],
             lib(lambda a: a.transforms.moments_from_coefficients(
                 MonicPoly.from_roots(r2), 6).to_json())),
            ("coeffs", ["coeffs", k_json],
             lib(lambda a: a.transforms.coefficients_from_cumulants(
                 a.transforms.CumulantVector.from_json(json.loads(k_json))).to_json())),
            ("coeffs", ["coeffs", m_json, "--d", "2"],
             lib(lambda a: a.transforms.coefficients_from_moments(
                 a.polynomial.MomentSequence.from_json(json.loads(m_json)), 2).to_json())),
            ("rtransform", ["rtransform", "--roots=" + _roots(r2)],
             lib(lambda a: a.transforms.truncated_r_transform(
                 MonicPoly.from_roots(r2)).to_json())),
            ("family", ["family", "hermite", "--d", "8"],
             lib(lambda a: a.families.hermite_clt(8).to_json())),
            ("family", ["family", "poisson", "--lambda=%s" % lam, "--d", "4"],
             lib(lambda a: a.families.finite_poisson(lam, 4).to_json())),
            ("converge", ["converge", "--r=" + _roots(free), "--n", "4",
                          "--d", ",".join(map(str, CONVERGE_DEGREES))],
             lib(lambda a: a.freeprob.convergence_report(
                 a.freeprob.FreeCumulantVector.make(free), 4, CONVERGE_DEGREES).to_json())),
            ("check-id", ["check-id", "--roots=" + _roots(r2)],
             lib(lambda a: a.divisibility.infinite_divisibility_report(
                 MonicPoly.from_roots(r2)).to_json())),
            ("threshold", ["threshold", "--roots=" + _roots(thr_roots), "--tmax", "1048576"],
             lib(lambda a: {"threshold": _fmt_threshold(
                 a.divisibility.real_rooted_threshold(thr, 2**20))})),
            ("cramer", ["cramer", "--d", "4", "--eps=%s" % eps],
             lib(lambda a: a.divisibility.cramer_counterexample(4, eps).to_json())),
            ("verify-mc", ["verify-mc", _poly_json(mc_p), _poly_json(mc_q),
                           "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)],
             ("mc", (mc_p, mc_q, mc_seed))),
            ("partitions", ["partitions", "--n", "4", "--types"], ("types", 4)),
            ("error", ["convolve", '{"degree": 2, "a": [', _poly_json(q)], ("err", 3)),
            ("error", ["frobnicate"], ("err", 2)),
            ("error", ["partitions", "--n", "13"], ("err", 4)),
            ("error", ["check-id", "--plain=1,0,%s" % neg], ("err", 5)),
            ("error", ["convolve", _poly_json(p), _poly_json(rand_poly(rng, 3))], ("err", 5)),
        ]
        if self.only is not None:
            ops = [op for op in ops if op[0] in self.only]
        rng.shuffle(ops)
        return [("cli",) + op for op in ops]

    def run(self, api, op):
        _, name, argv, _ = op
        with api.span("cli." + name):
            proc = subprocess.run(
                [sys.executable, "-m", "finfree.cli"] + argv,
                cwd=ROOT, env=self._env, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, api, op, out) -> bool:
        code, stdout, stderr = out
        kind, arg = op[3]
        if kind == "err":
            return code == arg and stdout == "" and _one_error_object(stderr)
        if code != 0 or stderr != "":
            return False
        got = json.loads(stdout)
        if kind == "ok":
            return got == json.loads(json.dumps(arg(api)))
        if kind == "types":
            pt = api.partitions
            want = [{"sizes": list(t.sizes()), "count_all": pt.count_by_type(t, "all"),
                     "count_noncrossing": pt.count_by_type(t, "noncrossing"),
                     "mobius": pt.mobius_of_type(t)} for t in pt.iter_types(arg)]
            return (got == {"n": arg, "types": want}  # arg is 4: Bell 15, Catalan 14
                    and sum(r["count_all"] for r in want) == 15
                    and sum(r["count_noncrossing"] for r in want) == 14)
        p, q, seed = arg
        est = api.matrix_oracle.mc_boxplus(p, q, MC_SAMPLES, seed=seed)
        exact = api.convolution.boxplus(p, q)
        return (got["estimate"] == json.loads(json.dumps(est.to_json()))
                and got["exact"] == exact.to_json() and got["all_pass"] is True)


def _one_error_object(stderr: str) -> bool:
    try:
        obj, end = json.JSONDecoder().raw_decode(stderr)
    except json.JSONDecodeError:
        return False
    err = obj.get("error") if isinstance(obj, dict) else None
    return (stderr[end:].strip() == "" and isinstance(err, dict)
            and set(err) == {"type", "message"})
