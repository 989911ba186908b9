"""Command line interface.

Every subcommand reads exact JSON (inline or from a file), writes JSON to
stdout, and reports failures as structured JSON on stderr.  Exit codes:
0 success, 2 unknown subcommand, 3 malformed input, 4 a fixed size bound
exceeded (the bounds below), 5 domain errors.  No command has a tolerance
to set; only verify-mc, the Monte-Carlo check, takes --samples and --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import combinations

from .convolution import boxplus, boxplus_power
from .divisibility import (
    cramer_counterexample,
    infinite_divisibility_report,
    real_rooted_threshold,
)
from .errors import FinFreeError, InputFormatError, SizeCapError
from .families import finite_poisson, hermite_clt
from .freeprob import FreeCumulantVector, convergence_report
from .partitions import (
    SetPartition,
    _partitions,
    count_by_type,
    enumerate_noncrossing,
    iter_types,
    mobius_from_zero,
    mobius_of_type,
)
from .polynomial import MomentSequence, MonicPoly, moments
from .transforms import (
    CumulantVector,
    coefficients_from_cumulants,
    coefficients_from_moments,
    cumulants_from_coefficients,
    rescale_cumulants,
    truncated_r_transform,
)
from .util import format_rational, parse_int, parse_rational


# Every error type maps to the first matching row; the rest are exit 5.
_EXIT_CODES = ((InputFormatError, 3), (SizeCapError, 4), (FinFreeError, 5))

# Fixed bounds, so that a few bytes of input cannot ask for an unbounded
# amount of work.  On a 2-vCPU host: partitions --n 30 --types prints about
# 1.4 MB; partitions --n 10 lists Bell(10) = 115975 rows (14.4 MB) in
# about 0.35 s with a peak RSS of about 66 MB, and each step in n costs about
# 5 times more; moments --roots 1,-1/3 --N 1000
# prints 0.5 MB in 0.3 s; each bisection step of threshold doubles the
# probe's denominator, and its grid has log2(tmax) + 5 points, of which one
# galloping search from t = 1 probes at most twice the bit length of their
# number, 14 at --tmax 2^64, for every input; from degree 18 up each
# probe's real roots are counted by continued-fraction isolation, not by a
# Sturm chain: on random rational roots threshold --tmax 4 takes about
# 0.15 s at d = 24 and 0.25 s at d = 40, and --tmax 2^64 0.15 s at d = 24;
# on random rational coefficients, --tmax 2^64 takes 0.2 s at d = 24;
# --steps 200 takes 1.1-1.6 s at d = 20 and 1.7-2.8 s at d = 24 (--tmax 4),
# nearly all in the probes, whose denominators double with each step;
# converge sums one
# free-moment series and one row per --d value, each costing more than n^3,
# so n^2 times the number of --d values is bounded by MAX_CONVERGE_N^2, and
# the worst case is one row; its cost grows with the parts of --r, so each
# is bounded by MAX_R_PART: with d near 10^12, --n 112 takes 9.9 s with
# every denominator from 1 to 100 and 10.2 s with prime parts up to 100
# before its result is too long to print, against 11 s with prime parts up
# to 128 and 24 s with random parts up to 2^16; --n 56 with 4 values took
# 1.2 s and --n 14 with 64 values 0.2 s (three-digit parts), while a
# 4000-digit d takes seconds; verify-mc --samples 1000000 takes
# about 0.45 s at degree 2 and 8.5 s at degree 12, the largest input it
# allows, in a fresh process on a 2-vCPU host; cramer at d = 100 takes
# about 0.25 s with eps = 1/32 and with 1/255, and at d = 40 an eps of
# 1e-100 takes 0.1 s in process; power on 100 integer roots computes for
# 20 s with --t 1e4000 before its result is too long to print, and under
# 1 s with parts of --t at 2^64; family
# poisson reads its last coefficient
# perm(d*lambda, d) / d^d before the series, so at d = 100 a 2000-digit
# --lambda exits 5 in about 0.2 s where the series alone takes 6.5 s, and
# the largest --lambda it prints there (41 digits) takes 0.15 s; that check
# refuses any longer one the parser takes (4300 digits) in under 0.3 s, so
# MAX_LAMBDA_PART = 10^2000 only bounds input from outside where it enters,
# as for other rational arguments, with a size error before any work.  A
# JSON file is read up to MAX_JSON_BYTES, so a path such as /dev/zero cannot
# fill memory; the largest record one command prints for another to read,
# moments --N 1000, is 0.5 MB.
MAX_DEGREE = 100
MAX_TYPES_N = 30
MAX_LIST_N = 10
MAX_MOMENTS = 1000
MAX_STEPS = 200
MAX_TMAX = 2**64
MAX_CONVERGE_D = 10**12
MAX_CONVERGE_N = 112
MAX_SAMPLES = 10**6
MAX_MC_DEGREE = 12
MAX_EPS_PART = 256
MAX_T_PART = 2**64
MAX_LAMBDA_PART = 10**2000
MAX_R_PART = 100
MAX_JSON_BYTES = 2**24


def _check_bound(n: int, bound: int, what: str, cap: str) -> None:
    if n > bound:
        raise SizeCapError(n, bound, what, cap)


def _check_parts(q, bound: int, what: str, cap: str) -> None:
    """Bound the absolute numerator and the denominator of a rational."""
    _check_bound(max(abs(q.numerator), q.denominator), bound,
                 what + " numerator or denominator", cap)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so errors become structured JSON
    def error(self, message):
        raise _UsageError(message)


def _load_json_arg(text: str) -> dict:
    """A JSON object, inline if it looks like one, else from a file path."""
    s = text.strip()
    if not s.startswith("{"):
        try:
            with open(text, "rb") as fh:
                raw = fh.read(MAX_JSON_BYTES + 1)
        except OSError as exc:
            raise InputFormatError("cannot read %s: %s" % (text, exc)) from exc
        if len(raw) > MAX_JSON_BYTES:
            raise SizeCapError(len(raw), MAX_JSON_BYTES,
                               "%s: a size of at least" % text, "the bound MAX_JSON_BYTES")
        try:
            s = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError("%s is not UTF-8: %s" % (text, exc)) from exc
    try:
        obj = json.loads(s)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InputFormatError("invalid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object, got %.80r" % (obj,))
    return obj


def _rational_list(text: str):
    return [parse_rational(t) for t in text.split(",")]


def _poly_from_args(ns) -> MonicPoly:
    if [ns.poly, ns.roots, ns.plain].count(None) != 2:
        raise InputFormatError("give exactly one of a polynomial, --roots or --plain")
    if ns.roots is not None:
        return MonicPoly.from_roots(_rational_list(ns.roots))
    if ns.plain is not None:
        return MonicPoly.from_plain_coefficients(_rational_list(ns.plain))
    return MonicPoly.from_json(_load_json_arg(ns.poly))


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_convolve(ns):
    p = MonicPoly.from_json(_load_json_arg(ns.p))
    q = MonicPoly.from_json(_load_json_arg(ns.q))
    return boxplus(p, q).to_json()


def _cmd_power(ns):
    t = parse_rational(ns.t)
    _check_parts(t, MAX_T_PART, "--t", "the bound MAX_T_PART")
    return boxplus_power(_poly_from_args(ns), t).to_json()


def _cmd_cumulants(ns):
    k = cumulants_from_coefficients(_poly_from_args(ns))
    if ns.rescaled:
        k = rescale_cumulants(k)
    return k.to_json()


def _cmd_moments(ns):
    _check_bound(ns.N, MAX_MOMENTS, "--N", "the bound MAX_MOMENTS")
    return moments(_poly_from_args(ns), ns.N).to_json()


def _cmd_coeffs(ns):
    obj = _load_json_arg(ns.data)
    if "kappa" in obj:
        if ns.d is not None:
            raise InputFormatError("--d is for moment input; cumulants carry 'd'")
        return coefficients_from_cumulants(CumulantVector.from_json(obj)).to_json()
    m = MomentSequence.from_json(obj)
    if (ns.d is None) == (m.degree_context is None):
        raise InputFormatError("moment input needs exactly one of --d or a 'd' field")
    d = ns.d if m.degree_context is None else m.degree_context
    return coefficients_from_moments(m, d).to_json()


def _cmd_rtransform(ns):
    return truncated_r_transform(_poly_from_args(ns)).to_json()


def _cmd_family(ns):
    _check_bound(ns.d, MAX_DEGREE, "--d", "the bound MAX_DEGREE")
    if ns.which == "hermite":
        if ns.lam is not None:
            raise InputFormatError("hermite takes no --lambda")
        return hermite_clt(ns.d, marcus_scaling=ns.marcus).to_json()
    if ns.lam is None or ns.marcus:
        raise InputFormatError("poisson needs --lambda and takes no --marcus")
    lam = parse_rational(ns.lam)
    _check_parts(lam, MAX_LAMBDA_PART, "--lambda", "the bound MAX_LAMBDA_PART")
    m = lam * ns.d
    if ns.d >= 1 and m.denominator == 1 and m > 0:
        # a_d = perm(m, d) / d^d in closed form, so that a result too long
        # to print is refused before the series rather than after it
        format_rational(Fraction(math.perm(m.numerator, ns.d), ns.d**ns.d))
    return finite_poisson(lam, ns.d).to_json()


def _cmd_converge(ns):
    r = _rational_list(ns.r)
    for x in r:
        _check_parts(x, MAX_R_PART, "--r", "the bound MAX_R_PART")
    d_values = [parse_int(x, "--d") for x in ns.d.split(",")]
    for d in d_values:
        _check_bound(d, MAX_CONVERGE_D, "--d", "the bound MAX_CONVERGE_D")
    # n^2 times the number of --d values at most MAX_CONVERGE_N^2
    _check_bound(ns.n, math.isqrt(MAX_CONVERGE_N**2 // len(d_values)), "--n",
                 "the bound MAX_CONVERGE_N/sqrt(number of --d values)")
    return convergence_report(FreeCumulantVector(r), ns.n, d_values).to_json()


def _cmd_check_id(ns):
    return infinite_divisibility_report(_poly_from_args(ns)).to_json()


def _cmd_threshold(ns):
    _check_bound(ns.steps, MAX_STEPS, "--steps", "the bound MAX_STEPS")
    p = _poly_from_args(ns)
    tmax = parse_rational(ns.tmax)
    _check_bound(math.ceil(tmax), MAX_TMAX, "--tmax", "the bound MAX_TMAX")
    t = real_rooted_threshold(p, tmax, steps=ns.steps)
    return {"threshold": None if t is None else format_rational(t)}


def _cmd_cramer(ns):
    _check_bound(ns.d, MAX_DEGREE, "--d", "the bound MAX_DEGREE")
    eps = parse_rational(ns.eps)
    _check_parts(eps, MAX_EPS_PART, "--eps", "the bound MAX_EPS_PART")
    return cramer_counterexample(ns.d, eps).to_json()


def _cmd_verify_mc(ns):
    from .matrix_oracle import mc_boxplus  # numpy loads for this command alone

    _check_bound(ns.samples, MAX_SAMPLES, "--samples", "the bound MAX_SAMPLES")
    p = MonicPoly.from_json(_load_json_arg(ns.p))
    q = MonicPoly.from_json(_load_json_arg(ns.q))
    _check_bound(max(p.d, q.d), MAX_MC_DEGREE, "degree", "the bound MAX_MC_DEGREE")
    est = mc_boxplus(p, q, ns.samples, seed=ns.seed)
    exact = boxplus(p, q)
    passes = est.passes(exact)
    rows = [
        {"i": i, "exact": format_rational(a), "mean": mean, "stderr": se, "pass": ok}
        for i, (a, mean, se, ok) in enumerate(
            zip(exact.a, est.coeff_mean, est.coeff_stderr, passes))
    ]
    return {
        "estimate": est.to_json(),
        "exact": exact.to_json(),
        "per_coefficient": rows,
        "all_pass": all(passes),
    }


def _cmd_partitions(ns):
    n = ns.n
    if ns.types:
        if ns.noncrossing:
            raise InputFormatError("--types counts both kinds; drop --noncrossing")
        _check_bound(n, MAX_TYPES_N, "--n", "the --types bound MAX_TYPES_N")
        rows = [
            {
                "sizes": list(t.sizes()),
                "count_all": count_by_type(t, "all"),
                "count_noncrossing": count_by_type(t, "noncrossing"),
                "mobius": mobius_of_type(t),
            }
            for t in iter_types(n)
        ]
        return {"n": n, "types": rows}
    _check_bound(n, MAX_LIST_N, "--n", "the listing bound MAX_LIST_N")
    return _listing_text(n, ns.noncrossing)


# One row of the partitions listing as json.dumps(..., indent=2) prints it;
# the label holds digits, commas, pipes and braces, which JSON writes as they are.
_ROW = ('    {\n      "partition": "{%s}",\n      "blocks": %d,\n      "mobius": %d,\n'
        '      "noncrossing": %s\n    }')


def _listing_text(n: int, noncrossing: bool) -> str:
    """{"n", "count", "partitions": one row per partition of P(n) or NC(n)}
    in the bytes json.dumps(..., indent=2) gives, written with the fixed row
    shape.  Each block's text and Moebius factor are made once, as the
    partitions of one walk share their block tuples, and the noncrossing
    flag of a P(n) row is membership in NC(n); every NC(n) row's is true."""
    ground = range(1, n + 1)
    text, factor = {}, {}
    for k in ground:
        # mu(0_n, pi) is the product of mu(0_|V|, 1_|V|) over the blocks V
        mu = mobius_from_zero(SetPartition([range(1, k + 1)]))
        for b in combinations(ground, k):
            text[b] = ",".join(map(str, b))
            factor[b] = mu
    nc = None if noncrossing else {pi.blocks for pi in enumerate_noncrossing(n)}
    label, mobius = text.__getitem__, factor.__getitem__
    rows = [_ROW % ("|".join(map(label, pi.blocks)),
                    len(pi.blocks), math.prod(map(mobius, pi.blocks)),
                    "true" if nc is None or pi.blocks in nc else "false")
            for pi in _partitions(n, noncrossing)]
    return '{\n  "n": %d,\n  "count": %d,\n  "partitions": [\n%s\n  ]\n}' % (
        n, len(rows), ",\n".join(rows))


_COMMANDS = {
    "convolve": _cmd_convolve,
    "power": _cmd_power,
    "cumulants": _cmd_cumulants,
    "moments": _cmd_moments,
    "coeffs": _cmd_coeffs,
    "rtransform": _cmd_rtransform,
    "family": _cmd_family,
    "converge": _cmd_converge,
    "check-id": _cmd_check_id,
    "threshold": _cmd_threshold,
    "cramer": _cmd_cramer,
    "verify-mc": _cmd_verify_mc,
    "partitions": _cmd_partitions,
}


def _build_parser() -> _Parser:
    poly_in = _Parser(add_help=False)
    poly_in.add_argument("poly", nargs="?", default=None,
                         help="polynomial JSON, inline or a file path")
    poly_in.add_argument("--roots", default=None,
                         help="comma list of rational roots, as --roots=-1,2 "
                              "when the list starts with '-'")
    poly_in.add_argument("--plain", default=None,
                         help="comma list of plain descending coefficients, as "
                              "--plain=LIST when the list starts with '-'")

    top = _Parser(prog="finfree", description=__doc__)
    sub = top.add_subparsers(dest="command")

    sp = sub.add_parser("convolve", help="additive convolution of two polynomials")
    sp.add_argument("p")
    sp.add_argument("q")

    sp = sub.add_parser("power", parents=[poly_in],
                        help="fractional convolution power")
    sp.add_argument("--t", required=True,
                    help="rational exponent > 0, numerator and denominator at most 2^64")

    sp = sub.add_parser("cumulants", parents=[poly_in],
                        help="finite free cumulants of a polynomial")
    sp.add_argument("--rescaled", action="store_true",
                    help="emit kappa~_n = ((d)_n/d^n) kappa_n")

    sp = sub.add_parser("moments", parents=[poly_in],
                        help="moments of the root distribution")
    sp.add_argument("--N", type=int, required=True,
                    help="number of moments, at most %d" % MAX_MOMENTS)

    sp = sub.add_parser("coeffs", help="polynomial from cumulants or moments")
    sp.add_argument("data", help="JSON with 'kappa' or with 'm'")
    sp.add_argument("--d", type=int, default=None,
                    help="degree (required for moment input without 'd')")

    sub.add_parser("rtransform", parents=[poly_in],
                   help="truncated R-transform coefficients")

    sp = sub.add_parser("family", help="Hermite and Poisson families")
    sp.add_argument("which", choices=["hermite", "poisson"])
    sp.add_argument("--d", type=int, required=True,
                    help="degree, at most %d" % MAX_DEGREE)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="poisson rate, d*lambda a positive integer, numerator "
                         "and denominator at most 10^2000")
    sp.add_argument("--marcus", action="store_true",
                    help="hermite with variance 1 - 1/d")

    sp = sub.add_parser("converge",
                        help="finite-to-free cumulant convergence report")
    sp.add_argument("--r", required=True,
                    help="comma list of free cumulants, numerators and "
                         "denominators at most %d" % MAX_R_PART)
    sp.add_argument("--n", type=int, required=True,
                    help="cumulant order, at most %d divided by the square "
                         "root of the number of --d values" % MAX_CONVERGE_N)
    sp.add_argument("--d", required=True,
                    help="comma list of degrees, each at most %d" % MAX_CONVERGE_D)

    sub.add_parser("check-id", parents=[poly_in],
                   help="infinite divisibility report")

    sp = sub.add_parser("threshold", parents=[poly_in],
                        help="real-rootedness threshold for convolution powers")
    sp.add_argument("--tmax", required=True,
                    help="largest power probed, at most 2^64")
    sp.add_argument("--steps", type=int, default=16,
                    help="bisection steps, at most %d" % MAX_STEPS)

    sp = sub.add_parser("cramer",
                        help="Cramer-failure pair with third cumulant +-eps")
    sp.add_argument("--d", type=int, required=True,
                    help="degree, at most %d" % MAX_DEGREE)
    sp.add_argument("--eps", required=True,
                    help="rational >= 0 with numerator and denominator at most %d"
                         % MAX_EPS_PART)

    sp = sub.add_parser("verify-mc", help="Monte-Carlo check of the convolution")
    sp.add_argument("p")
    sp.add_argument("q")
    sp.add_argument("--samples", type=int, default=100000,
                    help="sample pairs, at most %d" % MAX_SAMPLES)
    sp.add_argument("--seed", type=int, default=0, help="random seed")

    sp = sub.add_parser("partitions",
                        help="list set partitions, types, and counts")
    sp.add_argument("--n", type=int, required=True,
                    help="ground-set size, at most %d (%d with --types)"
                         % (MAX_LIST_N, MAX_TYPES_N))
    sp.add_argument("--noncrossing", action="store_true")
    sp.add_argument("--types", action="store_true",
                    help="one row per integer partition of n, n at most %d"
                         % MAX_TYPES_N)

    return top


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"type": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    head = args[0] if args else None
    if head not in _COMMANDS and head not in ("-h", "--help"):
        _emit_error(
            "UnknownCommand",
            "expected one of: %s" % ", ".join(sorted(_COMMANDS)),
        )
        return 2
    try:
        ns = _build_parser().parse_args(args)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 3
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        result = _COMMANDS[ns.command](ns)
        text = result if isinstance(result, str) else json.dumps(result, indent=2)
    except FinFreeError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
