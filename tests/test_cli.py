"""End-to-end command line checks, run in process through main(argv)."""

import json
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from finfree import MonicPoly
from finfree.cli import (
    _COMMANDS,
    MAX_CONVERGE_D,
    MAX_CONVERGE_N,
    MAX_DEGREE,
    MAX_EPS_PART,
    MAX_JSON_BYTES,
    MAX_LAMBDA_PART,
    MAX_LIST_N,
    MAX_MC_DEGREE,
    MAX_MOMENTS,
    MAX_R_PART,
    MAX_SAMPLES,
    MAX_STEPS,
    MAX_T_PART,
    MAX_TMAX,
    MAX_TYPES_N,
    main,
)

SEMICIRCLE2 = '{"degree": 2, "a": ["1", "0", "-1/2"]}'
# roots 0..d-1, one degree either side of the verify-mc bound
POLY12, POLY13 = (json.dumps(MonicPoly.from_roots(range(d)).to_json()) for d in (12, 13))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def readme_examples():
    """The finfree lines of README's Command line block, split as a shell would."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("finfree ")]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # every documented example exits 0 with one JSON object and no stderr;
    # verify-mc reads p.json and q.json from the working directory
    monkeypatch.chdir(tmp_path)
    for name, roots in (("p.json", [1, -1]), ("q.json", [0, 2])):
        (tmp_path / name).write_text(json.dumps(MonicPoly.from_roots(roots).to_json()))
    examples = readme_examples()
    assert len(examples) >= 16
    for argv in examples:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        assert isinstance(json.loads(captured.out), dict), argv


def test_convolve(capsys):
    x2 = '{"degree": 2, "a": ["1", "0", "0"]}'
    code, out, _ = run(capsys, "convolve", SEMICIRCLE2, x2)
    assert code == 0
    assert out == {"degree": 2, "a": ["1", "0", "-1/2"]}


def test_convolve_self(capsys):
    code, out, _ = run(capsys, "convolve", SEMICIRCLE2, SEMICIRCLE2)
    assert code == 0
    assert out["a"] == ["1", "0", "-1"]


def test_power(capsys):
    code, out, _ = run(capsys, "power", SEMICIRCLE2, "--t", "2")
    assert code == 0
    assert out["a"] == ["1", "0", "-1"]


def test_cumulants_example(capsys):
    code, out, _ = run(capsys, "cumulants", SEMICIRCLE2)
    assert code == 0
    assert out == {"d": 2, "variant": "standard", "kappa": ["0", "1"]}


def test_a_list_that_starts_with_a_minus_sign_takes_the_equals_form(capsys):
    # argparse reads a separate "-1,2" as a flag, not as the value of --roots
    code, out, err = run(capsys, "cumulants", "--roots=-1,2")
    assert code == 0 and err is None
    assert out == {"d": 2, "variant": "standard", "kappa": ["1/2", "9/2"]}
    code, out, err = run(capsys, "cumulants", "--roots", "-1,2")
    assert code == 3 and out is None and err["error"]["type"] == "UsageError"


def test_cumulants_rescaled(capsys):
    code, out, _ = run(capsys, "cumulants", SEMICIRCLE2, "--rescaled")
    assert code == 0
    assert out["variant"] == "rescaled" and out["kappa"] == ["0", "1/2"]


def test_moments(capsys):
    code, out, _ = run(capsys, "moments", "--roots", "1,-1", "--N", "4")
    assert code == 0
    assert out["m"] == ["0", "1", "0", "1"]


def test_coeffs_from_cumulants(capsys):
    code, out, _ = run(
        capsys, "coeffs", '{"d": 2, "variant": "standard", "kappa": ["0", "1"]}'
    )
    assert code == 0
    assert out == {"degree": 2, "a": ["1", "0", "-1/2"]}


def test_coeffs_from_moments(capsys):
    # m2 = 1 at degree 2 is the root pair {1, -1}
    code, out, _ = run(capsys, "coeffs", '{"m": ["0", "1"]}', "--d", "2")
    assert code == 0
    assert out["a"] == ["1", "0", "-1"]
    # without --d and without an embedded degree there is nothing to target
    code, _, err = run(capsys, "coeffs", '{"m": ["0", "1"]}')
    assert code == 3 and err["error"]["type"] == "InputFormatError"


def test_rtransform(capsys):
    code, out, _ = run(capsys, "rtransform", SEMICIRCLE2)
    assert code == 0
    assert out == {"var": "s", "coeffs": ["0", "1"]}


def test_family_poisson_example(capsys):
    code, out, _ = run(capsys, "family", "poisson", "--lambda", "1/4", "--d", "4")
    assert code == 0
    assert out == {"degree": 4, "a": ["1", "1", "0", "0", "0"]}


def test_family_hermite(capsys):
    code, out, _ = run(capsys, "family", "hermite", "--d", "2")
    assert code == 0
    assert out["a"] == ["1", "0", "-1/2"]
    code, out, _ = run(capsys, "family", "hermite", "--d", "2", "--marcus")
    assert out["a"] == ["1", "0", "-1/4"]


def test_converge_pads_short_vector(capsys):
    code, out, _ = run(
        capsys, "converge", "--r", "0,1,1", "--n", "4", "--d", "16,32"
    )
    assert code == 0
    assert out["free_kappa"] == "0"
    assert [row["d"] for row in out["rows"]] == [16, 32]


def test_check_id(capsys):
    code, out, _ = run(capsys, "check-id", "--roots", "1,-1")
    assert code == 0
    assert out["verdict"] == "infinitely_divisible"


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "--roots", "1,-1", "--tmax", "16")
    assert code == 0
    assert out == {"threshold": "1/16"}


def test_cramer(capsys):
    code, out, _ = run(capsys, "cramer", "--d", "4", "--eps", "1/32")
    assert code == 0
    assert out["p_plus_real_rooted"] and out["p_minus_real_rooted"]
    assert out["convolution"]["degree"] == 4


def test_verify_mc(capsys):
    code, out, _ = run(
        capsys, "verify-mc", SEMICIRCLE2, SEMICIRCLE2, "--samples", "5000",
        "--seed", "4",
    )
    assert code == 0
    assert out["all_pass"] is True
    assert out["exact"]["a"] == ["1", "0", "-1"]
    assert len(out["per_coefficient"]) == 3


@pytest.mark.parametrize("q_roots", [[3] * 6, [0] * 6])
def test_verify_mc_on_a_six_fold_root(capsys, q_roots):
    # the Jacobi matrix of (x - 3)^6 is 3I, so every sample is exact; roots
    # found in floating point would spread the six-fold root by about 1e-3
    p = json.dumps(MonicPoly.from_roots([3] * 6).to_json())
    q = json.dumps(MonicPoly.from_roots(q_roots).to_json())
    code, out, _ = run(capsys, "verify-mc", p, q, "--samples", "100000")
    assert code == 0 and out["all_pass"] is True
    for row in out["per_coefficient"]:
        exact = float(Fraction(row["exact"]))
        assert abs(row["mean"] - exact) <= 1e-9 * max(1.0, abs(exact)), row


def _no_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_verify_mc_stays_in_the_float_range():
    # each input ends in exit 5 with one JSON error, or exit 0 with finite,
    # standard JSON; never a traceback, NaN, Infinity or a numpy warning
    def poly(roots):
        return json.dumps(MonicPoly.from_roots(roots).to_json())

    big = '{"degree": 2, "a": ["1", "0", "-1e400"]}'
    tiny = '{"degree": 2, "a": ["1", "0", "-1e-400"]}'
    wide = poly([s * k * 10**22 for k in range(1, 7) for s in (1, -1)])
    cases = (
        (["verify-mc", big, big, "--samples", "1000"], 5),
        (["verify-mc", tiny, tiny, "--samples", "1000"], 5),
        (["verify-mc", poly([k * 10**30 for k in range(12)]), POLY12, "--samples", "1000"], None),
        (["verify-mc", wide, wide, "--samples", "1000"], None),
    )
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "finfree.cli"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode in ((want,) if want else (0, 5)), argv
        if proc.returncode == 5:
            assert proc.stdout == ""
            assert set(json.loads(proc.stderr)) == {"error"}
            assert proc.stderr.count("\n") == 1
        else:
            assert proc.stderr == ""
            json.loads(proc.stdout, parse_constant=_no_constant)


def test_partitions_listing(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3")
    assert code == 0
    assert out["count"] == 5
    assert out["partitions"][0]["partition"] == "{1,2,3}"
    code, out, _ = run(capsys, "partitions", "--n", "4", "--noncrossing")
    assert out["count"] == 14
    code, out, _ = run(capsys, "partitions", "--n", "3", "--types")
    assert sum(row["count_all"] for row in out["types"]) == 5


def test_unknown_command_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert err["error"]["type"] == "UnknownCommand"
    assert main([]) == 2
    capsys.readouterr()


def test_malformed_input_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "convolve", '{"degree": 2', "{}")
    assert code == 3 and err["error"]["type"] == "InputFormatError"
    # non-monic leading coefficient
    code, _, err = run(
        capsys, "convolve", '{"degree": 2, "a": ["2", "0", "0"]}',
        '{"degree": 2, "a": ["1", "0", "0"]}',
    )
    assert code == 3 and err["error"]["type"] == "NonMonicError"
    # missing required flag
    code, _, err = run(capsys, "moments", "--roots", "1,-1")
    assert code == 3 and err["error"]["type"] == "UsageError"
    # both a polynomial and --roots
    code, _, err = run(capsys, "cumulants", SEMICIRCLE2, "--roots", "1,-1")
    assert code == 3 and err["error"]["type"] == "InputFormatError"
    # exact JSON of the wrong shape: a number or a string where an array of
    # rationals belongs, or top-level JSON that is not an object
    five = tmp_path / "five.json"
    five.write_text("5")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for argv in (
        ["cumulants", '{"degree": 2, "a": 5}'],
        ["cumulants", '{"degree": 2, "a": "123"}'],
        ["coeffs", '{"d": 2, "kappa": 7}'],
        ["coeffs", '{"d": 2, "kappa": "01"}'],
        ["coeffs", '{"m": "01", "d": 2}'],
        ["coeffs", str(five)],
        ["cumulants", str(five)],
        ["convolve", str(undecodable), SEMICIRCLE2],
        # an input that the command would silently drop
        ["cumulants", "--roots", "1,-1", "--plain", "1,0,5"],
        ["coeffs", '{"d":2,"kappa":["0","1"],"m":["5","7"]}'],
        ["coeffs", '{"d":2,"kappa":["0","1"]}', "--d", "7"],
        ["coeffs", '{"m":["0","1"],"d":3}', "--d", "2"],
        ["partitions", "--n", "3", "--types", "--noncrossing"],
        ["family", "hermite", "--d", "3", "--lambda", "5"],
        ["family", "poisson", "--d", "4", "--lambda", "1", "--marcus"],
        # a degree below 1, as coeffs refuses it
        ["family", "hermite", "--d", "0"],
        ["family", "hermite", "--d", "-1", "--marcus"],
        ["family", "poisson", "--d", "0", "--lambda", "1"],
        ["coeffs", '{"m":["1"],"d":0}'],
        # a field the record does not take, an empty item in a comma list
        ["coeffs", '{"d":2,"kappa":["0","1"],"varient":"rescaled"}'],
        ["cumulants", '{"degree":2,"a":["1","0","-1/2"],"roots":["5","7"]}'],
        ["coeffs", '{"m":["0","1"],"d":2,"extra":1}'],
        ["cumulants", "--roots", "1,,2"],
        ["cumulants", "--roots", "1,2,"],
        ["converge", "--r", "0,1", "--n", "2", "--d", "16,,32"],
        ["threshold", "--roots", "0,0,1,3", "--tmax", "16", "--steps", "-1"],
        ["converge", "--r", "0,1", "--n", "0", "--d", "16"],
        ["converge", "--r", "0,1", "--n", "-2", "--d", "16"],
        # d + 1 has one digit more than the interpreter prints
        ["cumulants", '{"degree":%s,"a":["1"]}' % ("9" * 4300)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out is None and err["error"]["type"] == "InputFormatError", argv


def test_size_cap_exits_4(capsys):
    code, _, err = run(capsys, "partitions", "--n", "15")
    assert code == 4 and err["error"]["type"] == "SizeCapError"
    code, _, err = run(capsys, "partitions", "--n", "13")
    assert code == 4 and err["error"]["type"] == "SizeCapError"
    code, _, err = run(capsys, "converge", "--r", "0,1", "--n", "113", "--d", "200")
    assert code == 4 and err["error"]["type"] == "SizeCapError"
    # raising the cap on the command line clears it
    code, out, _ = run(capsys, "partitions", "--n", "13", "--types")
    assert code == 0 and out["n"] == 13


def test_domain_errors_exit_5(capsys):
    code, _, err = run(capsys, "power", SEMICIRCLE2, "--t", "0")
    assert code == 5 and err["error"]["type"] == "DomainError"
    code, _, err = run(capsys, "family", "poisson", "--lambda", "1/3", "--d", "4")
    assert code == 5 and err["error"]["type"] == "DomainError"
    code, _, err = run(capsys, "check-id", "--plain", "1,0,1")
    assert code == 5 and err["error"]["type"] == "DomainError"


def test_plain_input_and_file_input(tmp_path, capsys):
    code, out, _ = run(capsys, "cumulants", "--plain", "1,0,-1/2")
    assert code == 0 and out["kappa"] == ["0", "1"]
    path = tmp_path / "p.json"
    path.write_text(SEMICIRCLE2)
    code, out, _ = run(capsys, "cumulants", str(path))
    assert code == 0 and out["kappa"] == ["0", "1"]


def test_config_file_with_flag_precedence(tmp_path, capsys):
    # the seed is a verify-mc flag; there is no config file to set it
    mc = ["verify-mc", SEMICIRCLE2, SEMICIRCLE2, "--samples", "1000"]
    _, seed3, _ = run(capsys, *mc, "--seed", "3")
    _, seed5, _ = run(capsys, *mc, "--seed", "5")
    assert seed3["estimate"] != seed5["estimate"]
    code, out, _ = run(capsys, *mc, "--seed", "3")
    assert code == 0 and out == seed3
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 3}')
    code, out, err = run(capsys, *mc, "--config", str(cfg))
    assert code == 3 and out is None and err["error"]["type"] == "UsageError"


# argv that each exact command accepts; only verify-mc takes --seed
EXACT_COMMANDS = {
    "convolve": [SEMICIRCLE2, SEMICIRCLE2],
    "power": ["--roots", "1,-1", "--t", "2"],
    "cumulants": ["--roots", "1,-1"],
    "moments": ["--roots", "1,-1", "--N", "2"],
    "coeffs": ['{"m": ["0", "1"]}', "--d", "2"],
    "rtransform": ["--roots", "1,-1"],
    "family": ["hermite", "--d", "2"],
    "converge": ["--r", "0,1", "--n", "2", "--d", "4"],
    "check-id": ["--roots", "1,-1"],
    "threshold": ["--roots", "1,-1", "--tmax", "16"],
    "cramer": ["--d", "4", "--eps", "1/32"],
    "partitions": ["--n", "3"],
}


def test_exact_commands_refuse_settings(tmp_path, capsys):
    assert sorted(EXACT_COMMANDS) + ["verify-mc"] == sorted(_COMMANDS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 1e-9, "seed": 0}')
    for command, argv in EXACT_COMMANDS.items():
        code, out, _ = run(capsys, command, *argv)
        assert code == 0 and out is not None, command
        for flag in (["--tol", "1e-9"], ["--seed", "0"], ["--config", str(cfg)]):
            code, out, err = run(capsys, command, *argv, *flag)
            assert code == 3 and out is None, (command, flag)
            assert err["error"]["type"] == "UsageError", (command, flag)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "convolve" in capsys.readouterr().out


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finfree.cli", "cumulants", SEMICIRCLE2],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kappa"] == ["0", "1"]


def test_round_trip_through_cli_json(capsys):
    code, kj, _ = run(capsys, "cumulants", "--roots", "1,2,4")
    assert code == 0
    code, pj, _ = run(capsys, "coeffs", json.dumps(kj))
    assert code == 0
    code, kj2, _ = run(capsys, "cumulants", json.dumps(pj))
    assert code == 0 and kj2 == kj


def test_conversions_have_no_partition_cap(capsys):
    roots = ",".join(str(i) for i in range(1, 14))
    code, out, _ = run(capsys, "cumulants", "--roots", roots)
    assert code == 0 and len(out["kappa"]) == 13 and out["kappa"][0] == "7"
    # the partition cap is a constant: there is no --nmax to set it
    code, out, err = run(capsys, "partitions", "--n", "5", "--nmax", "6")
    assert code == 3 and out is None and err["error"]["type"] == "UsageError"


def test_documented_errors_keep_their_codes(capsys):
    code, _, err = run(capsys, "moments", "--roots", "1,-1", "--N", "0")
    assert code == 3 and err["error"]["type"] == "InputFormatError"
    # an integer degree below the cumulant order
    code, _, err = run(capsys, "converge", "--r", "0,1", "--n", "4", "--d", "3")
    assert code == 5 and err["error"]["type"] == "DomainError"
    # a non-integral degree is reported as written
    for argv in (["converge", "--r", "0,1", "--n", "2", "--d", "5/2"],
                 ["coeffs", '{"m":["0","1"],"d":"5/2"}']):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err["error"]["type"] == "InputFormatError", argv
        assert err["error"]["message"].endswith("must be an integer, got 5/2"), argv


def test_big_rational_literals(capsys):
    # refused before the integer is built, however large the exponent
    for roots in ("1e5000,0", "1e10000000,0", "1e-5000,0"):
        start = time.perf_counter()
        code, out, err = run(capsys, "cumulants", "--roots", roots)
        assert code == 3 and out is None and err["error"]["type"] == "InputFormatError"
        assert time.perf_counter() - start < 1.0
    # inputs that parse, with a result too long to print
    big = '{"degree": 2, "a": ["1", "1e4000", "0"]}'
    code, out, err = run(capsys, "convolve", big, big)
    assert code == 5 and out is None and err["error"]["type"] == "DomainError"
    code, out, err = run(capsys, "cumulants", "{\"degree\": 1, \"a\": [\"1\", %s]}" % ("7" * 5000))
    assert code == 3 and out is None and err["error"]["type"] == "InputFormatError"


def test_degrees_must_be_integers(capsys):
    inputs = [
        ("cumulants", '{"degree": true, "a": ["1", "2"]}'),
        ("cumulants", '{"degree": 2.5, "a": ["1", "2", "3"]}'),
        ("coeffs", '{"d": true, "kappa": ["1"]}'),
        ("coeffs", '{"d": 2.5, "kappa": ["0", "1"]}'),
        ("coeffs", '{"m": ["0", "1"], "d": true}'),
        ("coeffs", '{"m": ["0", "1"], "d": 2.5}'),
    ]
    for cmd, doc in inputs:
        code, out, err = run(capsys, cmd, doc)
        assert code == 3 and out is None and err["error"]["type"] == "InputFormatError", doc
    # integral values in other spellings still parse
    code, out, _ = run(capsys, "coeffs", '{"d": 2.0, "kappa": ["0", "1"]}')
    assert code == 0 and out["degree"] == 2


def test_no_command_takes_a_tolerance(tmp_path, capsys):
    # verify-mc finds no roots, so it has no tolerance to set
    mc = ["verify-mc", SEMICIRCLE2, SEMICIRCLE2, "--samples", "1000"]
    for tol in ("1e-9", "nan"):
        code, out, err = run(capsys, *mc, "--tol", tol)
        assert code == 3 and out is None and set(err) == {"error"}, tol
        assert err["error"]["type"] == "UsageError", tol
    code, _, err = run(capsys, *mc, "--seed", "-1")
    assert code == 3 and err["error"]["type"] == "InputFormatError"
    code, out, _ = run(capsys, *mc)
    assert code == 0 and out["all_pass"]
    # the exact commands take no tolerance and no config file
    code, _, err = run(capsys, "check-id", "--roots", "1,-1", "--tol", "nan")
    assert code == 3 and err["error"]["type"] == "UsageError"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": "abc"}')
    code, _, err = run(capsys, "family", "hermite", "--d", "2", "--config", str(cfg))
    assert code == 3 and err["error"]["type"] == "UsageError"


def test_degree_mismatch_is_one_error_type(capsys):
    # convolve and verify-mc refuse different degrees alike
    for cmd in ("convolve", "verify-mc"):
        code, out, err = run(capsys, cmd, SEMICIRCLE2, POLY12)
        assert code == 5 and out is None, cmd
        assert err["error"] == {"type": "DimensionError", "message": "degree mismatch: 2 vs 12"}, cmd


def test_partitions_needs_n_at_least_1(capsys):
    for argv in (["--n", "0"], ["--n", "0", "--types"], ["--n", "-1"], ["--n", "-1", "--types"]):
        code, out, err = run(capsys, "partitions", *argv)
        assert code == 3 and out is None and err["error"]["type"] == "InputFormatError", argv


def test_fixed_bounds_exit_4(capsys):
    for argv in (
        ["cramer", "--d", "101", "--eps", "1/32"],
        ["cramer", "--d", "1000000000", "--eps", "1/32"],
        ["cramer", "--d", "4", "--eps", "1e-100"],
        ["cramer", "--d", "4", "--eps", "1/257"],
        ["cramer", "--d", "4", "--eps", "257"],
        ["family", "hermite", "--d", "101"],
        ["family", "poisson", "--lambda", "1", "--d", "101"],
        # parts of --lambda past MAX_LAMBDA_PART, checked before any work
        ["family", "poisson", "--lambda", "1e4000", "--d", "100"],
        ["family", "poisson", "--lambda", str(10**2000 + 1), "--d", "1"],
        ["family", "poisson", "--lambda=-%d" % (10**2000 + 1), "--d", "1"],
        ["family", "poisson", "--lambda", "1/%d" % (10**2000 + 1), "--d", "1"],
        ["partitions", "--n", "31", "--types"],
        ["partitions", "--n", "1000000000", "--types"],
        ["partitions", "--n", "11"],
        ["partitions", "--n", "13", "--noncrossing"],
        ["converge", "--r", "0,1", "--n", "113", "--d", "200"],
        # n^2 times the number of --d values past MAX_CONVERGE_N^2
        ["converge", "--r", "0,1", "--n", "57", "--d", "100,101,102,103"],
        ["converge", "--r", "0,1", "--n", "1", "--d", ",".join(["16"] * (112**2 + 1))],
        # parts of each --r entry past MAX_R_PART, read or not
        ["converge", "--r", "0,1,101", "--n", "2", "--d", "16"],
        ["converge", "--r=-101,1", "--n", "2", "--d", "16"],
        ["converge", "--r", "0,1/101", "--n", "2", "--d", "16"],
        ["converge", "--r", "0,1,1,1e20", "--n", "2", "--d", "16"],
        ["moments", "--roots", "1,-1/3", "--N", "1001"],
        ["power", "--roots", "1,-1", "--t", "1e4000"],
        ["power", "--roots", "1,-1", "--t", "18446744073709551617"],
        ["power", "--roots", "1,-1", "--t", "1/18446744073709551617"],
        ["threshold", "--roots", "0,0,1,3", "--tmax", "16", "--steps", "201"],
        ["threshold", "--roots", "0,0,1,3", "--tmax", "1e4000"],
        ["threshold", "--roots", "0,0,1,3", "--tmax", "18446744073709551617"],
        ["threshold", "--roots", "0,0,1,3", "--tmax", "36893488147419103233/2"],
        ["converge", "--r", "0,1,1", "--n", "12", "--d", "16,1000000000001"],
        ["converge", "--r", "0,1,1", "--n", "12", "--d", "1e4000"],
        ["verify-mc", SEMICIRCLE2, SEMICIRCLE2, "--samples", "1000001"],
        ["verify-mc", POLY13, POLY13, "--samples", "1000"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out is None and err["error"]["type"] == "SizeCapError", argv
    # a refused value of thousands of digits is shortened in the error line
    for argv in (
        ["threshold", "--roots", "0,1", "--tmax", "1e4000"],
        ["power", "--roots", "0,1", "--t", "1e4000"],
        ["converge", "--r", "0,1,1", "--n", "12", "--d", "1e4000"],
        ["converge", "--r", "0,1e4000", "--n", "2", "--d", "16"],
        ["family", "poisson", "--lambda", "1e4000", "--d", "100"],
    ):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert len(err.encode()) < 300, argv
        assert json.loads(err)["error"]["type"] == "SizeCapError"


def test_json_files_are_read_up_to_a_bound(tmp_path, capsys):
    # an endless file is refused after MAX_JSON_BYTES + 1 bytes, not read into memory
    start = time.perf_counter()
    code, out, err = run(capsys, "convolve", "/dev/zero", "/dev/zero")
    assert code == 4 and out is None and err["error"]["type"] == "SizeCapError"
    assert time.perf_counter() - start < 5.0
    # the bound itself is allowed, one byte more is not
    path = tmp_path / "padded.json"
    path.write_text(SEMICIRCLE2.ljust(MAX_JSON_BYTES))
    code, out, _ = run(capsys, "cumulants", str(path))
    assert code == 0 and out["kappa"] == ["0", "1"]
    path.write_text(SEMICIRCLE2.ljust(MAX_JSON_BYTES + 1))
    code, out, err = run(capsys, "cumulants", str(path))
    assert code == 4 and out is None and err["error"]["type"] == "SizeCapError"


def test_largest_allowed_sizes(capsys):
    assert (MAX_DEGREE, MAX_TYPES_N, MAX_LIST_N) == (100, 30, 10)
    assert (MAX_MOMENTS, MAX_STEPS, MAX_SAMPLES) == (1000, 200, 10**6)
    assert (MAX_TMAX, MAX_CONVERGE_D, MAX_MC_DEGREE) == (2**64, 10**12, 12)
    assert (MAX_CONVERGE_N, MAX_R_PART, MAX_LAMBDA_PART) == (112, 100, 10**2000)
    assert (MAX_EPS_PART, MAX_T_PART, MAX_JSON_BYTES) == (256, 2**64, 2**24)
    code, out, _ = run(capsys, "cramer", "--d", "100", "--eps", "1/32")
    assert code == 0 and out["convolution"]["degree"] == 100
    code, out, _ = run(capsys, "family", "hermite", "--d", "100")
    assert code == 0 and out["degree"] == 100
    code, out, _ = run(capsys, "family", "poisson", "--lambda", "1", "--d", "100")
    assert code == 0 and out["degree"] == 100
    # parts of --lambda at MAX_LAMBDA_PART pass the bound
    code, out, _ = run(capsys, "family", "poisson", "--lambda", str(10**2000), "--d", "1")
    assert code == 0 and out == {"degree": 1, "a": ["1", str(10**2000)]}
    code, _, err = run(capsys, "family", "poisson", "--lambda", "1/%d" % 10**2000, "--d", "1")
    assert code == 5 and err["error"]["type"] == "DomainError"  # d*lambda not an integer
    code, out, _ = run(capsys, "partitions", "--n", "30", "--types")
    assert code == 0 and len(out["types"]) == 5604  # integer partitions of 30
    code, out, _ = run(capsys, "partitions", "--n", "10")
    assert code == 0 and out["count"] == 115975  # Bell(10)
    code, out, _ = run(capsys, "moments", "--roots", "1,-1/3", "--N", "1000")
    assert code == 0 and out["m"][999] == str((1 + Fraction(-1, 3) ** 1000) / 2)
    # x^2 - 1 to the power t is x^2 - t
    for t in (str(2**64), "%d/%d" % (2**64 - 1, 2**64)):
        code, out, _ = run(capsys, "power", "--roots", "1,-1", "--t", t)
        assert code == 0 and out == {"degree": 2, "a": ["1", "0", "-" + t]}
    code, out, _ = run(capsys, "threshold", "--roots", "0,0,1,3", "--tmax", str(2**64))
    assert code == 0 and out["threshold"] is not None
    code, out, _ = run(capsys, "converge", "--r", "0,1,1", "--n", "12", "--d", "16,1000000000000")
    assert code == 0 and [row["d"] for row in out["rows"]] == [16, 10**12]
    # n^2 times the number of --d values at MAX_CONVERGE_N^2
    for n, d_values in ((112, "112"), (56, "56,57,58,59")):
        code, out, _ = run(capsys, "converge", "--r", "0,1", "--n", str(n), "--d", d_values)
        assert code == 0 and out["n"] == n and len(out["rows"]) == len(d_values.split(","))
    # parts of --r at MAX_R_PART
    code, out, _ = run(capsys, "converge", "--r=-100,100,1/100,-99/100", "--n", "4", "--d", "16")
    assert code == 0 and out["free_kappa"] == "-99/100"
    code, out, _ = run(capsys, "verify-mc", POLY12, POLY12, "--samples", "1000")
    assert code == 0 and out["estimate"]["d"] == 12 and out["all_pass"]
