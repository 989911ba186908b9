"""Mutation check for the exact series kernels, the free side's Lagrange
step, boxplus, the threshold search with its power family, the exact PSD
elimination behind the conditional-PSD test, the Sturm chain, the
squarefree certificate and the continued-fraction isolation, the Monte
Carlo oracle's exact input path, its characteristic polynomials and
Householder reflector, and the set partition walk with the values and the
listing built on it, the partition values' checked constructors, and the
polynomial values' derived degree, checked constructors and JSON readers,
the one gate for an integer size, and the moment side's three one-site
rules: the moment reader, the order rule and the degree-pair check.

Each mutant is one small edit to one kernel, made with ast in a temporary
copy of src/, never in the tree itself.  The operators: swap + and -, shift
a range bound, an index or a slice bound by one, turn < into <= and back
(> and >= likewise), negate a condition, drop one term of a sum or
difference, drop one factor of a product, drop a minus sign or a
one-argument helper call such as _alternate(x), and offset a len(...) or
sum(...) call by one.  Each mutant runs its kernel's test selection with
pytest -x against the copy; a failing run kills it, and so does a run
that takes SLOWDOWN times as long as the unmutated run of the same
selection, which the script makes first, or that outgrows
MAX_ADDRESS_SPACE.  The script prints each mutant's wall time and
outcome (killed, timeout for a run the timeout cut, or survived), then
killed against survived for each kernel, listing every survivor.  Pytest
does not collect this file; run it as

    python tests/mutants.py [KERNEL ...]
"""

from __future__ import annotations

import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SERIES_TESTS = ["tests/test_kernels.py", "tests/test_transforms.py", "tests/test_freeprob.py"]
DIV = "tests/test_divisibility.py::"
# every threshold test, named so that pytest runs them in this order: the
# sub-second answer, probe-count and error tests first, so that most
# mutants die before the full-grid reference and the Hermite sweep run
THRESHOLD_FAST = [DIV + t for t in (
    "test_threshold_search_over_every_grid_length",
    "test_threshold_poisson_quarter", "test_threshold_probes_no_integer_point_it_can_decide",
    "test_threshold_probes_no_point_twice", "test_threshold_runs_no_fraction_series",
    "test_threshold_refuses_bad_arguments", "test_threshold_none_when_tmax_too_small",
    "test_threshold_rejects_x_power", "test_threshold_rejects_nonpositive_tmax")]
THRESHOLD_SLOW = [DIV + "test_threshold_matches_full_grid_search",
                  DIV + "test_threshold_hermite_first_grid_point"]
THRESHOLD_TESTS = THRESHOLD_FAST + THRESHOLD_SLOW
POWER_TESTS = [DIV + "test_power_family_is_the_primitive_form_of_the_power", *THRESHOLD_FAST,
               DIV + "test_power_family_at_large_degree", *THRESHOLD_SLOW]
# the plain-coefficient scaling serves the threshold's power family and
# moments_from_cumulants: the family's == tests, then the series tests
PLAIN_TESTS = [DIV + "test_power_family_is_the_primitive_form_of_the_power",
               DIV + "test_power_family_at_large_degree", *SERIES_TESTS]
# the Sturm chain: the == reference and its gcd count first, then the
# counts of is_real_rooted, against Hermite's criterion and by Rolle's
# theorem; the hypothesis test runs after the plain count tests, since on a
# failure it shrinks its example for about 30 s
STURM_TESTS = ["tests/test_kernels.py::test_sturm_chain_matches_the_reference",
               "tests/test_kernels.py::test_sturm_chain_takes_one_gcd_per_element",
               "tests/test_kernels.py::test_isolation_counts_match_the_chain",
               "tests/test_polynomial.py::test_distinct_real_root_count",
               "tests/test_polynomial.py::test_is_real_rooted_three_answers",
               "tests/test_polynomial.py::test_real_rooted_random_from_roots",
               "tests/test_properties.py::test_sturm_agrees_with_hermite",
               "tests/test_kernels.py::test_rolle_gives_real_rooted_derivatives"]
# the squarefree certificate: its refusals of repeated roots and unlucky
# primes, then its certificates on squarefree input
CERT_TESTS = ["tests/test_kernels.py::" + t for t in (
    "test_repeated_roots_fall_back_to_the_chain",
    "test_an_unlucky_prime_falls_back_to_the_chain",
    "test_isolation_counts_match_the_chain")]
# the isolation and its helpers: the shift against the Fraction synthetic
# division, the root bound's two sides and the isolation's shift counts
# first, then the counts == to the chain's, where an isolation that stops at
# its loop bound fails too, and Rolle's theorem
ISOLATION_TESTS = ["tests/test_kernels.py::" + t for t in (
    "test_taylor_shift_matches_the_fraction_synthetic_division",
    "test_root_bound_is_rigorous_and_within_16_d",
    "test_isolation_makes_few_taylor_shifts", "test_isolation_counts_match_the_chain",
    "test_repeated_roots_fall_back_to_the_chain",
    "test_an_unlucky_prime_falls_back_to_the_chain",
    "test_rolle_gives_real_rooted_derivatives")]
# the shift serves translate too: then its == references
SHIFT_TESTS = ISOLATION_TESTS + [
    "tests/test_kernels.py::test_root_maps_match_the_fraction_recurrences"]
# boxplus: the permutation-sum oracle first, then cumulant additivity on it,
# the formula's Fraction reference and the cumulant path
BOXPLUS_TESTS = ["tests/test_convolution.py::" + t for t in (
    "test_boxplus_is_the_permutation_sum", "test_cumulants_add_on_the_permutation_sum",
    "test_additivity_two_paths")] + [
    "tests/test_kernels.py::test_weighted_paths_and_boxplus_match_the_reference"]
# the oracle's exact input path, roots to Jacobi matrix: the Jacobi
# eigenvalue and refusal tests and the zero-spread MC tests first, then the
# == references of the centred dilate's Jacobi matrix, from_roots and translate
ORACLE_TESTS = ["tests/test_matrix_oracle.py::" + t for t in (
    "test_jacobi_matrix_has_the_rational_roots_as_eigenvalues",
    "test_jacobi_refuses_non_real_roots", "test_mc_identity_has_zero_spread",
    "test_mc_reproduces_repeated_roots_against_x_power",
    "test_mc_identical_samples_have_no_spread", "test_pass_rule_on_zero_spread_pairs")] + [
    "tests/test_kernels.py::test_jacobi_of_the_centred_dilate_is_the_old_shift_and_scale",
    "tests/test_kernels.py::test_root_maps_match_the_fraction_recurrences"]
# the oracle's float kernels, the characteristic polynomials and the
# reflector that both they and the Haar conjugates apply: the
# characteristic polynomial tests first (examples, the per-coefficient
# accuracy on exact Jacobi matrices, the exact Faddeev-LeVerrier
# reference), then the reflector's own tests, the conjugates against the
# explicit reflector product and the Haar moments, then the MC estimates
CHAR_POLY_TESTS = ["tests/test_matrix_oracle.py::" + t for t in (
    "test_char_poly_examples", "test_char_poly_keeps_every_coefficient_to_relative_rounding",
    "test_batched_char_poly_matches_exact_faddeev_leverrier",
    "test_reflect_reduces_the_column_it_is_built_from",
    "test_reflect_of_a_zero_vector_is_the_identity", "test_haar_d1",
    "test_conjugates_are_the_reflector_product", "test_conjugates_have_the_haar_moments",
    "test_mc_identity_has_zero_spread", "test_mc_reproduces_repeated_roots_against_x_power",
    "test_mc_identical_samples_have_no_spread", "test_mc_centring_keeps_the_small_coefficients",
    "test_pass_rule_on_zero_spread_pairs", "test_mc_agrees_with_boxplus_at_larger_degrees",
    "test_mc_refuses_what_leaves_the_float_range")]
# the partition walk, its Moebius values, types and type counts, and the
# CLI's listing writer: the writer's bytes against json.dumps and criterion 09
# first, then the walk's counts, order and values
PARTITION_TESTS = ["tests/test_cli.py::test_partitions_listing_is_json_dumps_of_its_rows",
                   "tests/test_acceptance.py::test_criterion_09_partition_counts",
                   "tests/test_partitions.py"]
# the exact PSD elimination behind the conditional-PSD test: its direct
# examples first, then the CPD answers on known and constructed input, the
# verdicts that read them and acceptance criterion 10
CPD_TESTS = [DIV + t for t in (
    "test_psd_core", "test_psd_matches_principal_minors_on_sparse_and_singular_windows",
    "test_cpd_examples", "test_cpd_known_by_construction",
    "test_id_verdict_matches_flag_and_cpd_is_necessary",
    "test_rescaled_cpd_implies_standard_cpd")] + [
    "tests/test_acceptance.py::test_criterion_10_infinite_divisibility"]
# the polynomial values' derived degree d, checked constructors and JSON
# readers (MomentSequence's, matched by the same plain names, too): the value
# tests, then each type's validation and JSON tests, then the CLI's
# refusals of stated sizes and malformed records, pinned by message
VALUE_TESTS = ["tests/test_values.py",
               "tests/test_polynomial.py::test_monic_validation",
               "tests/test_polynomial.py::test_moment_sequence_json",
               "tests/test_transforms.py::test_cumulant_vector_json",
               "tests/test_cli.py::test_stated_sizes_are_checked_against_the_entries",
               "tests/test_cli.py::test_degrees_must_be_integers",
               "tests/test_cli.py::test_float_and_bool_array_entries_keep_their_messages",
               "tests/test_cli.py::test_long_rationals_are_shortened_in_refusals",
               "tests/test_cli.py::test_malformed_input_exits_3"]
# the one integer-size gate, util._check_int: the sweep over every size
# argument first, then the refusals that pin its message, by CLI and in process
SIZE_TESTS = ["tests/test_properties.py::test_size_arguments_must_be_ints",
              "tests/test_cli.py::test_documented_errors_keep_their_codes",
              "tests/test_cli.py::test_stated_sizes_are_checked_against_the_entries",
              "tests/test_values.py::test_polynomial_values_store_only_what_fixes_d",
              "tests/test_kernels.py::test_domain_errors_are_unchanged",
              "tests/test_freeprob.py::test_inversion_refuses_what_the_reference_refuses"]
# the moment reader, transforms._first_moments: the table of the six readers
# over a MomentSequence and an array first, then the pinned refusals, then
# the series tests, whose values read the moments it returns
MOMENTS_TESTS = ["tests/test_freeprob.py::test_inversion_refuses_what_the_reference_refuses",
                 "tests/test_kernels.py::test_domain_errors_are_unchanged",
                 "tests/test_properties.py::test_size_arguments_must_be_ints",
                 *SERIES_TESTS]
# the order rule, transforms._order_parameter: the pinned wordings, by
# library and by CLI, then the series tests, which read the d it returns,
# then the hypothesis sweep of integer d below n, which shrinks for about
# 30 s on a failure
ORDER_TESTS = ["tests/test_kernels.py::test_domain_errors_are_unchanged",
               "tests/test_freeprob.py::test_convergence_rejects_small_d",
               "tests/test_cli.py::test_documented_errors_keep_their_codes",
               *SERIES_TESTS,
               "tests/test_properties.py::test_integer_d_below_the_order_is_a_domain_error"]
# the degree-pair check, polynomial._same_degree: its refusals by boxplus,
# the CLI, mc_boxplus and the pass rule, then boxplus's values at the d it
# returns
DEGREE_PAIR_TESTS = ["tests/test_convolution.py::test_degree_mismatch",
                     "tests/test_cli.py::test_degree_mismatch_is_one_error_type",
                     "tests/test_matrix_oracle.py::test_mc_rejects_bad_requests",
                     "tests/test_matrix_oracle.py::test_pass_rule_refuses_another_degree",
                     *BOXPLUS_TESTS]
# a mutant whose run takes this many times as long as the unmutated run, at
# least MIN_TIMEOUT_S, loops or runs away, and counts as killed
SLOWDOWN = 5
MIN_TIMEOUT_S = 60
# a mutant may also allocate without bound, as a walk whose element count
# never reaches n does: each run gets this much address space, and past it
# dies of MemoryError (killed) long before the timeout
MAX_ADDRESS_SPACE = 2**31

# (module under src/finfree, function, tests): the series pair, the weights,
# the two callers that build Fractions from their integers, the scaling that
# reads plain coefficients off the series, the free side's Lagrange step
# with its two directions, boxplus, the threshold search with its power
# family, the exact PSD elimination, the Sturm chain with the counts read
# off it (by the oracle's Jacobi matrix too) and the count that falls back
# to it, the squarefree certificate, the isolation with its shift, root
# bound and sign changes, the oracle's Jacobi matrix with the MonicPoly
# methods (matched by their plain names) that build and centre its input,
# the oracle's characteristic polynomials with the reflector they share with
# its Haar conjugates, and the partition walk with the Moebius values, type
# counts, type walk and listing writer that read it, and the partition
# values' checked constructors and derived ground-set size n (methods of
# both classes, matched by their plain names), and the degree d that
# MonicPoly, CumulantVector and MCEstimate derive from their entries, with
# the first two's constructors and JSON readers, the integer-size gate, and
# the moment reader, the order rule and the degree-pair check
KERNELS = [
    ("polynomial.py", "_log_derivative", SERIES_TESTS),
    ("polynomial.py", "_exp_series", SERIES_TESTS),
    ("transforms.py", "_series_weights", SERIES_TESTS),
    ("transforms.py", "coefficients_from_cumulants", SERIES_TESTS),
    ("transforms.py", "_cumulants_from_moments", SERIES_TESTS),
    ("transforms.py", "_primitive_plain", PLAIN_TESTS),
    ("freeprob.py", "_lagrange", SERIES_TESTS),
    ("freeprob.py", "free_moments_from_free_cumulants", SERIES_TESTS),
    ("freeprob.py", "free_cumulants_from_moments", SERIES_TESTS),
    ("convolution.py", "boxplus", BOXPLUS_TESTS),
    ("divisibility.py", "real_rooted_threshold", THRESHOLD_TESTS),
    ("divisibility.py", "_exact_psd", CPD_TESTS),
    ("convolution.py", "_power_family", POWER_TESTS),
    ("polynomial.py", "_remainder", STURM_TESTS),
    ("polynomial.py", "_sturm_chain", STURM_TESTS),
    ("polynomial.py", "_chain_counts", STURM_TESTS + ORACLE_TESTS),
    ("polynomial.py", "_sturm_counts", STURM_TESTS),
    ("polynomial.py", "_squarefree_mod", CERT_TESTS),
    ("polynomial.py", "_isolated_count", ISOLATION_TESTS),
    ("polynomial.py", "_taylor_shift", SHIFT_TESTS),
    ("polynomial.py", "_root_bound", ISOLATION_TESTS),
    ("polynomial.py", "_variations", ISOLATION_TESTS),
    ("matrix_oracle.py", "_jacobi", ORACLE_TESTS),
    ("polynomial.py", "translate", ORACLE_TESTS),
    ("polynomial.py", "dilate", ORACLE_TESTS),
    ("polynomial.py", "from_roots", ORACLE_TESTS),
    ("matrix_oracle.py", "_char_poly_batch", CHAR_POLY_TESTS),
    ("matrix_oracle.py", "_reflect", CHAR_POLY_TESTS),
    ("partitions.py", "_partitions", PARTITION_TESTS),
    ("partitions.py", "mobius_from_zero", PARTITION_TESTS),
    ("partitions.py", "count_by_type", PARTITION_TESTS),
    ("partitions.py", "iter_types", PARTITION_TESTS),
    ("partitions.py", "__init__", PARTITION_TESTS),
    ("partitions.py", "n", PARTITION_TESTS),
    ("cli.py", "_listing_text", PARTITION_TESTS),
    ("polynomial.py", "d", VALUE_TESTS),
    ("transforms.py", "d", VALUE_TESTS),
    ("matrix_oracle.py", "d", VALUE_TESTS),
    ("polynomial.py", "__init__", VALUE_TESTS),
    ("transforms.py", "__init__", VALUE_TESTS),
    ("polynomial.py", "from_json", VALUE_TESTS),
    ("transforms.py", "from_json", VALUE_TESTS),
    ("util.py", "_check_int", SIZE_TESTS),
    ("transforms.py", "_first_moments", MOMENTS_TESTS),
    ("transforms.py", "_order_parameter", ORDER_TESTS),
    ("polynomial.py", "_same_degree", DEGREE_PAIR_TESTS),
]

_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_EDGE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _shifted(node, delta):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return ast.Constant(node.value + delta)
    return ast.BinOp(node, ast.Add() if delta > 0 else ast.Sub(), ast.Constant(1))


def _edits(node):
    """(label, replacement) for each mutation of node itself."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
        yield "swap +/-", ast.BinOp(node.left, _SWAP[type(node.op)](), node.right)
        yield "drop right term", node.left
        if isinstance(node.op, ast.Add):
            yield "drop left term", node.right
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        yield "drop right factor", node.left
        yield "drop left factor", node.right
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "drop minus", node.operand
    elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        for bound in ("lower", "upper"):
            if getattr(node.slice, bound) is not None:
                for delta in (1, -1):
                    cut = copy.copy(node.slice)
                    setattr(cut, bound, _shifted(getattr(cut, bound), delta))
                    yield ("slice %s %+d" % (bound, delta),
                           ast.Subscript(node.value, cut, node.ctx))
    elif (isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Tuple)
          and not (isinstance(node.slice, ast.Constant) and type(node.slice.value) is not int)):
        for delta in (1, -1):
            index = _shifted(node.slice, delta)
            yield "index %+d" % delta, ast.Subscript(node.value, index, node.ctx)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id.startswith("_") and len(node.args) == 1 and not node.keywords):
        yield "drop call", node.args[0]
    elif isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _EDGE:
        yield "< vs <=", ast.Compare(node.left, [_EDGE[type(node.ops[0])]()], node.comparators)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in ("len", "sum")):
        for delta in (1, -1):
            yield "%s %+d" % (node.func.id, delta), _shifted(node, delta)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id == "range"):
        for i in range(min(len(node.args), 2)):
            for delta in (1, -1):
                args = list(node.args)
                args[i] = _shifted(args[i], delta)
                yield "range bound %+d" % delta, ast.Call(node.func, args, node.keywords)
    elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
        negated = copy.copy(node)
        negated.test = ast.UnaryOp(ast.Not(), node.test)
        yield "negate condition", negated


class _Mutate(ast.NodeTransformer):
    """Apply the target-th edit inside the function named func; with
    target None, only count the edits and record where they are."""

    def __init__(self, func, target=None):
        self.func, self.target, self.seen, self.inside = func, target, [], False
        self.label = None

    def visit_FunctionDef(self, node):
        if node.name != self.func and not self.inside:
            return node
        outer, self.inside = self.inside, True  # nested functions are mutated too
        node = self.generic_visit(node)
        self.inside = outer
        return node

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if not self.inside:
            return node
        for label, replacement in _edits(node):
            index = len(self.seen)
            where = " ".join(ast.unparse(node).split())[:70]
            self.seen.append("line %d: %s in %s" % (node.lineno, label, where))
            if index == self.target:
                self.label = self.seen[-1]
                node = ast.copy_location(replacement, node)
        return node


def mutants(module, func):
    """Labels of every mutant of func in src/finfree/module."""
    finder = _Mutate(func)
    finder.visit(ast.parse((ROOT / "src" / "finfree" / module).read_text()))
    return finder.seen


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MAX_ADDRESS_SPACE, MAX_ADDRESS_SPACE))


def _pytest(src, tests, timeout):
    """Run the test selection with src on the path and the address space
    capped: (pytest's exit code, or None when it timed out, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, timeout=timeout,
            preexec_fn=_cap_address_space).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def run_mutant(module, func, index, tests, timeout):
    """Run the test selection against a copy of src/ with the index-th
    mutant of func applied: (pytest's exit code, or None when it timed out,
    label, seconds).  Any code but 0 kills the mutant."""
    tree = ast.parse((ROOT / "src" / "finfree" / module).read_text())
    mutate = _Mutate(func, index)
    tree = ast.fix_missing_locations(mutate.visit(tree))
    if mutate.label is None:
        raise ValueError("%s has no mutant %d" % (func, index))
    with tempfile.TemporaryDirectory(prefix="finfree-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "finfree" / module).write_text(ast.unparse(tree) + "\n")
        code, seconds = _pytest(src, tests, timeout)
    return code, mutate.label, seconds


def main(argv):
    chosen = [k for k in KERNELS if not argv or k[1] in argv]
    if not chosen:
        raise SystemExit("no kernel named %s; choose from %s"
                         % (" ".join(argv), " ".join(f for _, f, _ in KERNELS)))
    total_killed = total = 0
    start = time.perf_counter()
    timeouts = {}
    for module, func, tests in chosen:
        if tuple(tests) not in timeouts:
            code, seconds = _pytest(ROOT / "src", tests, None)
            if code != 0:
                raise SystemExit("the unmutated tree fails " + " ".join(tests))
            timeouts[tuple(tests)] = max(MIN_TIMEOUT_S, SLOWDOWN * seconds)
        survivors = []
        labels = mutants(module, func)
        for index in range(len(labels)):
            code, label, seconds = run_mutant(module, func, index, tests, timeouts[tuple(tests)])
            outcome = "survived" if code == 0 else "timeout" if code is None else "killed"
            print("  %7.1f s  %-8s  %s" % (seconds, outcome, label), flush=True)
            if code == 0:
                survivors.append(label)
        killed = len(labels) - len(survivors)
        total_killed, total = total_killed + killed, total + len(labels)
        print("%-28s killed %3d of %3d" % (func, killed, len(labels)), flush=True)
        for label in survivors:
            print("    survived: " + label, flush=True)
    print("total: killed %d of %d in %.0f s"
          % (total_killed, total, time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
