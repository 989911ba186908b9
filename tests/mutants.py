"""Mutation check for the exact series kernels and the free side's
Lagrange step.

Each mutant is one small edit to one kernel, made with ast in a temporary
copy of src/, never in the tree itself.  The operators: swap + and -, shift
a range bound by one, turn < into <= and back (> and >= likewise), negate a
condition, and drop one term of a sum or difference.  Each mutant runs

    pytest -x tests/test_kernels.py tests/test_transforms.py tests/test_freeprob.py

against the copy; a failing run kills it.  So that the two callers, whose
lines hold no sum, get mutants too, three more operators act there and in
the kernels: drop one factor of a product, shift a constant index by one,
and drop a minus sign or a one-argument helper call such as _alternate(x).
The script prints killed against survived for each kernel and lists every
survivor.  Pytest does not collect this file; run it as

    python tests/mutants.py [KERNEL ...]
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["tests/test_kernels.py", "tests/test_transforms.py", "tests/test_freeprob.py"]
# a mutant that loops or runs away counts as killed once this runs out
TIMEOUT_S = 600

# (module under src/finfree, function): the series pair and its helper,
# the weights, the two callers that build Fractions from their integers, and
# the free side's Lagrange step with its two directions
KERNELS = [
    ("polynomial.py", "_log_derivative"),
    ("polynomial.py", "_exp_series"),
    ("polynomial.py", "_append_over"),
    ("transforms.py", "_series_weights"),
    ("transforms.py", "coefficients_from_cumulants"),
    ("transforms.py", "_cumulants_from_moments"),
    ("freeprob.py", "_lagrange"),
    ("freeprob.py", "free_moments_from_free_cumulants"),
    ("freeprob.py", "free_cumulants_from_moments"),
]

_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_EDGE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _shifted(node, delta):
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
    elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
          and type(node.slice.value) is int):
        for delta in (1, -1):
            index = ast.Constant(node.slice.value + delta)
            yield "index %+d" % delta, ast.Subscript(node.value, index, node.ctx)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id.startswith("_") and len(node.args) == 1 and not node.keywords):
        yield "drop call", node.args[0]
    elif isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _EDGE:
        yield "< vs <=", ast.Compare(node.left, [_EDGE[type(node.ops[0])]()], node.comparators)
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
        if node.name != self.func:
            return node
        self.inside = True
        node = self.generic_visit(node)
        self.inside = False
        return node

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if not self.inside:
            return node
        for label, replacement in _edits(node):
            index = len(self.seen)
            where = ast.unparse(node)[:70]
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


def run_mutant(module, func, index, tests=TESTS):
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
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
    return code, mutate.label, time.perf_counter() - start


def main(argv):
    chosen = [k for k in KERNELS if not argv or k[1] in argv]
    if not chosen:
        raise SystemExit("no kernel named %s; choose from %s"
                         % (" ".join(argv), " ".join(f for _, f in KERNELS)))
    total_killed = total = 0
    start = time.perf_counter()
    for module, func in chosen:
        survivors = []
        labels = mutants(module, func)
        for index in range(len(labels)):
            code, label, _ = run_mutant(module, func, index)
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
