"""Rules about the source of src/finfree itself."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import finfree

SRC = Path(finfree.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_no_invariant_depends_on_assert():
    # python -O strips assert statements, so every check must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.relative_to(SRC), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_public_callable_takes_n_max():
    # the partition cap is the constant DEFAULT_N_MAX, not a parameter
    modules = [finfree] + [
        importlib.import_module("finfree." + path.stem)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    found = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            if "n_max" in params:
                found.append("%s.%s" % (mod.__name__, name))
    assert found == []


def test_only_the_monte_carlo_oracle_imports_numpy():
    # floating point is confined to matrix_oracle; the rest is exact
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                found.append(path.name)
    assert sorted(set(found)) == ["matrix_oracle.py"]


def test_only_the_monte_carlo_oracle_uses_float_or_complex():
    # the exact core never converts to floating point, not even for a
    # sentinel such as float("inf"); the names may only appear as the types
    # of an isinstance check, which refuses a float input
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "matrix_oracle.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        checked = {
            id(node)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
            for node in ast.walk(call.args[1])
        }
        found += [
            "%s:%d" % (path.relative_to(SRC), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("float", "complex")
            and id(node) not in checked
        ]
    assert found == []


def test_the_monte_carlo_oracle_references_no_np_linalg():
    # the oracle works on whole chunks with array operations; np.linalg would
    # bring back one LAPACK call per sampled matrix
    assert "linalg" not in (SRC / "matrix_oracle.py").read_text()


def _defined(tree) -> set:
    """The names a module defines at its top level, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_the_root_exports_nothing_of_the_oracle_or_the_lattice_reference():
    # finfree exports the exact core; the float oracle and the reference are
    # reached as finfree.matrix_oracle.X and finfree.lattice.X; the lattice
    # reference reuses some core names for its own functions, so compare values
    found = []
    for module in ("matrix_oracle", "lattice"):
        mod = importlib.import_module("finfree." + module)
        tree = ast.parse((SRC / (module + ".py")).read_text())
        found += ["%s.%s" % (module, name) for name in sorted(_defined(tree))
                  if not name.startswith("_")
                  and getattr(finfree, name, None) is getattr(mod, name)]
    assert found == []


def test_no_module_defines_a_module_getattr():
    # every name a module offers is bound in it, not resolved by a hook
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "__getattr__" in _defined(tree):
            found.append(str(path.relative_to(SRC)))
    assert found == []


def _imports(node, func=None):
    """(import statement, name of the function holding it or None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, func
        is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(child, child.name if is_func else func)


def _import_parts(node) -> set:
    """Every dotted part of the modules an import statement names, and the
    names it takes from them."""
    if isinstance(node, ast.Import):
        return {p for alias in node.names for p in alias.name.split(".")}
    return set((node.module or "").split(".")) | {a.name for a in node.names}


LOADED = """
import sys
start_up = ("dataclasses", "inspect")
heavy = ("numpy", "finfree.lattice", "finfree.matrix_oracle")
import finfree
print(sorted(m for m in start_up + heavy if m in sys.modules))
import finfree.cli
print(sorted(m for m in start_up + heavy if m in sys.modules))
import finfree.matrix_oracle, finfree.lattice
print(sorted(m for m in heavy if m in sys.modules))
"""


def test_the_cli_imports_neither_numpy_nor_the_lattice_reference():
    # nor does a bare import finfree; all three load when imported by module.
    # Neither import loads dataclasses or inspect, whose import is a third
    # of the package's own start-up in each fresh CLI process
    proc = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "[]", "[]", "['finfree.lattice', 'finfree.matrix_oracle', 'numpy']"]


def test_no_module_imports_dataclasses_or_defines_post_init():
    # value types derive from util.Value and check in their own __init__
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, "import") for node, _ in _imports(tree)
                  if "dataclasses" in _import_parts(node)]
        found += [(path.name, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    assert found == []


def test_only_verify_mc_imports_the_oracle_or_the_lattice_reference():
    # finfree/__init__ imports neither, and the CLI imports the oracle inside
    # the one command that needs numpy
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, func in _imports(tree):
            if _import_parts(node) & {"matrix_oracle", "lattice"}:
                found.append((path.name, func))
    assert found == [("cli.py", "_cmd_verify_mc")]


def _names_read(tree) -> set:
    """Every name a module reads, as a Name load or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | \
        {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_production_modules_hold_no_helper_only_the_lattice_reference_reads():
    # a name lattice.py takes from another finfree module must be read by some
    # production module too; one that only the reference reads belongs in it
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    imported = {alias.name for node in ast.walk(trees["lattice.py"])
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "finfree")
                for alias in node.names}
    read = set().union(*(_names_read(tree) for name, tree in trees.items()
                         if name not in ("lattice.py", "__init__.py")))
    assert imported and sorted(imported - read) == []


# methods that change a list, dict or set in place
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add",
            "pop", "popitem", "clear", "remove", "discard"}


def _written_container(node):
    """What a subscript store or an in-place method call writes into."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        return node.func.value
    return None


def test_no_function_writes_module_state():
    # memo tables go through functools, whose caches the partition cap bounds
    # and cache_info() reports; a hand-rolled module-level dict does neither
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_names = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                module_names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                module_names.add(node.target.id)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    "%s:%d" % (path.relative_to(SRC), node.lineno)
                    for node in ast.walk(func)
                    if getattr(_written_container(node), "id", None) in module_names
                ]
    assert found == []


def test_every_json_reader_goes_through_read_record():
    # which keys a record has is decided in one place, util.read_record
    readers, found = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "from_json":
                readers += 1
                calls = {c.func.id for c in ast.walk(node)
                         if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                if "read_record" not in calls:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert readers > 0 and found == []


def test_every_error_class_is_raised():
    # an error type nothing raises is dead public API; retire it with its cause
    tree = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert defined and sorted(defined - raised) == []


def _reads(node, func=None):
    """(name read, name of the function holding the read or None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id, func
        elif isinstance(child, ast.Attribute):
            yield child.attr, func
        is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _reads(child, child.name if is_func else func)


def _readers(wanted) -> list:
    """(module, function) for every read of the name wanted in src/."""
    return sorted({(path.name, func) for path in sorted(SRC.rglob("*.py"))
                   for name, func in _reads(ast.parse(path.read_text()))
                   if name == wanted})


def test_only_sturm_counts_and_the_oracle_read_the_sturm_chain():
    # one sign-counting path: real-rootedness and the threshold probes count
    # roots through polynomial._sturm_counts, and the oracle reads its Jacobi
    # matrices off the chain in matrix_oracle._jacobi
    assert _readers("_sturm_chain") == [("matrix_oracle.py", "_jacobi"),
                                        ("polynomial.py", "_sturm_counts")]


def _modules_using(wanted) -> set:
    """The modules of src/ that import or read the name wanted."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set().union(*(_import_parts(node) for node, _ in _imports(tree)))
        if wanted in imported | {name for name, _ in _reads(tree)}:
            found.add(path.name)
    return found


def test_only_util_reads_is_int():
    # an integer size is refused in one place, util._check_int, so no other
    # module imports or reads the bare test behind it
    assert sorted(_modules_using("_is_int")) == ["util.py"]


def test_translate_and_the_isolation_share_one_taylor_shift():
    # one exact shift: translate scales its coefficients onto _taylor_shift
    # rather than summing binomials of its own
    assert _readers("_taylor_shift") == [("polynomial.py", "_isolated_count"),
                                         ("polynomial.py", "translate")]


def test_the_chain_and_the_isolation_share_one_sign_change_count():
    # Sturm's V(-oo) - V(+oo) and Descartes' rule both count through
    # _variations
    assert _readers("_variations") == [("polynomial.py", "_isolated_count"),
                                       ("polynomial.py", "_sturm_counts")]


def test_the_haar_conjugation_and_the_tridiagonalization_share_one_reflector():
    # one Householder rank-2 update: the sampler's conjugates Q B Q^T and
    # the reduction of each sample to tridiagonal form both apply _reflect
    assert _readers("_reflect") == [("matrix_oracle.py", "_char_poly_batch"),
                                    ("matrix_oracle.py", "_conjugate_batch")]


def test_only_the_monte_carlo_oracle_reads_comb():
    # the exact core takes binomials from its Taylor shift's prefix sums;
    # the float oracle's pass rule, MCEstimate.passes, bounds the rounding
    # of each a_k by math.comb(d, k) R^k
    assert sorted(_modules_using("comb")) == ["matrix_oracle.py"]


def test_only_polynomial_clears_denominators_by_an_lcm():
    # one common-denominator helper: the kernels, boxplus and the Sturm
    # input take their integers from polynomial._over_lcm; the lattice
    # reference is exempt
    assert sorted(_modules_using("lcm") - {"lattice.py"}) == ["polynomial.py"]


def test_only_transforms_turns_cumulants_into_coefficients():
    # the kappa -> a map and its (d)_n / d^n weights live in transforms.py,
    # with the lattice reference's own sums and falling factorial beside it;
    # the families pass their cumulants to transforms
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set().union(*(_import_parts(node) for node, _ in _imports(tree)))
        names = imported | {name for name, _ in _reads(tree)}
        uses_falling = bool({"falling", "_falling_and_power"} & names)
        if uses_falling and path.name not in ("transforms.py", "lattice.py"):
            found.append((path.name, "falling"))
        if path.name == "families.py" and "convolution" in imported:
            found.append((path.name, "convolution"))
    assert found == []


def _message(node) -> str:
    """The literal text a raise's first argument starts with, or ''."""
    if not isinstance(node.exc, ast.Call) or not node.exc.args:
        return ""
    arg = node.exc.args[0]
    if isinstance(arg, ast.BinOp):  # "..." % (...)
        arg = arg.left
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


# (the start of a refusal's message, its error class): each rule is stated
# once, in transforms._first_moments, transforms._order_parameter and
# polynomial._same_degree, so every reader refuses it alike
ONE_SITE_RULES = [("need %s moments", "DomainError"),
                  ("integer d = %s below the order", "DomainError"),
                  ("degree mismatch", "DimensionError")]


def test_degree_mismatch_is_a_dimension_error():
    # operands of different degrees are refused with one error type, so the
    # CLI reports convolve and verify-mc alike; too few moments and an
    # integer d below the cumulant order likewise have one raise each
    raises = [(path.name, node) for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
              if isinstance(node, ast.Raise)]
    for start, kind in ONE_SITE_RULES:
        # a copy may write its numbers with %d instead of %s
        found = [(name, node.exc.func.id) for name, node in raises
                 if _message(node).replace("%d", "%s").startswith(start)]
        assert len(found) == 1 and found[0][1] == kind, (start, found)


def test_no_module_imports_a_name_it_never_reads():
    # a copy of a rule that moves into a helper leaves its imports behind;
    # the package root is exempt, since its imports are its exports
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node, _ in _imports(tree):
            if getattr(node, "module", None) == "__future__":
                continue
            found += ["%s:%s" % (path.name, name) for name in
                      (alias.asname or alias.name.split(".")[0] for alias in node.names)
                      if name not in read]
    assert found == []


def test_divisibility_builds_one_polynomial_from_cumulants():
    # the report shifts and dilates its input's roots, and the Cramer pair
    # reflects p+ into p-; only p+ goes through the exp series
    tree = ast.parse((SRC / "divisibility.py").read_text())
    found = [func for name, func in _reads(tree) if name == "coefficients_from_cumulants"]
    assert found == ["cramer_counterexample"]


def _definitions(tree):
    """(label, name, the module with that definition left out) for each public
    function and class a module defines, and each public method and property
    of its classes."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        rest = [s for s in tree.body if s is not stmt]
        if not stmt.name.startswith("_"):
            yield stmt.name, stmt.name, rest
        for member in stmt.body if isinstance(stmt, ast.ClassDef) else ():
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                others = [s for s in stmt.body if s is not member]
                yield ("%s.%s" % (stmt.name, member.name), member.name,
                       rest + others + stmt.bases + stmt.decorator_list)


# paper constructions with no other path, kept for library users
UNREAD_BY_DESIGN = {"free_cumulants_from_moments", "clt_rescaled_sum"}


def test_every_public_name_of_a_production_module_is_read_elsewhere():
    # one public path per job: a name that no module of the package and no
    # benchmark reads, apart from its own definition and the root's
    # re-export, is a second path or a format nothing uses; the lattice
    # reference and the command line are the readers, not the read
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    bench = set().union(*(_names_read(ast.parse(path.read_text(), filename=str(path)))
                          for path in sorted(BENCH.rglob("*.py"))))
    assert bench, BENCH
    found = []
    for module, tree in trees.items():
        if module in ("lattice.py", "cli.py"):
            continue
        read = bench.union(*(_names_read(t) for m, t in trees.items() if m != module))
        for label, name, rest in _definitions(tree):
            if name not in read | UNREAD_BY_DESIGN | _names_read(ast.Module(rest, [])):
                found.append("%s:%s" % (module, label))
    assert found == []
