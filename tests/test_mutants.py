"""tests/mutants.py, the mutation check of the exact kernels, runs outside
tier-1; one of its mutants runs here so that the script keeps working, and
its node-id selections are checked against the tests they name.  This file
is not in the script's own test selection, so no mutant runs it."""

import ast

import mutants


def test_a_fixed_mutant_of_the_exp_series_dies():
    # starting the exp recurrence at i = 2 must fail a test (exit code 1),
    # not merely break the collection
    labels = mutants.mutants("polynomial.py", "_exp_series")
    index = next(i for i, label in enumerate(labels)
                 if label.endswith("range bound +1 in range(1, n + 1)"))
    code, label, _ = mutants.run_mutant("polynomial.py", "_exp_series", index,
                                        mutants.SERIES_TESTS, timeout=600)
    assert code == 1, label


def test_the_threshold_selections_name_every_threshold_test():
    # they list node ids to fix the order in which the tests run, so a new
    # threshold or power-family test has to join them by name
    tree = ast.parse((mutants.ROOT / "tests" / "test_divisibility.py").read_text())
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    for selection, words in ((mutants.THRESHOLD_TESTS, ("threshold",)),
                             (mutants.POWER_TESTS, ("threshold", "power_family"))):
        listed = [node_id.split("::")[1] for node_id in selection]
        assert len(set(listed)) == len(listed)
        assert set(listed) == {n for n in names if any(w in n for w in words)}


def test_every_named_test_of_a_selection_exists():
    # a node id whose test was renamed or removed would stop the script at
    # its unmutated run; catch it here instead
    missing = []
    for _, _, selection in mutants.KERNELS:
        for node_id in selection:
            if "::" not in node_id:
                continue
            path, name = node_id.split("::")
            tree = ast.parse((mutants.ROOT / path).read_text())
            if name not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}:
                missing.append(node_id)
    assert missing == []
