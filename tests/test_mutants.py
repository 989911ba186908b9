"""tests/mutants.py, the mutation check of the series kernels, runs outside
tier-1; one of its mutants runs here so that the script keeps working.  This
file is not in the script's own test selection, so no mutant runs it."""

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
