from run_mutants import ROOT, load_mutants, stale_mutants
from run_mutants import pytest as run_pytest


def test_every_mutant_edits_text_that_occurs_once():
    # run_mutants.py applies each mutant and runs its tests; this checks
    # only that each one still names an edit, which takes no pytest run
    mutants = load_mutants()
    assert mutants
    assert stale_mutants(mutants) == []


def test_every_killer_names_a_test_that_exists():
    # pytest collects each named test, a def and, for a parametrized test,
    # a case id, or exits 4 naming the one it did not find: a renamed or
    # deleted killer fails here, not only when run_mutants.py runs
    killers = sorted({test for m in load_mutants() for test in m["tests"]})
    code, output = run_pytest(ROOT, ["--collect-only", *killers])
    assert code == 0, output
