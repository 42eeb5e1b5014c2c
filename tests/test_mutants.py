from run_mutants import load_mutants, stale_mutants


def test_every_mutant_edits_text_that_occurs_once():
    # run_mutants.py applies each mutant and runs its tests; this checks
    # only that each one still names an edit, which takes no pytest run
    mutants = load_mutants()
    assert mutants
    assert stale_mutants(mutants) == []
