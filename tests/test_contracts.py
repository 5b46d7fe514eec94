"""Report contracts over a seeded sweep of random instances.

Every report finishes without an exception, every false entry carries a
witness, and every condition appears at most once.
"""

from ordfactor.instances import generate, run_checks


def test_random_reports_finish_with_witnesses_and_no_duplicates():
    for size in range(1, 13):
        for seed in range(1, 26):
            report = run_checks(generate(f"random:{size},{seed}"), "all")
            names = [c.condition for c in report.checks]
            assert len(names) == len(set(names)), (size, seed)
            for c in report.checks:
                assert not c.is_false or c.witness is not None, (size, seed, c)
