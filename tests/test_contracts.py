"""Report contracts over a seeded sweep of random instances and of
perturbed ordered-monoid tables.

Every report finishes without an exception, every false entry carries a
witness, and every condition appears at most once.
"""

from ordfactor.cli import main
from ordfactor.instances import InstanceSpec, generate, run_checks, serialize_instance
from ordfactor.poset import _mask_bits


def test_random_reports_finish_with_witnesses_and_no_duplicates():
    for size in range(1, 13):
        for seed in range(1, 26):
            report = run_checks(generate(f"random:{size},{seed}"), "all")
            names = [c.condition for c in report.checks]
            assert len(names) == len(set(names)), (size, seed)
            for c in report.checks:
                assert not c.is_false or c.witness is not None, (size, seed, c)


def perturbed_tables(token):
    """The ordered-monoid table of ``token`` with each non-unit product in
    turn dropped, or redirected to the next element."""
    inst = generate(token)
    p = inst.poset
    labels = p.labels
    pairs = tuple((labels[a], labels[b]) for a in range(p.size) for b in _mask_bits(p.up[a]) if a != b)
    entries = [(labels[a], labels[b], labels[c]) for (a, b), c in inst.mult.items() if inst.unit not in (a, b)]
    for k, (a, b, c) in enumerate(entries):
        redirected = (a, b, labels[(p.index(c) + 1) % p.size])
        for mult in (entries[:k] + entries[k + 1:], entries[:k] + [redirected] + entries[k + 1:]):
            yield InstanceSpec(
                name=f"{token}-{k}", kind="ordered-monoid", elements=labels, order_pairs=pairs, mult_entries=tuple(mult)
            )


def test_perturbed_ordered_monoid_tables_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "table.om"
    codes = set()
    for token in ("div:12", "div:36", "div:60", "free:2,2"):
        for spec in perturbed_tables(token):
            path.write_text(serialize_instance(spec), encoding="utf-8")
            for command in ("orderrep", "report"):
                code = main([command, "--instance", str(path)])
                assert code in (0, 1, 2), (spec.name, command)
                codes.add(code)
                assert "Traceback" not in capsys.readouterr().err
    assert codes == {0, 1, 2}
