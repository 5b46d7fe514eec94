import pytest

from ordfactor.builders import gen_div, gen_hilbert
from ordfactor.instances import (
    Caps,
    InstanceSpec,
    ParseError,
    decompose_report,
    enumerate_report,
    generate,
    parse_instance,
    run_checks,
    serialize_instance,
    to_runtime,
)
from ordfactor.divisor import IdealSystem
from ordfactor.monoid import MonoidInstance


DIV12_FILE = """# six divisors of twelve
[instance]
name = div12
kind = ordered-monoid

[elements]
1
2
3
4
6
12

[order]
rule = divisibility

[mult]
rule = multiplication
"""

POSET_FILE = """[instance]
name = tiny
kind = poset-with-B

[elements]
u
p
q
t

[order]
u <= p
u <= q
p <= t
q <= t

[B]
p = p^1
q = q^1
"""

SYSTEM_FILE = """[instance]
name = sys4
kind = ideal-system
zero = z

[elements]
z
top
mid

[order]
z <= mid
mid <= top

[principal]
top
mid
"""


def test_parse_div12_file():
    spec = parse_instance(DIV12_FILE)
    inst = to_runtime(spec)
    assert isinstance(inst, MonoidInstance)
    assert inst.size == 6
    assert {inst.lab(pp.element) for pp in inst.prime_powers} == {"2", "3", "4"}
    # matches the generator semantics
    gen = gen_div(12)
    assert inst.poset == gen.poset or sorted(inst.poset.labels) == sorted(gen.poset.labels)


def test_parse_poset_with_b_file():
    inst = to_runtime(parse_instance(POSET_FILE))
    assert inst.kind == "poset-with-B"
    assert len(inst.prime_powers) == 2


def test_parse_ideal_system_file():
    sys_ = to_runtime(parse_instance(SYSTEM_FILE))
    assert isinstance(sys_, IdealSystem)
    assert sys_.lab(sys_.zero) == "z"
    assert sys_.monoid.poset.size == 2


def test_round_trip_serialize_parse():
    for text in (DIV12_FILE, POSET_FILE, SYSTEM_FILE):
        spec = parse_instance(text)
        assert parse_instance(serialize_instance(spec)) == spec
        # serialization is a fixed point of the round trip
        assert serialize_instance(parse_instance(serialize_instance(spec))) == serialize_instance(spec)


def test_antisymmetry_error_cites_line():
    bad = POSET_FILE.replace("q <= t", "q <= t\nt <= p")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "antisymmetric" in str(err.value)
    assert err.value.line == bad.splitlines().index("t <= p") + 1


def test_unknown_label_cites_line():
    bad = POSET_FILE.replace("q = q^1", "q = r^1")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "unknown label 'r'" in str(err.value)


def test_non_atom_base_rejected():
    bad = POSET_FILE.replace("q = q^1", "t = t^1")
    with pytest.raises(ParseError, match="atom"):
        parse_instance(bad)


def test_syntax_errors():
    with pytest.raises(ParseError, match="unknown section"):
        parse_instance("[nonsense]\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_instance("[instance]\nnonsense\n")
    with pytest.raises(ParseError, match="exponent"):
        parse_instance(POSET_FILE.replace("p = p^1", "p = p^x"))


def test_generate_tokens():
    assert generate("div:60").size == 12
    assert generate("free:2,1").size == 4
    assert generate("hilbert:45").size == 12
    assert generate("krullZ2").poset.size == 17
    assert generate("random:6,3").size <= 6
    with pytest.raises(Exception):
        generate("nope:1")


def test_run_checks_div60_all_true():
    report = run_checks(gen_div(60), "all")
    assert report.computed_summary() == "pass"
    by_name = {c.condition: c for c in report.checks}
    for cond in ("D1", "D2", "D3", "D4", "D5", "D6", "B1", "B3", "B4", "F1", "F2", "F3", "DCC"):
        assert by_name[cond].verdict == "true", cond
    assert by_name["harness_agreement"].verdict == "true"
    assert by_name["pid"].verdict == "true"
    assert by_name["toporep"].verdict == "true"
    assert by_name["orderrep"].verdict == "true"


def test_run_checks_hilbert_d1_false():
    report = run_checks(gen_hilbert(441), ("D1",), Caps(cap_m=200))
    assert report.checks[0].verdict == "false"
    assert report.checks[0].witness == "9"
    assert report.exit_code() == 1


def test_run_checks_krull_classify():
    report = run_checks(generate("krullZ2"), ("classify",), Caps(cap_m=500))
    by_name = {c.condition: c for c in report.checks}
    assert by_name["krull"].verdict == "true"
    assert by_name["ufd"].verdict == "false"
    assert by_name["pid"].verdict == "false"
    assert report.exit_code() == 1


def test_toporep_decides_open_dual_above_16_elements():
    report = run_checks(gen_div(720), ("toporep",))  # 30 elements, 30 power ideals
    assert [(c.condition, c.verdict) for c in report.checks] == [
        ("closed_base", "true"),
        ("open_dual", "true"),
        ("toporep", "true"),
    ]
    assert report.exit_code() == 0


def test_toporep_not_evaluated_on_a_partial_family():
    report = run_checks(gen_div(60), ("toporep",), Caps(cap_m=3))
    assert [(c.condition, c.verdict) for c in report.checks] == [("toporep", "not_evaluated")]


def test_decompose_report():
    report = decompose_report(gen_div(60), "60")
    entry = report.checks[0]
    assert entry.verdict == "true"
    assert entry.witness == ["3", "4", "5"]
    missing = decompose_report(gen_hilbert(45), "21")
    assert missing.checks[0].verdict == "true"  # 21 is its own prime power in H(45)


def test_enumerate_report_div12():
    report = enumerate_report(gen_div(12))
    entry = report.checks[0]
    assert entry.note == "complete"
    assert len(entry.witness) == 6


def test_report_round_trip_json():
    report = run_checks(gen_div(12), ("D1", "B2"))
    from ordfactor.reporting import Report
    import json

    parsed = Report.from_dict(json.loads(report.to_json()))
    assert parsed.to_json() == report.to_json()


def test_fixture_file_parses(tmp_path):
    import pathlib

    text = pathlib.Path(__file__).with_name("fixtures").joinpath("div12.om").read_text()
    inst = to_runtime(parse_instance(text))
    assert inst.size == 6
    assert run_checks(inst, ("D1", "D5")).computed_summary() == "pass"


def test_report_takes_harness_conditions_from_one_run(monkeypatch):
    # run_checks and the harness evaluate D1-D5 and F1 through these names
    from collections import Counter

    from ordfactor import ideals, instances

    calls = Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key(args)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (ideals, instances):
        count(module, "check_condition", lambda args: args[1])
        count(module, "check_D5", lambda args: "D5")
        count(module, "check_F1", lambda args: "F1")
    report = run_checks(generate("div:12"), "all")
    names = ("D1", "D2", "D3", "D4", "D5", "F1")
    assert [calls[c] for c in names] == [1] * 6
    assert [c.condition for c in report.checks[:5]] == list(names[:5])
