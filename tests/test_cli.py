import json
import subprocess
import sys
from pathlib import Path

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ordfactor.cli", *args],
        capture_output=True,
        text=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_div60_all_exit_zero():
    code, out, err = run_cli("check", "--gen", "div:60", "--conditions", "all")
    assert code == 0, err
    assert b"summary: pass" in out


def test_check_hilbert_d1_false_exit_one():
    code, out, _ = run_cli("check", "--gen", "hilbert:441", "--conditions", "D1")
    assert code == 1
    assert b'witness="9"' in out


def test_classify_krull_exit_one():
    code, out, _ = run_cli("classify", "--gen", "krullZ2")
    assert code == 1
    text = out.decode()
    assert "krull: true" in text
    assert "ufd: false" in text
    assert "pid: false" in text


def test_classify_hilbert_reports_witnesses_without_traceback():
    code, out, err = run_cli("classify", "--gen", "hilbert:441")
    assert code == 1
    assert err == b""
    assert b'dedekind: false  witness="(189)"' in out


def test_report_lists_each_condition_once():
    code, out, _ = run_cli("report", "--gen", "div:12", "--format", "json")
    assert code == 0
    names = [c["condition"] for c in json.loads(out)["checks"]]
    assert len(names) == len(set(names))
    code, out, _ = run_cli("check", "--gen", "div:12", "--conditions", "harness", "--format", "json")
    names = [c["condition"] for c in json.loads(out)["checks"]]
    assert names[:6] == ["D1", "D2", "D3", "D4", "D5", "F1"]


def test_toporep_cap_is_not_evaluated():
    code, out, _ = run_cli("check", "--gen", "free:2,15", "--conditions", "toporep")
    assert code == 0
    assert b"toporep: not_evaluated  (representation limited to 64 elements (got 256))" in out


def test_json_format_stable_schema():
    code, out, _ = run_cli("check", "--gen", "div:12", "--conditions", "D1,B2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["instance"] == "div:12"
    assert [c["condition"] for c in doc["checks"]] == ["D1", "B2"]
    assert doc["summary"] == "pass"


def test_byte_identical_reports():
    a = run_cli("report", "--gen", "div:60", "--format", "json")
    b = run_cli("report", "--gen", "div:60", "--format", "json")
    assert a == b
    c = run_cli("check", "--gen", "random:9,7", "--conditions", "harness", "--format", "text")
    d = run_cli("check", "--gen", "random:9,7", "--conditions", "harness", "--format", "text")
    assert c == d


def test_usage_errors_exit_two():
    code, _, err = run_cli("check", "--gen", "nope:1")
    assert code == 2
    assert b"ordfactor:" in err
    code, _, _ = run_cli("check", "--instance", "/nonexistent/file")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2
    code, _, err = run_cli("check", "--gen", "div:12", "--conditions", "D1", "--cap-m", "-5")
    assert code == 2
    assert b"--cap-m" in err
    code, out, _ = run_cli("enumerate-m", "--gen", "div:12", "--cap-m", "0")
    assert code == 2
    assert out == b""


@pytest.mark.parametrize(
    "command", [("report",), ("classify",), ("check", "--conditions", "classify")]
)
def test_ideal_system_with_non_ideal_labels_is_a_parse_error(command):
    path = Path(__file__).parent / "fixtures" / "badsys.om"
    code, out, err = run_cli(*command, "--instance", str(path))
    assert code == 2
    assert out == b""
    assert err.startswith(b"ordfactor: line 10: ")  # the line declaring a
    assert b"principal labels above 'a' do not form a power ideal" in err
    assert b"Traceback" not in err


@pytest.mark.parametrize(
    "command, code, line",
    [
        (("report",), 1, b"D6: true"),  # B2 fails: 1 and 2 have no join
        (("classify",), 0, b"krull: true"),
        (("check", "--conditions", "D6"), 0, b"D6: true"),
    ],
)
def test_element_named_zero_keeps_ideal_labels_distinct(command, code, line):
    # the principal ideal of 0 is labelled (0), which the zero ideal's label is not
    path = Path(__file__).parent / "fixtures" / "zero_element.om"
    got, out, err = run_cli(*command, "--instance", str(path))
    assert (got, err) == (code, b"")
    assert line in out


def test_instance_file_round_trip(tmp_path):
    from ordfactor.builders import gen_div
    from ordfactor.instances import InstanceSpec, serialize_instance

    spec = InstanceSpec(
        name="div12file",
        kind="ordered-monoid",
        elements=("1", "2", "3", "4", "6", "12"),
        order_rule="divisibility",
        mult_rule="multiplication",
    )
    path = tmp_path / "div12.om"
    path.write_text(serialize_instance(spec), encoding="utf-8")
    code, out, err = run_cli("check", "--instance", str(path), "--conditions", "D1")
    assert code == 0, err
    assert b"D1: true" in out


def test_decompose_cli():
    code, out, _ = run_cli("decompose", "--gen", "div:60", "--element", "60")
    assert code == 0
    assert b"60 = " in out


def test_enumerate_m_cli():
    code, out, _ = run_cli("enumerate-m", "--gen", "div:12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"][0]["witness"]) == 6


def test_enumerate_m_capped_note_counts_the_listed_members():
    code, out, _ = run_cli("enumerate-m", "--gen", "div:12", "--cap-m", "1", "--format", "json")
    assert code == 0
    entry = json.loads(out)["checks"][0]
    assert len(entry["witness"]) == 6
    assert entry["note"].startswith("walk stopped at cap 1; 6 ideals listed")


def test_unknown_condition_exits_two():
    code, _, err = run_cli("check", "--gen", "div:12", "--conditions", "D7")
    assert code == 2
    assert b"unknown conditions" in err


def test_console_script_installed():
    import shutil

    exe = shutil.which("ordfactor")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "check", "--gen", "div:12", "--conditions", "D1"], capture_output=True)
    assert proc.returncode == 0
