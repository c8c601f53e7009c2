import hashlib
import json
import pathlib
import re
import sys
from bisect import bisect_left
from collections import Counter

import pytest

from bincoupling import build_table
from bincoupling.cli import EXIT_OK, main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from same_outputs import (  # noqa: E402
    CFG,
    COMMANDS,
    COUPLE_PROBE,
    OUT,
    ROOT,
    RUNS,
    outputs,
    report_differences,
    table_differences,
)


PINNED = [(argv, pin) for argv, pin in COMMANDS if pin]


@pytest.mark.parametrize("argv, pin", PINNED, ids=[pin for _, pin in PINNED])
def test_pinned_output(argv, pin, tmp_path, monkeypatch, capsysbinary):
    # every byte as first recorded: the --out file if the command writes
    # one, else stdout; a .sha256 pin masks the Python version
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    if OUT in argv:
        out = (tmp_path / OUT).read_bytes()
    if pin.endswith(".sha256"):
        out = re.sub(rb'"python": "[^"]*"', b'"python": "<python>"', out)
        want = (CFG / pin).read_text().split()[0]
        assert hashlib.sha256(out).hexdigest() == want
    else:
        assert out == (CFG / pin).read_bytes()


def test_every_fixture_is_pinned_by_one_command():
    fixtures = Counter(f.name for f in CFG.iterdir() if f.suffix != ".cfg")
    assert Counter(pin for _, pin in PINNED) == fixtures


def report(records, constants):
    return json.dumps({
        "constants": constants, "meta": {},
        "records": [{"check": c, "k": k, "n": n, "passed": p, "slack": s}
                    for c, n, k, p, s in records]}).encode()


WANT = report([("a", 28, 15, True, "0.5"), ("a", 28, 16, True, "1e-10"),
               ("b", 28, 15, True, "2"), ("b", 28, 16, True, "3")],
              {"c1": "0.25", "c2": "4", "c3": "1"})


def test_same_reports_have_nothing_but_the_summary():
    assert report_differences(WANT, WANT) == [
        "  passed flags moved: 0", "  constants are the same"]


def test_flags_slack_changes_and_constants_are_named():
    have = report([("a", 28, 15, True, "0.5"), ("a", 28, 16, False, "-3e-10"),
                   ("b", 28, 15, True, "2.25"), ("b", 28, 16, True, "3.125"),
                   ("b", 29, 15, True, "1")],
                  {"c1": "0.25", "c2": "4.5", "c3": "1"})
    assert report_differences(WANT, have) == [
        "  a: 1 shared records differ, 0 only here, 0 only at the ref, "
        "1 passed flags moved, largest |slack change| 4e-10",
        "  b: 2 shared records differ, 1 only here, 0 only at the ref, "
        "0 passed flags moved, largest |slack change| 0.25",
        "  first differing (check, n, k): ('a', 28, 16)",
        "  records only here: 1, at n = 29",
        "  passed flags moved: 1",
        "  constant c2: 4 -> 4.5, relative change 0.125"]


def test_a_constant_on_one_side_only_is_named():
    have = report([], {"c1": "0.25", "c2": "4"})
    lines = report_differences(WANT, have)
    assert "  constant c3: only at the ref" in lines
    assert "  a: 0 shared records differ, 0 only here, 2 only at the ref, " \
        "0 passed flags moved, largest |slack change| 0" in lines
    assert "  records only at the ref: 4, at n = 28" in lines


def test_a_side_that_is_not_json_gives_no_lines():
    assert report_differences(b"n,k\n", WANT) == []


def test_outputs_that_are_not_reports_give_no_lines():
    # every differing output is offered to the report reader: empty
    # stdout, exit codes and a cutpoint table are not reports
    assert report_differences(b"", WANT) == []
    assert report_differences(b"0", b"2") == []
    assert report_differences(TABLE, TABLE.replace(b"12.5", b"12")) == []


def csv_report(records):
    return "".join(["n,k,check,passed,slack\n"] + [
        f"{n},{k},{c},{'true' if p else 'false'},{s}\n"
        for c, n, k, p, s in records]).encode()


CSV_WANT = csv_report([("a", 28, 15, True, "0.5"), ("a", 28, 16, True, "1"),
                       ("b", 28, 15, True, "2")])


def test_same_csv_reports_have_nothing_but_the_flag_total():
    assert report_differences(CSV_WANT, CSV_WANT) == [
        "  passed flags moved: 0"]


def test_csv_records_on_one_side_are_counted_with_their_n():
    # a report that adds rows at one n and keeps every other row's bytes
    have = csv_report([("a", 28, 15, True, "0.5"), ("a", 28, 16, True, "1"),
                       ("a", 2048, 1025, True, "3"),
                       ("b", 28, 15, True, "2"),
                       ("b", 2048, 1025, False, "-1")])
    assert report_differences(CSV_WANT, have) == [
        "  a: 0 shared records differ, 1 only here, 0 only at the ref, "
        "0 passed flags moved, largest |slack change| 0",
        "  b: 0 shared records differ, 1 only here, 0 only at the ref, "
        "0 passed flags moved, largest |slack change| 0",
        "  first differing (check, n, k): ('a', 2048, 1025)",
        "  records only here: 2, at n = 2048",
        "  passed flags moved: 0"]


def test_csv_flags_and_slack_changes_are_named():
    have = csv_report([("a", 28, 15, True, "0.5"), ("a", 28, 16, False, "-1"),
                       ("b", 29, 15, True, "2")])
    assert report_differences(CSV_WANT, have) == [
        "  a: 1 shared records differ, 0 only here, 0 only at the ref, "
        "1 passed flags moved, largest |slack change| 2",
        "  b: 0 shared records differ, 1 only here, 1 only at the ref, "
        "0 passed flags moved, largest |slack change| 0",
        "  first differing (check, n, k): ('a', 28, 16)",
        "  records only here: 1, at n = 29",
        "  records only at the ref: 1, at n = 28",
        "  passed flags moved: 1"]


TABLE = (b"n,k,epsilon,z,beta,log_tail\n"
         b"4,1,-1,-12.5,-2.25,-0.0625\n"
         b"4,2,-0.5,-0.5,1.75,-0.375\n"
         b"4,3,0.5,0.5,2.25,-1.125\n"
         b"4,4,1,12.5,6.25,-2.75\n")


def test_same_tables_have_no_lines():
    assert table_differences(TABLE, TABLE) == []


def test_moved_columns_and_the_smallest_moved_z_are_named():
    have = TABLE.replace(b"-12.5,-2.25", b"-12.625,-2.3125").replace(
        b"1,12.5,6.25", b"1,12.625,6.3125")
    assert table_differences(TABLE, have) == [
        "  z: 2 rows moved, largest relative change 0.01",
        "  beta: 2 rows moved, largest relative change 0.0278",
        "  rows moved: 2 of 4, smallest |z| among them 12.5"]


def test_a_side_that_is_not_a_table_gives_no_lines():
    assert table_differences(b"log_prob = -1\n", TABLE) == []
    assert table_differences(TABLE, b"") == []
    assert table_differences(TABLE, TABLE + b"4,5,1,1,1,1\n") == []


def test_the_couple_probe_prints_each_cell_and_each_refusal():
    assert ("couple probe", ["-c", COUPLE_PROBE]) in RUNS
    out = outputs(ROOT, ["-c", COUPLE_PROBE])
    assert (out["exit code"], out["stderr"]) == (b"0", b"")
    lines = [line.split(" ", 3) for line in out["stdout"].decode().split("\n")
             if line]
    betas = {n: build_table(n).beta for n in (64, 1024, 4096)}
    refused, numpy_draws = [], 0
    for n, kind, y, rest in lines:
        n = int(n)
        if rest.startswith("DomainError"):
            refused.append((n, kind, rest))
            continue
        # a numpy scalar's repr is np.float64(31.7) or 31.7, by numpy version
        y = float(y.removeprefix(f"np.{kind}(").removesuffix(")"))
        numpy_draws += kind != "float"
        assert rest == str(bisect_left(betas[n], y)), (n, kind, y)
    assert len(lines) == 2049
    assert numpy_draws == 18
    assert refused == [
        (n, kind, f"DomainError y must be {why}")
        for n in (64, 1024, 4096)
        for kind, why in [
            ("float", "finite, got nan"), ("float", "finite, got inf"),
            ("float", "finite, got -inf"),
            ("str", "a number, got '2049'"), ("bool", "a number, got True"),
            ("NoneType", "a number, got None"),
            ("int", "finite, float() refuses this int"),
            ("Decimal", "finite, float() refuses this Decimal")]]
