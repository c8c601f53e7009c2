import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from same_outputs import report_differences  # noqa: E402


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
        "  a: 1 records differ, 1 passed flags moved, largest |slack change| "
        "4e-10",
        "  b: 3 records differ, 0 passed flags moved, largest |slack change| "
        "0.25",
        "  first differing (check, n, k): ('a', 28, 16)",
        "  passed flags moved: 1",
        "  constant c2: 4 -> 4.5, relative change 0.125"]


def test_a_constant_on_one_side_only_is_named():
    have = report([], {"c1": "0.25", "c2": "4"})
    lines = report_differences(WANT, have)
    assert "  constant c3: only at the ref" in lines
    assert "  a: 2 records differ, 0 passed flags moved, largest |slack " \
        "change| 0" in lines


def test_a_side_that_is_not_json_gives_no_lines():
    assert report_differences(b"n,k\n", WANT) == []
