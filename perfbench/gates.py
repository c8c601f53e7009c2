"""Correctness gates of the three workloads.

Each gate takes what one workload process produced and returns a Verdict:
how many operations were attempted, how many failed, and the reasons the
output does not match the reference (an empty list means correct).

Tolerances: report slacks and fitted constants must agree with the
reference to ``REL_TOL * max(1, |reference|)``.  A change of solver that
moves cutpoints by ~1e-11 in z moves the N*theta based numbers by up to
~1e-7 relative, so 1e-6 passes it while catching any change of substance.
Row identities and pass flags must match exactly (through a hash).
The lemma 1 worst slack is of the order of rounding (~1e-18), so it is
compared with the absolute tolerance ``LEMMA1_ABS_TOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-6
LEMMA1_ABS_TOL = 1e-13
LEMMA1_LINE = re.compile(
    r"(?P<points>\d+) points, (?P<failures>\d+) failures, "
    r"worst slack (?P<worst>\S+)")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def sweep_summary(report: dict) -> dict:
    """Reduce a JSON sweep report to what the reference keeps: a hash of the
    sorted (check, n, k, passed) rows and per check the record count, the
    failures and the minimum slack, plus the fitted constants."""
    rows = sorted((r["check"], r["n"], r["k"], r["passed"])
                  for r in report["records"])
    digest = hashlib.sha256(
        "\n".join(f"{c},{n},{k},{p}" for c, n, k, p in rows).encode())
    checks: dict[str, dict] = {}
    for r in report["records"]:
        c = checks.setdefault(r["check"], {"records": 0, "failures": 0,
                                           "min_slack": math.inf})
        c["records"] += 1
        c["failures"] += not r["passed"]
        c["min_slack"] = min(c["min_slack"], float(r["slack"]))
    return {
        "records": len(rows),
        "rows_sha256": digest.hexdigest(),
        "checks": dict(sorted(checks.items())),
        "constants": {k: float(v) for k, v in
                      sorted(report["constants"].items())},
    }


def check_sweep(exit_code: int, report: dict | None, ref: dict) -> Verdict:
    """Operations are report records; with a non-zero exit all count as
    failed."""
    expected = ref["records"]
    if exit_code != 0 or report is None:
        return Verdict(expected, expected, [f"sweep exit code {exit_code}"])
    got = sweep_summary(report)
    failed = sum(c["failures"] for c in got["checks"].values())
    problems = []
    if got["records"] != expected:
        problems.append(f"{got['records']} records, reference {expected}")
    if got["rows_sha256"] != ref["rows_sha256"]:
        problems.append("(check, n, k, passed) rows differ from reference")
    for name in sorted(set(got["checks"]) | set(ref["checks"])):
        g, r = got["checks"].get(name), ref["checks"].get(name)
        if g is None or r is None:
            problems.append(f"check {name} only in "
                            f"{'reference' if g is None else 'output'}")
        elif (g["records"], g["failures"]) != (r["records"], r["failures"]):
            problems.append(f"check {name}: records/failures "
                            f"{g['records']}/{g['failures']}, reference "
                            f"{r['records']}/{r['failures']}")
        elif not _close(g["min_slack"], r["min_slack"]):
            problems.append(f"check {name}: min slack {g['min_slack']!r}, "
                            f"reference {r['min_slack']!r}")
    for name, r in ref["constants"].items():
        g = got["constants"].get(name)
        if g is None or not (_close(g, r) or (math.isnan(g) and math.isnan(r))):
            problems.append(f"constant {name} = {g!r}, reference {r!r}")
    return Verdict(got["records"], failed, problems)


def check_couple(exit_code: int, result: dict | None, draws: int) -> Verdict:
    """Every sampled draw must map to the brute-force count of cutpoints
    strictly below y.  Operations are coupled draws; a mismatch in the
    sample counts as one failed draw."""
    if exit_code != 0 or result is None:
        return Verdict(draws, draws, [f"couple-stream exit code {exit_code}"])
    problems = []
    bad = 0
    for table, y, k in result["sample"]:
        betas = result["betas"][table]
        want = sum(1 for b in betas if b < y)
        if k != want:
            bad += 1
            if len(problems) < 5:
                problems.append(f"couple(n={len(betas)}, y={y!r}) = {k}, "
                                f"brute force {want}")
    if not result["sample"]:
        problems.append("no draws sampled")
    if bad:
        problems.insert(0, f"{bad} of {len(result['sample'])} sampled draws "
                           "mis-coupled")
    return Verdict(result["draws"], bad, problems)


def parse_lemma1(stdout: str) -> dict | None:
    m = LEMMA1_LINE.search(stdout)
    if not m:
        return None
    return {"points": int(m["points"]), "failures": int(m["failures"]),
            "worst_slack": float(m["worst"])}


def check_lemma1(exit_code: int, stdout: str, points: int,
                 worst_ref: float) -> Verdict:
    """Operations are grid points.  The CLI's failure count is the number
    failed; a non-zero exit or unreadable output fails every point."""
    got = parse_lemma1(stdout)
    if exit_code != 0 or got is None:
        return Verdict(points, points,
                       [f"lemma1 exit code {exit_code}, output {stdout!r}"])
    problems = []
    if got["points"] != points:
        problems.append(f"{got['points']} grid points, expected {points}")
    if got["failures"]:
        problems.append(f"{got['failures']} failures reported")
    if abs(got["worst_slack"] - worst_ref) > LEMMA1_ABS_TOL:
        problems.append(f"worst slack {got['worst_slack']!r}, "
                        f"reference {worst_ref!r}")
    return Verdict(got["points"], got["failures"], problems)
