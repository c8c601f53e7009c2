"""Regenerates reference.json, the expected outputs the gates compare with.

    python3 perfbench/make_reference.py

For every size in run.SIZES it runs the sweep-dense CLI command once and
keeps its summary (gates.sweep_summary), and runs the lemma1-grid command at
each of the LEMMA1_OFFSETS grid shifts and keeps the point count and the
worst slacks.  Run it only when a change of results is intended, and say so
in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gates
import run


def main() -> int:
    ref: dict = {"sweep-dense": {}, "lemma1-grid": {}}
    (run.HERE / ".work").mkdir(exist_ok=True)
    for size, spec in run.SIZES.items():
        with tempfile.TemporaryDirectory(dir=run.HERE / ".work") as tmp:
            work = Path(tmp)
            out = work / "report.json"
            proc = run.run_child(run.cli_command(
                run.sweep_args(spec["sweep_n"], work / "sweep.cfg", out)), work)
            if proc.exit_code:
                raise SystemExit(f"sweep failed with {proc.exit_code}")
            ref["sweep-dense"][size] = gates.sweep_summary(
                json.loads(out.read_bytes()))

            worst, points = [], set()
            for shift in range(run.LEMMA1_OFFSETS):
                proc = run.run_child(run.cli_command(
                    run.lemma1_args(spec["lemma1"], shift)), work)
                got = gates.parse_lemma1(proc.stdout)
                if proc.exit_code or got is None or got["failures"]:
                    raise SystemExit(f"lemma1 failed: {proc.stdout!r}")
                worst.append(got["worst_slack"])
                points.add(got["points"])
            if len(points) != 1:
                raise SystemExit(f"grid shifts changed the point count: {points}")
            ref["lemma1-grid"][size] = {"points": points.pop(),
                                        "worst_slack": worst}
    with open(gates.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
