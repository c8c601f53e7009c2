#!/usr/bin/env python3
"""Check that this checkout prints what a git ref prints, byte for byte.

    python tools/same_outputs.py REF

REF, a commit, branch or tag of this repository, is extracted with
``git archive`` into a temporary directory.  Each command below runs once
on that tree and once on this checkout, as ``python -m bincoupling.cli``
with PYTHONPATH at the tree's ``src/``, in a fresh temporary working
directory and without writing bytecode, so nothing is written in the
checkout.  So does the couple probe, ``python -c COUPLE_PROBE``, which
prints the coupled k, or the refusal, of each of a fixed set of draws:
``couple`` has no command of its own.  The config files are this
checkout's fixtures on both sides.
Stdout, stderr, the exit code and any ``--out`` file are compared.  Where
two sweep reports differ, JSON or CSV, both are parsed, and the tool prints
per check how many shared records differ and how many are only on one
side, how many ``passed`` flags moved and the largest |slack change|, the
first differing (check, n, k), the n of the records on one side only, and
for JSON each constant that differs with its relative change.
Where two cutpoint tables on stdout differ, the tool prints per column how
many rows moved and the largest relative change, and the smallest |z|
among the rows that moved.
Exit 0 when every output matches; exit 1 naming each difference; exit 2
when REF cannot be extracted.
"""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
CFG = ROOT / "tests" / "fixtures" / "cli"
OUT = "report.out"
CSV_HEADER = "n,k,check,passed,slack"

COMMANDS = [
    ["sweep"],
    ["sweep", "--format", "json", "--out", OUT],
    ["sweep", "--config", str(CFG / "sweep_dense.cfg"), "--format", "json",
     "--out", OUT],
    ["sweep", "--config", str(CFG / "sweep_28_29.cfg"), "--format", "json",
     "--out", OUT],
    ["sweep", "--config", str(CFG / "sweep_grid.cfg"), "--format", "json",
     "--out", OUT],
    ["sweep", "--config", str(CFG / "sweep_stride.cfg"), "--format", "json",
     "--out", OUT],
    # the one n <= 4096 whose float x rounds an exact 3 down, at k = 1176
    ["sweep", "--config", str(CFG / "sweep_2210.cfg"), "--format", "json",
     "--out", OUT],
    # the fits' edges: n with no expansion row, the expansion's first n
    # (28) and both sides of the n <= 384 split
    ["sweep", "--config", str(CFG / "sweep_edges.cfg"), "--format", "json",
     "--out", OUT],
    ["cutpoints", "1"],
    ["cutpoints", "4"],
    ["cutpoints", "29"],
    ["cutpoints", "100"],
    ["cutpoints", "4096"],
    ["tails", "4", "3"],
    ["tails", "1000", "700"],
    ["tails", "65536", "0"],
    # lower-half tails: two near 1, one at the centre
    ["tails", "100", "1"],
    ["tails", "100", "2"],
    ["tails", "100", "49"],
    # both routes to a numerator's leading bits: 1, 44 and 54 bits (the
    # first that is shifted down); a tail of exactly 1/2; an even centre,
    # in the lower half
    ["tails", "4096", "4096"],
    ["tails", "4096", "4092"],
    ["tails", "4096", "4091"],
    ["tails", "4095", "2048"],
    ["tails", "4096", "2048"],
    ["coupling", "100"],
    ["coupling", "4096"],
    ["lemma1"],
    # the left envelope out to X_MIN, past the default grid's -8
    ["lemma1", "--grid=-37.5:0:0.0375"],
    # refusals main reports as one error line and exit 2
    ["cutpoints", "5000"],
    ["coupling", "0"],
    ["tails", "1048576", "0"],
    ["lemma1", "--grid=-40:190:0.0517"],
]

# seeded N(n/2, n/4) draws at n = 64, 1024 and 4096, as couple-stream makes
# them, the far tails [beta_1, 0) and (n, beta_n] that walk from a clamped
# end, the cutpoints themselves (ties land in the cell below), +-0.0, the
# float extremes, numpy floats and integers, which errors.check_real reads,
# and the draws couple refuses: non-finite, not a number, or past float()
COUPLE_PROBE = """\
import math, random
from decimal import Decimal
import numpy as np
from bincoupling import build_table, couple
rng = random.Random(3)
for n in (64, 1024, 4096):
    table = build_table(n)
    b = table.betas
    ys = [rng.gauss(n / 2, math.sqrt(n) / 2) for _ in range(500)]
    ys += [rng.uniform(b[0], 0.0) for _ in range(50)]
    ys += [rng.uniform(n, b[-1]) for _ in range(50)]
    ys += [*b[::max(1, n // 64)], 0.0, -0.0, n + 0.5, 1e308, -1e308,
           math.nan, math.inf, -math.inf]
    ys += [*map(np.float64, (ys[0], b[n // 2], -0.0)),
           *map(np.int64, (n // 2, -3, n + 5)),
           "2049", True, None, 10**400, Decimal("sNaN")]
    for y in ys:
        try:
            print(n, type(y).__name__, repr(y), couple(table, y))
        except Exception as e:
            print(n, type(y).__name__, repr(y), type(e).__name__, e)
"""
RUNS = [(" ".join(cmd), ["-m", "bincoupling.cli", *cmd]) for cmd in COMMANDS]
RUNS.append(("couple probe", ["-c", COUPLE_PROBE]))


def outputs(tree: pathlib.Path, argv: list[str]) -> dict[str, bytes]:
    """Stdout, stderr, exit code and --out file of ``python ARGV`` on one
    tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, capture_output=True)
        out = pathlib.Path(cwd, OUT)
        return {"stdout": proc.stdout, "stderr": proc.stderr,
                "exit code": str(proc.returncode).encode(),
                "--out file": out.read_bytes() if out.exists() else b""}


def first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def parse_report(doc: bytes):
    """A sweep report's records keyed by (check, n, k), each a dict with at
    least ``passed`` and ``slack``, and its constants (None for CSV, which
    has none); None when ``doc`` is neither a JSON nor a CSV report."""
    try:
        parsed = json.loads(doc)
    except ValueError:
        lines = doc.decode(errors="replace").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return None
        return {(check, int(n), int(k)): {"passed": passed, "slack": slack}
                for n, k, check, passed, slack in csv.reader(lines[1:])}, None
    if not (isinstance(parsed, dict) and "records" in parsed):
        return None
    return ({(r["check"], r["n"], r["k"]): r for r in parsed["records"]},
            parsed["constants"])


def report_differences(want: bytes, have: bytes) -> list[str]:
    """Lines naming what differs between two sweep reports, JSON or CSV: per
    check, how many shared records differ, how many are only here and only
    at the ref, how many of the shared ones flipped their ``passed`` flag
    and the largest |slack change|; the first differing record in report
    order; the n of the records on one side only; the total of flipped
    flags; and, for JSON, each constant that differs, with its relative
    change.  No lines when either side is not a report."""
    parsed = parse_report(want), parse_report(have)
    if None in parsed:
        return []
    (a, ca), (b, cb) = parsed
    moved = [key for key in {**a, **b} if a.get(key) != b.get(key)]
    only = {"here": [key for key in moved if key not in a],
            "at the ref": [key for key in moved if key not in b]}
    here, ref = (Counter(key[0] for key in keys) for keys in only.values())
    count, flips, dslack = Counter(), Counter(), {}
    for key in moved:
        if key in a and key in b:
            check = key[0]
            count[check] += 1
            flips[check] += a[key]["passed"] != b[key]["passed"]
            d = abs(float(b[key]["slack"]) - float(a[key]["slack"]))
            dslack[check] = max(dslack.get(check, 0.0), d)
    lines = [f"  {check}: {count[check]} shared records differ, "
             f"{here[check]} only here, {ref[check]} only at the ref, "
             f"{flips[check]} passed flags moved, largest |slack change| "
             f"{dslack.get(check, 0.0):.3g}"
             for check in dict.fromkeys(key[0] for key in moved)]
    if moved:
        lines.append(f"  first differing (check, n, k): {moved[0]}")
    for side, keys in only.items():
        if keys:
            ns = ", ".join(map(str, sorted({key[1] for key in keys})))
            lines.append(f"  records only {side}: {len(keys)}, at n = {ns}")
    lines.append(f"  passed flags moved: {sum(flips.values())}")
    if ca is None or cb is None:
        return lines
    names = [name for name in {**ca, **cb} if ca.get(name) != cb.get(name)]
    for name in names:
        if name not in ca or name not in cb:
            side = "here" if name in cb else "at the ref"
            lines.append(f"  constant {name}: only {side}")
            continue
        old, new = float(ca[name]), float(cb[name])
        rel = abs(new - old) / abs(old) if old else math.inf
        lines.append(f"  constant {name}: {ca[name]} -> {cb[name]}, "
                     f"relative change {rel:.3g}")
    if not names:
        lines.append("  constants are the same")
    return lines


def table_differences(want: bytes, have: bytes) -> list[str]:
    """Lines naming what differs between two cutpoint tables as CSV: per
    column, how many rows moved and the largest relative change, then how
    many rows moved in all and the smallest |z| among them.  No lines when
    either side is not a table with a z column, or the two differ in
    shape."""
    a, b = (list(csv.reader(io.StringIO(doc.decode())))
            for doc in (want, have))
    if not (a and len(a) == len(b) and a[0] == b[0] and "z" in a[0]):
        return []
    header, z = a[0], a[0].index("z")
    moved = [(x, y) for x, y in zip(a[1:], b[1:]) if x != y]
    lines = []
    for j, name in enumerate(header):
        pairs = [(float(x[j]), float(y[j])) for x, y in moved if x[j] != y[j]]
        if pairs:
            rel = max(abs(new - old) / abs(old) if old else math.inf
                      for old, new in pairs)
            lines.append(f"  {name}: {len(pairs)} rows moved, largest "
                         f"relative change {rel:.3g}")
    if moved:
        least = min(abs(float(x[z])) for x, _ in moved)
        lines.append(f"  rows moved: {len(moved)} of {len(a) - 1}, smallest "
                     f"|z| among them {least:.17g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             capture_output=True)
    if archive.returncode:
        print(f"error: git archive {ref}: {archive.stderr.decode().strip()}",
              file=sys.stderr)
        return 2
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = pathlib.Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        for name, args in RUNS:
            name = name.replace(f"{ROOT}{os.sep}", "")
            want, have = outputs(ref_tree, args), outputs(ROOT, args)
            for part in want:
                if want[part] != have[part]:
                    differences += 1
                    at = first_difference(want[part], have[part])
                    print(f"DIFFERENT {part} of `{name}`: {len(want[part])} "
                          f"bytes at {ref}, {len(have[part])} here, first "
                          f"difference at byte {at}")
                    for explain in (report_differences, table_differences):
                        for line in explain(want[part], have[part]):
                            print(line)
    if differences:
        return 1
    print(f"same outputs as {ref}: {len(COMMANDS)} commands and the couple "
          f"probe, stdout, stderr, exit code and --out file each")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
