"""Benchmark of bincoupling: three workloads, each run in fresh processes
through the public entry points, with a correctness gate per workload.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller, one process at a time):

* ``sweep-dense`` - ``python -m bincoupling.cli sweep --config CFG --format
  json --out FILE`` with ``k_policy = all`` over twelve n from 28 to 4096,
  odd and non-power-of-two n included.  The certification run itself:
  approx, verify, cutpoints.build_table and binom_exact, never couple.
  The config sets no ``parallelism`` and the environment drops
  ``BINCOUPLING_MAX_WORKERS``, so the run keeps its meaning when both go.
  The format is passed on the command line (the config key is ignored by
  the CLI) and is JSON because only the JSON report carries the fitted
  constants the gate checks.  The seed permutes the order of ``n_values``;
  the report does not depend on it.
* ``couple-stream`` - ``couple_stream.py`` builds the tables for n = 64, 1024
  and 4096 (its set-up), then couples seeded N(n/2, n/4) draws one at a
  time, in passes of 1500 draws (500 per table, ~0.07 s).  Short passes
  let the best one miss the host's interruptions.  Read accesses to the
  cutpoint table; bypasses approx, verify and lambda_n.
* ``lemma1-grid`` - ``python -m bincoupling.cli lemma1`` on [-8, 8] with step
  2e-4 (80001 points), shifted by (seed mod 8)/8 of a step.  Scalar
  normal_tail work only: the no-change control for changes to binom_exact,
  cutpoints, approx and verify.  It is not in ``BENCHMARK.json``: on a
  shared 2-CPU host its best wall time spread 26% (interquartile range over
  the median) across ten seeds, past the 25% bound, so run it by name when
  a change needs that control.

End-to-end metrics (``--trace 0``).  The timings are the best repetition
of a run, not the median: on a shared host other tenants' load only ever
adds time, so the fastest repetition is the closest to the program's own
cost.  Slow phases of the host that last longer than a run still show.
Every sample is printed in the ``meta`` line.

* ``setup_s`` - process start to ready, fastest of the run: a fresh
  ``import bincoupling.cli`` before each repetition of the CLI workloads;
  import plus table builds for couple-stream.
* ``wall_s`` - fastest repetition: the whole CLI process (this is
  ``sweep_wall_s`` and ``lemma1_wall_s``); for couple-stream, the fastest
  pass over the draws (the table builds are in ``setup_s``).
* ``ops_per_s`` - highest rate: sweep records or grid points per second of
  CLI wall time, and draws per second of the fastest pass
  (``couple_draws_per_s``).
* ``peak_rss_mb`` - median peak RSS of the workload process.

``failed_ratio`` is ``failed / attempted`` of the result line; it is printed
with the metrics but is not one of them, because it is 0 on a correct run.

``--trace 1`` alternates untraced repetitions with traced ones
(``traced.py``) and prints the per-layer metrics: calls and self time of
each public function in ``tracer.TARGETS``, psi evaluations per inverse_psi
solve, distinct-argument ratios of lambda_n and log_tail_exact_all, report
records and failures, and ``trace.overhead_s`` (fastest traced minus
fastest untraced wall).
Self times of spans on the sweep's worker threads include time spent
waiting for the interpreter lock.

Output: one line per metric, a ``{"meta": ...}`` line with the run's
metadata, and as the last line ``{"correct", "attempted", "failed",
"metrics"}``.  Exit code 1 when a gate fails, 2 when the program is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gates
from tracer import ARG_TARGETS, TARGETS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-dense", "couple-stream", "lemma1-grid")
CHILD_TIMEOUT_S = 150.0
LEMMA1_OFFSETS = 8

SIZES = {
    "full": {
        "sweep_n": (28, 29, 64, 100, 128, 256, 512, 1000, 1024, 2048, 3001,
                    4096),
        "lemma1": (-8.0, 8.0, 0.0002),
        "couple_n": (64, 1024, 4096),
        "couple_draws": 1500,
        "couple_window_s": 1.0,
        "couple_sample_every": 4,
    },
    # for the benchmark's own tests
    "tiny": {
        "sweep_n": (28, 29, 64),
        "lemma1": (-2.0, 2.0, 0.01),
        "couple_n": (28, 64),
        "couple_draws": 500,
        "couple_window_s": 0.05,
        "couple_sample_every": 5,
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}
ALIASES = {("sweep-dense", "wall_s"): "sweep_wall_s",
           ("lemma1-grid", "wall_s"): "lemma1_wall_s",
           ("couple-stream", "ops_per_s"): "couple_draws_per_s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, fnames in TARGETS.items():
        for fname in fnames:
            units[f"{mod}.{fname}.calls"] = "count"
            units[f"{mod}.{fname}.self_s"] = "s"
    units["normal_tail.inverse_psi.psi_evals_per_solve"] = "count"
    for fname in ARG_TARGETS:
        units[f"{fname}.distinct_ratio"] = "ratio"
    units["verify.records"] = "count"
    units["verify.records_failed"] = "count"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    marks: dict[str, float] = field(default_factory=dict)


# The program makes no BLAS calls, but numpy's BLAS starts one thread per
# CPU at import and they compete with the workload for the CPUs: ~0.3 s of
# runnable-but-waiting time per process start on two CPUs, and a slower,
# noisier import.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BINCOUPLING_MAX_WORKERS", None)
    env.update(dict.fromkeys(ONE_THREAD, "1"))
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args: list[str], work: Path,
              marks: tuple[str, ...] = ()) -> Proc:
    """Run one process to completion; wall time from spawn to reaping,
    peak RSS from the kernel's rusage, and the time each line in ``marks``
    first appeared on its stdout."""
    seen: dict[str, float] = {}
    lines: list[str] = []
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                             cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            for raw in p.stdout:
                line = raw.decode()
                if line.strip() in marks and line.strip() not in seen:
                    seen[line.strip()] = time.perf_counter() - t0
                lines.append(line)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
            p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode:
        sys.stderr.write((work / "stderr.txt").read_text()[-2000:])
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, "".join(lines),
                seen)


def cli_command(tail: list[str], spans: Path | None = None) -> list[str]:
    """``python -m bincoupling.cli TAIL``, or its traced counterpart."""
    if spans is None:
        return [sys.executable, "-m", "bincoupling.cli", *tail]
    return [sys.executable, str(HERE / "traced.py"), str(spans), "cli", *tail]


def sweep_args(ns, config: Path, out: Path) -> list[str]:
    config.write_text(f"n_values = {', '.join(map(str, ns))}\nk_policy = all\n")
    return ["sweep", "--config", str(config), "--format", "json",
            "--out", str(out)]


def lemma1_args(grid: tuple[float, float, float], shift: int) -> list[str]:
    """The lemma1 command on ``grid`` moved by shift/LEMMA1_OFFSETS of a
    step; every shift keeps the number of points."""
    lo, hi, step = grid
    d = shift * step / LEMMA1_OFFSETS
    return ["lemma1", f"--grid={lo + d!r}:{hi + d!r}:{step!r}"]


@dataclass
class Rep:
    wall_s: float
    setup_s: float
    rates: list[float]  # operations per second, one or more samples
    rss_mb: float
    verdict: gates.Verdict


class Workload:
    """One workload: ``rep`` runs one fresh process (traced when
    ``spans`` is a path) and gates its output."""

    name = ""
    setup_by_import = True  # set-up is a separate import-only process

    def __init__(self, seed: int, size: str, work: Path):
        self.seed, self.size, self.work = seed, SIZES[size], work
        self.size_name = size
        self._verdicts: dict[str, gates.Verdict] = {}

    def gated(self, key: bytes, check) -> gates.Verdict:
        """Outputs repeat exactly between repetitions of a run; gate each
        distinct output once."""
        digest = hashlib.sha256(key).hexdigest()
        if digest not in self._verdicts:
            self._verdicts[digest] = check()
        return self._verdicts[digest]

    def import_time(self) -> float:
        return run_child([sys.executable, "-c", "import bincoupling.cli"],
                         self.work).wall_s


class SweepDense(Workload):
    name = "sweep-dense"

    def __init__(self, *a):
        super().__init__(*a)
        self.ref = gates.load_reference()[self.name][self.size_name]
        ns = list(self.size["sweep_n"])
        random.Random(self.seed).shuffle(ns)
        self.out = self.work / "report.json"
        self.args = sweep_args(ns, self.work / "sweep.cfg", self.out)
        self.input_size = {"records": self.ref["records"],
                           "n_values": ns, "k_policy": "all"}

    def rep(self, spans: Path | None = None) -> Rep:
        self.out.unlink(missing_ok=True)
        proc = run_child(cli_command(self.args, spans), self.work)
        payload = self.out.read_bytes() if self.out.exists() else b""

        def check():
            report = json.loads(payload) if payload else None
            return gates.check_sweep(proc.exit_code, report, self.ref)

        verdict = self.gated(b"%d|" % proc.exit_code + payload, check)
        return Rep(proc.wall_s, math.nan, [verdict.attempted / proc.wall_s],
                   proc.rss_mb, verdict)


class Lemma1Grid(Workload):
    name = "lemma1-grid"

    def __init__(self, *a):
        super().__init__(*a)
        ref = gates.load_reference()[self.name][self.size_name]
        shift = self.seed % LEMMA1_OFFSETS
        self.args = lemma1_args(self.size["lemma1"], shift)
        self.points = ref["points"]
        self.worst_ref = ref["worst_slack"][shift]
        self.input_size = {"grid_points": self.points, "args": self.args}

    def rep(self, spans: Path | None = None) -> Rep:
        proc = run_child(cli_command(self.args, spans), self.work)
        verdict = self.gated(
            f"{proc.exit_code}|{proc.stdout}".encode(),
            lambda: gates.check_lemma1(proc.exit_code, proc.stdout,
                                       self.points, self.worst_ref))
        return Rep(proc.wall_s, math.nan, [verdict.attempted / proc.wall_s],
                   proc.rss_mb, verdict)


class CoupleStream(Workload):
    name = "couple-stream"
    setup_by_import = False

    def __init__(self, *a):
        super().__init__(*a)
        s = self.size
        self.args = ["--seed", str(self.seed),
                     "--ns", ",".join(map(str, s["couple_n"])),
                     "--draws", str(s["couple_draws"]),
                     "--window", repr(s["couple_window_s"]),
                     "--sample-every", str(s["couple_sample_every"])]
        self.input_size = {"draws_per_pass": s["couple_draws"],
                           "ns": list(s["couple_n"])}

    def rep(self, spans: Path | None = None) -> Rep:
        if spans is None:
            cmd = [sys.executable, str(HERE / "couple_stream.py"), *self.args]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans),
                   "couple", *self.args]
        proc = run_child(cmd, self.work, marks=("ready", "pass"))
        draws = self.size["couple_draws"]
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.exit_code or result is None or "pass" not in proc.marks:
            verdict = gates.check_couple(proc.exit_code or 1, None, draws)
            return Rep(proc.wall_s, math.nan, [draws / proc.wall_s],
                       proc.rss_mb, verdict)
        key = json.dumps([result["betas"], result["sample"]]).encode()
        verdict = self.gated(key, lambda: gates.check_couple(0, result, draws))
        verdict = gates.Verdict(result["draws"], verdict.failed,
                                verdict.problems)
        passes = result["pass_s"]
        return Rep(min(passes), proc.marks["ready"],
                   [draws / t for t in passes], proc.rss_mb, verdict)


WORKLOAD_CLASSES = {w.name: w for w in (SweepDense, CoupleStream, Lemma1Grid)}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(w: Workload, args, samples: dict) -> dict:
    versions = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "versions": versions, "git_sha": git_sha(),
            "input_size": w.input_size, "samples": samples}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(w: Workload, seconds: float, trace: bool):
    """Repeat while another repetition fits in ``seconds`` (at least once).
    Untraced: end-to-end metrics.  Traced: an untraced and a traced
    repetition in turn, and the per-layer metrics."""
    deadline = time.perf_counter() + seconds
    plain: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    setups: list[float] = []
    took: list[float] = []
    while not plain or time.perf_counter() + median(took) < deadline:
        t0 = time.perf_counter()
        if w.setup_by_import:
            setups.append(w.import_time())
        plain.append(w.rep())
        if trace:
            spans = w.work / "spans.npz"
            rep = w.rep(spans)
            traced.append((rep, summarize(str(spans))))
            spans.unlink()
        took.append(time.perf_counter() - t0)
    setups += [r.setup_s for r in plain if not math.isnan(r.setup_s)]
    every = plain + [r for r, _ in traced]
    attempted = sum(r.verdict.attempted for r in every)
    failed = sum(r.verdict.failed for r in every)
    problems = sorted({p for r in every for p in r.verdict.problems})

    notes = []
    samples = {"wall_s": [r.wall_s for r in plain], "setup_s": setups,
               "ops_per_s": [x for r in plain for x in r.rates],
               "peak_rss_mb": [r.rss_mb for r in plain]}
    if not trace:
        metrics = {
            "setup_s": min(setups),
            "wall_s": min(samples["wall_s"]),
            "ops_per_s": max(samples["ops_per_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
        }
        units = END_TO_END
    else:
        units = per_layer_units()
        metrics = {}
        first = traced[0][1]
        for mod, fnames in TARGETS.items():
            for fname in fnames:
                key = f"{mod}.{fname}"
                if key not in first:
                    notes.append(f"not traced: {key} is not in this version")
                metrics[f"{key}.calls"] = first.get(key, {}).get("calls", 0)
                metrics[f"{key}.self_s"] = median(
                    [s.get(key, {}).get("self_s", 0.0) for _, s in traced])
        metrics["normal_tail.inverse_psi.psi_evals_per_solve"] = first.get(
            "normal_tail.inverse_psi", {}).get("psi_evals_per_solve", 0.0)
        for key in ARG_TARGETS:
            metrics[f"{key}.distinct_ratio"] = first.get(key, {}).get(
                "distinct_ratio", 0.0)
        is_sweep = w.name == "sweep-dense"
        metrics["verify.records"] = traced[0][0].verdict.attempted \
            if is_sweep else 0
        metrics["verify.records_failed"] = traced[0][0].verdict.failed \
            if is_sweep else 0
        metrics["trace.overhead_s"] = (min(r.wall_s for r, _ in traced)
                                       - min(r.wall_s for r in plain))
    return metrics, units, attempted, failed, problems, notes, samples


def report(w: Workload, args, metrics, units, attempted, failed, problems,
           notes, samples) -> bool:
    for name, value in metrics.items():
        alias = ALIASES.get((w.name, name))
        label = f"{alias} ({name})" if alias else name
        print(f"{w.name:14s} {label:46s} {value:.6g} {units[name]}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{w.name:14s} {'failed_ratio':46s} {ratio:.6g} "
          f"({failed}/{attempted})")
    for note in notes:
        print(f"{w.name:14s} {note}")
    for p in problems:
        print(f"{w.name:14s} GATE FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"meta": run_metadata(w, args, samples)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    args = p.parse_args(argv)
    if not (SRC / "bincoupling" / "__init__.py").is_file():
        print(f"error: no bincoupling package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    (HERE / ".work").mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            w = WORKLOAD_CLASSES[name](args.seed, args.size, Path(tmp))
            # compiles the package's bytecode and warms the file cache
            w.import_time()
            result = measure(w, args.seconds, bool(args.trace))
            all_correct &= report(w, args, *result)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
