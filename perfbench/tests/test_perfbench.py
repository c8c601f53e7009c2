"""Tests of the benchmark itself: a tiny-size run of every workload, the
gates rejecting corrupted outputs, and the tracer's bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "5",
         "--seconds", "0.2", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_run_and_pass_their_gates(trace):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = run.per_layer_units() if trace else run.END_TO_END
    lines = results(proc.stdout)
    assert len(lines) == len(run.WORKLOADS)
    for res in lines:
        assert res["correct"] is True and res["failed"] == 0
        assert res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in ("setup_s", "sweep_wall_s", "couple_draws_per_s",
                 "lemma1_wall_s", "peak_rss_mb", "failed_ratio"):
        assert trace or name in proc.stdout
    if trace:
        sweep, couple, lemma1 = (r["metrics"] for r in lines)
        assert sweep["verify.records"]["value"] == \
            gates.load_reference()["sweep-dense"]["tiny"]["records"]
        assert sweep["binom_exact.log_tail_exact_all.distinct_ratio"][
            "value"] == 0.5
        assert sweep["cutpoints.couple.calls"]["value"] == 0
        assert couple["cutpoints.couple.calls"]["value"] > 0
        assert couple["approx.theorem1_breakdown.calls"]["value"] == 0
        assert lemma1["normal_tail.psi.calls"]["value"] == 5 * 401
        assert lemma1["binom_exact.lambda_n.calls"]["value"] == 0


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "lemma1-grid", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not results(proc.stdout)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("work")


@pytest.fixture(scope="module")
def sweep_report(work) -> dict:
    out = work / "report.json"
    proc = run.run_child(run.cli_command(run.sweep_args(
        run.SIZES["tiny"]["sweep_n"], work / "sweep.cfg", out)), work)
    assert proc.exit_code == 0
    return json.loads(out.read_text())


def test_sweep_gate(sweep_report):
    ref = gates.load_reference()["sweep-dense"]["tiny"]
    assert gates.check_sweep(0, sweep_report, ref).correct

    flipped = json.loads(json.dumps(sweep_report))
    flipped["records"][7]["passed"] = not flipped["records"][7]["passed"]
    assert not gates.check_sweep(0, flipped, ref).correct

    constant = json.loads(json.dumps(sweep_report))
    constant["constants"]["c_thm1"] = repr(
        float(constant["constants"]["c_thm1"]) * (1 + 1e-3))
    assert not gates.check_sweep(0, constant, ref).correct

    # a solver change of ~1e-11 must not trip the slack tolerance
    nudged = json.loads(json.dumps(sweep_report))
    for r in nudged["records"]:
        r["slack"] = repr(float(r["slack"]) + 1e-11)
    assert gates.check_sweep(0, nudged, ref).correct

    v = gates.check_sweep(1, sweep_report, ref)
    assert not v.correct and v.failed == v.attempted == ref["records"]


def test_couple_gate(work):
    proc = run.run_child(
        [sys.executable, str(HERE / "couple_stream.py"), "--seed", "3",
         "--ns", "28,64", "--draws", "300", "--window", "0", "--sample-every",
         "3"], work, marks=("ready", "pass"))
    assert proc.exit_code == 0 and set(proc.marks) == {"ready", "pass"}
    result = json.loads(proc.stdout.splitlines()[-1])
    assert gates.check_couple(0, result, 300).correct

    table, y, k = result["sample"][10]
    result["sample"][10] = [table, y, k + 1]
    v = gates.check_couple(0, result, 300)
    assert not v.correct and v.failed == 1

    v = gates.check_couple(1, None, 300)
    assert not v.correct and v.failed == 300


def test_lemma1_gate(work):
    proc = run.run_child(run.cli_command(
        run.lemma1_args(run.SIZES["tiny"]["lemma1"], 0)), work)
    worst = gates.load_reference()["lemma1-grid"]["tiny"]["worst_slack"][0]
    assert gates.check_lemma1(proc.exit_code, proc.stdout, 401, worst).correct

    failing = proc.stdout.replace(" 0 failures", " 2 failures")
    v = gates.check_lemma1(0, failing, 401, worst)
    assert not v.correct and v.failed == 2
    assert not gates.check_lemma1(0, proc.stdout, 401, worst + 1e-9).correct
    v = gates.check_lemma1(1, proc.stdout, 401, worst)
    assert not v.correct and v.failed == 401


def test_tracer_self_time_counts_and_ratios(tmp_path):
    t = tracer.Tracer()
    psi = t.wrap("normal_tail.psi", lambda: time.sleep(0.02))
    solve = t.wrap("normal_tail.inverse_psi", lambda: [psi() for _ in "abc"])
    lam = t.wrap("binom_exact.lambda_n", lambda n: n)

    def fan_out():
        # two solves on two worker threads overlap in time
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: solve(), range(2)))
        for n in (5, 5, 7):
            lam(n)

    t.wrap("verify.run_sweep", fan_out)()
    t.dump(str(tmp_path / "spans.npz"))
    s = tracer.summarize(str(tmp_path / "spans.npz"))

    assert s["normal_tail.psi"]["calls"] == 6
    assert s["normal_tail.inverse_psi"]["psi_evals_per_solve"] == 3
    assert s["binom_exact.lambda_n"]["distinct_ratio"] == pytest.approx(2 / 3)
    assert s["normal_tail.psi"]["self_s"] >= 6 * 0.02
    assert 0 <= s["normal_tail.inverse_psi"]["self_s"] < 0.01
    # the union of the overlapping worker spans, not their sum, is removed
    assert 0 <= s["verify.run_sweep"]["self_s"] < 0.02
