import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import bincoupling
from bincoupling import (
    CheckRows,
    DomainError,
    SweepConfig,
    coupling_check,
    emit_report,
    load_config,
    run_sweep,
)
from bincoupling.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_IO_ERROR,
    EXIT_OK,
    main,
)
from bincoupling.approx import (
    delta_sandwich,
    lower_bound_11,
    theorem1_breakdown,
    theorem2_theta,
    tusnady_bounds,
)
from bincoupling.binom_exact import log_tail_exact_all
from bincoupling.cutpoints import N_MAX_TABLE, build_table, epsilon_of
from bincoupling import cli, normal_tail, verify
from bincoupling.errors import SmallEpsilonRegime
from bincoupling.normal_tail import psi
from bincoupling.verify import select_ks


SMALL = SweepConfig(n_values=(28, 29, 64), k_policy="all")
GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli"


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(SMALL)


def break_eq11_at(monkeypatch, n0, k0):
    """Make the eq. (11) identity check of the expansion report a
    violation at (n0, k0)."""
    real = verify.expansion_arrays

    def faulty(n, ks, log_tail, z):
        ex = real(n, ks, log_tail, z)
        return dataclasses.replace(
            ex, breaks_eq11=ex.breaks_eq11 | ((n == n0) & (ks == k0)))

    monkeypatch.setattr(verify, "expansion_arrays", faulty)


class TestSelectKs:
    def test_all_policy(self):
        assert select_ks(10, "all") == list(range(5, 11))
        assert select_ks(9, "all") == list(range(5, 10))

    def test_stride_keeps_special_thresholds(self):
        ks = select_ks(1000, "stride:100")
        for special in (501, 502, 997, 998, 999, 1000):
            assert special in ks
        assert ks == sorted(set(ks))

    def test_default_policy_is_exhaustive_up_to_512(self):
        assert select_ks(512, "extremes_plus_grid") == list(range(256, 513))

    def test_default_policy_caps_large_n(self):
        ks = select_ks(2048, "extremes_plus_grid")
        assert len(ks) <= 512 + 6
        assert 2048 in ks and 1025 in ks


class TestSweepConfig:
    def test_defaults_valid(self):
        SweepConfig()

    def test_rejects_bad_policy(self):
        with pytest.raises(DomainError):
            SweepConfig(k_policy="everything")
        with pytest.raises(DomainError):
            SweepConfig(k_policy="stride:0")

    def test_rejects_bad_format(self):
        with pytest.raises(DomainError):
            SweepConfig(output_format="xml")

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SweepConfig(n_values=())
        with pytest.raises(DomainError):
            SweepConfig(n_values=(28, 0))
        with pytest.raises(DomainError):
            SweepConfig(tolerances={"cutpoint": 0.0})

    def test_rejects_n_beyond_the_table_and_repeated_n(self):
        with pytest.raises(DomainError, match="5000"):
            SweepConfig(n_values=(28, 5000))
        with pytest.raises(DomainError, match="repeat"):
            SweepConfig(n_values=(28, 64, 28))
        SweepConfig(n_values=(1, N_MAX_TABLE))

    @pytest.mark.parametrize("n", [28.5, True, "28"], ids=repr)
    def test_rejects_an_n_that_is_not_an_integer(self, n):
        # unchecked, 28.5 would fail only in run_sweep, True would sweep
        # n = 1 and "28" would be a TypeError
        with pytest.raises(DomainError, match=re.escape(repr(n))):
            SweepConfig(n_values=(n,))

    def test_numpy_integer_n_sweeps_like_an_int(self):
        config = SweepConfig(n_values=(np.int64(28),), k_policy="all")
        assert config.n_values == (28,) and type(config.n_values[0]) is int
        checks, constants = run_sweep(config)
        want = run_sweep(SweepConfig(n_values=(28,), k_policy="all"))
        assert emit_report(checks, constants, "csv") == emit_report(
            *want, "csv")
        doc = json.loads(emit_report(checks, constants, "json", config))
        assert doc["meta"]["config"]["n_values"] == [28]

    def test_rejects_a_bool_tolerance(self):
        # True is a number to float(), and would sweep with tolerance 1.0
        with pytest.raises(DomainError, match="True"):
            SweepConfig(tolerances={"cutpoint": True})

    def test_rejects_a_str_tolerance(self):
        with pytest.raises(DomainError, match="'1e-9'"):
            SweepConfig(tolerances={"cutpoint": "1e-9"})

    def test_numpy_tolerance_is_stored_as_a_float(self):
        config = SweepConfig(n_values=(28,), k_policy="all",
                             tolerances={"cutpoint": np.float32(1e-9)})
        assert type(config.tolerances["cutpoint"]) is float
        doc = json.loads(emit_report(*run_sweep(config), "json", config))
        assert doc["meta"]["config"]["tolerances"] == {
            **verify.DEFAULT_TOLERANCES, "cutpoint": float(np.float32(1e-9))}

    def test_meta_records_every_tolerance_in_effect(self):
        # a partial dict sweeps with the defaults for the rest, and the
        # report says so
        config = SweepConfig(n_values=(28,), k_policy="all",
                             tolerances={"fit": 1e-3})
        want = {**verify.DEFAULT_TOLERANCES, "fit": 1e-3}
        assert config.tolerances == want
        doc = json.loads(emit_report(*run_sweep(config), "json", config))
        assert doc["meta"]["config"]["tolerances"] == want

    def test_tolerances_are_read_only(self):
        # a checked config stays checked: nan would fail every row
        config = SweepConfig(n_values=(28,), k_policy="all")
        with pytest.raises(TypeError):
            config.tolerances["fit"] = math.nan
        with pytest.raises(TypeError):
            del config.tolerances["fit"]
        assert config.tolerances == verify.DEFAULT_TOLERANCES

    def test_rejects_unparsable_stride(self):
        with pytest.raises(DomainError):
            SweepConfig(k_policy="stride:abc")

    def test_rejects_unknown_tolerance(self):
        # a misspelt name would otherwise be ignored by every check and
        # still be written into the report's meta
        with pytest.raises(DomainError, match="cutpiont"):
            SweepConfig(tolerances={"cutpiont": 1e-30})


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(
            "# comment\n"
            "n_values = 28, 64, 256\n"
            "k_policy = stride:3\n"
            "output_format = json\n"
            "tolerance.symmetry = 1e-7\n")
        cfg = load_config(str(p))
        assert cfg.n_values == (28, 64, 256)
        assert cfg.k_policy == "stride:3"
        assert cfg.output_format == "json"
        assert cfg.tolerances["symmetry"] == 1e-7
        assert cfg.tolerances["cutpoint"] == 1e-9  # default retained

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("n_value = 28\n", "parallelism = 2\n"):
            p.write_text(line)
            with pytest.raises(DomainError):
                load_config(str(p))

    @pytest.mark.parametrize("line", [
        "k_policy = stride:abc",
        "n_values = 28, x",
        "tolerance.cutpoint = abc",
        "tolerance.cutpiont = 1e-30",
        "n_values = 28, 5000",
        "n_values = 28, 28",
        "tolerance.cutpoint = nan",
        "tolerance.cutpoint = 1e400",
    ])
    def test_bad_value_names_its_line(self, line, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# sweep\n{line}\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(p))}:2: "):
            load_config(str(p))
        assert main(["sweep", "--config", str(p)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert f"error: {p}:2: " in out.err
        assert out.out == ""  # rejected before any row is swept

    @pytest.mark.parametrize("first, again", [
        ("n_values = 28", "n_values = 29"),
        ("k_policy = all", "k_policy = stride:2"),
        ("tolerance.fit = 1e-3", "tolerance.fit = 1e-4"),
    ])
    def test_repeated_key_names_both_lines(self, first, again, tmp_path,
                                           capsys):
        # the first value would otherwise be dropped without a word
        p = tmp_path / "twice.cfg"
        p.write_text(f"# sweep\n{first}\noutput_format = csv\n{again}\n")
        with pytest.raises(DomainError,
                           match=f"^{re.escape(str(p))}:4: .*line 2"):
            load_config(str(p))
        assert main(["sweep", "--config", str(p)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert f"error: {p}:4: " in out.err and "line 2" in out.err
        assert out.out == ""

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("n_values 28\n")
        with pytest.raises(DomainError):
            load_config(str(p))


class TestRunSweep:
    def test_small_sweep_checks(self, small_sweep):
        checks, constants = small_sweep
        for name in ("defining_eq", "symmetry", "tusnady_lower",
                     "tusnady_upper", "eq11_lower", "eq11_upper",
                     "thm1_residual", "thm2_residual", "eq5_window",
                     "coupling_k_minus_beta"):
            assert name in checks, name
            assert checks[name].passed.all(), name
        assert constants.c_thm1 > 0.0
        assert constants.c_coupling <= 1.0

    def test_no_expansion_checks_at_k_equals_n(self, small_sweep):
        checks, _ = small_sweep
        names = {name for name, rows in checks.items()
                 if ((rows.n == 64) & (rows.k == 64)).any()}
        assert "tusnady_upper" in names
        assert not any(name.startswith(("thm1_", "thm2_", "eq11_"))
                       for name in names)

    def test_n1_sweeps_without_dividing_by_log_1(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks, constants = run_sweep(SweepConfig(n_values=(1, 2)))
        assert all(rows.passed.all() for rows in checks.values())
        assert math.isfinite(constants.c3_eq5)

    def test_sorted_output(self, small_sweep):
        checks, _ = small_sweep
        keys = [(name, n, k) for name, rows in checks.items()
                for n, k in zip(rows.n.tolist(), rows.k.tolist())]
        assert keys == sorted(keys)
        assert all(rows.n.size for rows in checks.values())

    def test_checks_table_declares_exactly_the_checks_run(self,
                                                          monkeypatch):
        assert list(verify.CHECKS) == sorted(verify.CHECKS)
        assert set(verify.CHECKS.values()) <= {*verify.DEFAULT_TOLERANCES,
                                               None}
        checks, _ = run_sweep(SweepConfig(n_values=(28, 64), k_policy="all"))
        break_eq11_at(monkeypatch, 28, 25)
        broken, _ = run_sweep(SweepConfig(n_values=(28,), k_policy="all"))
        assert set(broken) - set(checks) == {"invariant"}
        assert set(checks) | {"invariant"} == set(verify.CHECKS)

    def test_an_undeclared_check_is_refused(self):
        with pytest.raises(KeyError):
            verify._add({}, "thm2_corner", 28, np.array([15]),
                        np.array([0.0]), verify.DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_bytes_do_not_depend_on_n_order(self, fmt, small_sweep):
        # the JSON meta lists the n as the config holds them: ascending
        shuffled = SweepConfig(n_values=(64, 28, 29), k_policy="all")
        assert shuffled.n_values == (28, 29, 64)
        assert emit_report(*run_sweep(shuffled), fmt, shuffled) == \
            emit_report(*small_sweep, fmt, SMALL)

    def test_reruns_are_byte_identical(self, small_sweep):
        checks, constants = small_sweep
        again = run_sweep(SMALL)
        assert emit_report(checks, constants, "csv", SMALL) == \
            emit_report(*again, "csv", SMALL)


class TestEmitReport:
    def test_csv_shape(self, small_sweep):
        checks, constants = small_sweep
        payload = emit_report(checks, constants, "csv", SMALL).decode()
        lines = payload.splitlines()
        assert lines[0] == "n,k,check,passed,slack"
        assert len(lines) == _n_rows(checks) + 1
        assert all(line.count(",") == 4 for line in lines[1:])

    def test_json_shape(self, small_sweep):
        checks, constants = small_sweep
        doc = json.loads(emit_report(checks, constants, "json", SMALL))
        assert doc["meta"]["config"]["n_values"] == [28, 29, 64]
        assert len(doc["records"]) == _n_rows(checks)
        assert float(doc["constants"]["c_thm1"]) == constants.c_thm1
        assert float(doc["constants"]["stability_ratio"]) >= 1.0

    def test_json_bytes_equal_json_dumps(self, small_sweep):
        # the direct emitter must give json.dumps' bytes, failed rows with
        # a nan slack included
        checks, constants = small_sweep
        failed = CheckRows(np.array([28]), np.array([25]), np.array([False]),
                           np.array([math.nan]))
        checks = dict(sorted({**checks, "invariant": failed}.items()))
        records = [(name, n, k, p, s) for name, rows in checks.items()
                   for n, k, p, s in zip(*(col.tolist() for col in rows))]
        fmt = lambda x: format(x, ".17g")  # noqa: E731
        doc = {
            "meta": {
                "config": {"n_values": [28, 29, 64], "k_policy": "all",
                           "tolerances": dict(SMALL.tolerances)},
                "versions": {"bincoupling": bincoupling.__version__,
                             "python": sys.version.split()[0]},
            },
            "records": [
                {"n": n, "k": k, "check": name, "passed": p, "slack": fmt(s)}
                for name, n, k, p, s in sorted(records,
                                               key=lambda r: r[:3])
            ],
            "constants": {
                name: fmt(getattr(constants, name))
                for name in ("c_thm1", "c_thm2", "c_thm2_tail_regime",
                             "c1_eq5", "c2_eq5", "c3_eq5", "c4_eq5",
                             "c_coupling", "stability_ratio")
            },
        }
        want = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        assert emit_report(checks, constants, "json", SMALL) == want
        assert b'"slack": "nan"' in want

    def test_empty_rejected(self, small_sweep):
        _, constants = small_sweep
        with pytest.raises(DomainError):
            emit_report({}, constants, "csv", SMALL)

    def test_unknown_format_rejected(self, small_sweep):
        checks, constants = small_sweep
        with pytest.raises(DomainError):
            emit_report(checks, constants, "yaml", SMALL)


def per_row_emit(checks, constants, fmt, config=None) -> bytes:
    """One f-string per row: the byte oracle for emit_report's run
    templates."""
    if fmt == "csv":
        lines = ["n,k,check,passed,slack"]
        for name, rows in checks.items():
            lines.extend(f"{n},{k},{name},{'true' if p else 'false'},{s:.17g}"
                         for n, k, p, s in zip(*(c.tolist() for c in rows)))
        lines.append("")
        return "\n".join(lines).encode()
    head = {
        "meta": {
            "config": {
                "n_values": list(config.n_values) if config else None,
                "k_policy": config.k_policy if config else None,
                "tolerances": dict(config.tolerances) if config else None,
            },
            "versions": {"bincoupling": bincoupling.__version__,
                         "python": sys.version.split()[0]},
        },
        "constants": {name: format(value, ".17g")
                      for name, value in dataclasses.asdict(constants).items()},
    }
    body = []
    for name, rows in checks.items():
        check = f'    {{\n      "check": {json.dumps(name)},\n'
        body.extend(f'{check}      "k": {k},\n      "n": {n},\n'
                    f'      "passed": {"true" if p else "false"},\n'
                    f'      "slack": "{s:.17g}"\n    }}'
                    for n, k, p, s in zip(*(c.tolist() for c in rows)))
    text = json.dumps(head, indent=2, sort_keys=True)
    return (text[:-2] + ',\n  "records": [\n' + ",\n".join(body)
            + "\n  ]\n}\n").encode()


def _rows(n, k, passed, slack) -> CheckRows:
    return CheckRows(np.array(n), np.array(k), np.array(passed, dtype=bool),
                     np.array(slack, dtype=float))


class TestEmitRuns:
    """The run templates against the per-row oracle, byte for byte."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_report(self, fmt, small_sweep):
        checks, constants = small_sweep
        assert emit_report(checks, constants, fmt, SMALL) == per_row_emit(
            checks, constants, fmt, SMALL)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("failed_at", [0, 3, 6], ids=["first", "middle",
                                                          "last"])
    def test_failed_row_inside_one_n(self, fmt, failed_at, small_sweep):
        # n = 28 has seven rows here, n = 29 one: a run of one row follows
        _, constants = small_sweep
        passed = [True] * 8
        passed[failed_at] = False
        slack = [0.5, -0.0, 1e-300, math.nan, -1e-9, 123456789.0, math.inf,
                 0.1]
        slack[failed_at] = -2.5e-7
        checks = {"symmetry": _rows([28] * 7 + [29], [*range(22, 29), 29],
                                    passed, slack)}
        assert emit_report(checks, constants, fmt, SMALL) == per_row_emit(
            checks, constants, fmt, SMALL)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_check_and_quoted_names(self, fmt, small_sweep):
        # a check without rows adds no bytes; a name with % and " is
        # written as it is (quoted in JSON) and never read as a format
        _, constants = small_sweep
        checks = {
            "a%d\"b%%": _rows([28, 28, 64], [15, 16, 64], [True, False, True],
                               [0.25, math.nan, 3.0]),
            "empty": _rows([], [], [], []),
            "one": _rows([29], [0], [False], [-1.0]),
        }
        got = emit_report(checks, constants, fmt, SMALL)
        assert got == per_row_emit(checks, constants, fmt, SMALL)
        without = {name: rows for name, rows in checks.items()
                   if name != "empty"}
        assert got == emit_report(without, constants, fmt, SMALL)
        if fmt == "json":
            assert json.loads(got)["records"][0]["check"] == 'a%d"b%%'
        only_empty = {"empty": checks["empty"]}
        assert emit_report(only_empty, constants, fmt) == per_row_emit(
            only_empty, constants, fmt)


def _n_rows(checks) -> int:
    return sum(rows.n.size for rows in checks.values())


class TestCouplingCheck:
    def test_max_excess_at_most_one(self):
        for n in (4, 28, 100, 512):
            max_excess, c = coupling_check(n)
            assert max_excess <= 1.0 + 1e-9
            assert c > 0.0

    def test_scaled_constant_below_one(self):
        _, c = coupling_check(1024)
        assert c < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            coupling_check(0)
        with pytest.raises(DomainError):
            coupling_check(5000)
        with pytest.raises(DomainError):
            coupling_check(N_MAX_TABLE + 1)


class TestCli:
    def test_tails(self, capsys):
        assert main(["tails", "4", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.3125" in out

    def test_tails_refuses_a_sum_beyond_the_bit_term_limit(self, monkeypatch,
                                                          capsys):
        # (n - k + 1) n = 1.1e12 bit-terms; refused before any summing
        def unreachable(n, k):
            raise AssertionError("summed before the query was checked")

        monkeypatch.setattr(cli, "tail_numerator", unreachable)
        t0 = time.perf_counter()
        assert main(["tails", "1048576", "0"]) == EXIT_BAD_CONFIG
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert str(cli.TAILS_MAX_BIT_TERMS) in out.err

    def test_tails_near_the_top_of_a_large_n_runs(self, capsys):
        assert main(["tails", "1048576", "1048570"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "n = 1048576  k = 1048570"

    def test_cutpoints_stdout(self, capsys):
        assert main(["cutpoints", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,k,epsilon,z,beta,log_tail"
        assert len(lines) == 5

    @pytest.mark.parametrize("argv, golden", [
        (["tails", "4", "3"], "tails_4_3.txt"),
        (["tails", "1000", "700"], "tails_1000_700.txt"),
        (["cutpoints", "1"], "cutpoints_1.csv"),
        (["cutpoints", "4"], "cutpoints_4.csv"),
        (["cutpoints", "29"], "cutpoints_29.csv"),
        (["sweep", "--config", str(GOLDEN / "sweep_28_29.cfg")],
         "sweep_28_29.csv"),
    ])
    def test_output_matches_golden(self, argv, golden, capsysbinary):
        # every byte, down to the last digit, as first recorded
        assert main(argv) == EXIT_OK
        assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()

    def test_sweep_dense_report_is_pinned(self, capsysbinary):
        # k_policy = all over the twelve sweep-dense n: every one of the
        # 72324 rows, down to the last digit, as first recorded
        cfg = GOLDEN / "sweep_dense.cfg"
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert out.count(b"\n") == 72325
        want = (GOLDEN / "sweep_dense.csv.sha256").read_text().split()[0]
        assert hashlib.sha256(out).hexdigest() == want

    def test_sweep_json_report_is_pinned(self, capsysbinary):
        # every byte but the Python version, as first recorded
        cfg = GOLDEN / "sweep_28_29.cfg"
        assert main(["sweep", "--config", str(cfg),
                     "--format", "json"]) == EXIT_OK
        out = re.sub(rb'"python": "[^"]*"', b'"python": "<python>"',
                     capsysbinary.readouterr().out)
        want = (GOLDEN / "sweep_28_29.json.sha256").read_text().split()[0]
        assert hashlib.sha256(out).hexdigest() == want

    def test_cutpoints_csv_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["cutpoints", "12", "--csv", str(out)]) == EXIT_OK
        assert out.read_text().startswith("n,k,")

    def test_cutpoints_csv_file_equals_stdout(self, tmp_path, capsysbinary):
        assert main(["cutpoints", "29"]) == EXIT_OK
        printed = capsysbinary.readouterr().out
        out = tmp_path / "table.csv"
        assert main(["cutpoints", "29", "--csv", str(out)]) == EXIT_OK
        assert out.read_bytes() == printed
        assert printed.count(b"\n") == 30 and b"\r" not in printed

    def test_sweep_writes_report(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("n,k,check,passed,slack")

    def test_broken_invariant_is_a_failed_record(self, tmp_path,
                                                 monkeypatch, capsys):
        # (28, 25) has x >= X_SPLIT, so the sandwich rows are lost there too
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        clean, broken = tmp_path / "clean.csv", tmp_path / "broken.csv"
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(clean)]) == EXIT_OK

        break_eq11_at(monkeypatch, 28, 25)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(broken)]) == EXIT_CHECK_FAILED

        def rows(path):
            lines = path.read_text().splitlines()[1:]
            return {tuple(line.split(",")[:4]) for line in lines}

        ok, bad = rows(clean), rows(broken)
        assert bad - ok == {("28", "25", "invariant", "false")}
        lost = {row[:3] for row in ok - bad}
        assert ("28", "25", "sandwich_upper") in lost
        assert all(row[:2] == ("28", "25") for row in lost)
        assert "FAILED invariant at (n=28, k=25)" in capsys.readouterr().err

    def test_sweep_json_stdout(self, tmp_path, capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        assert main(["sweep", "--config", str(cfg),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["meta"]["config"]["n_values"] == [28]

    def test_config_output_format_takes_effect(self, tmp_path, capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n"
                       "output_format = json\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["meta"]["config"]["n_values"] == [28]

    def test_format_flag_overrides_config(self, tmp_path, capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n"
                       "output_format = json\n")
        assert main(["sweep", "--config", str(cfg),
                     "--format", "csv"]) == EXIT_OK
        assert capsysbinary.readouterr().out.startswith(
            b"n,k,check,passed,slack")

    def test_lemma1_default_grid_passes(self, capsys):
        assert main(["lemma1", "--grid=-3:3:0.01"]) == EXIT_OK
        assert "0 failures" in capsys.readouterr().out

    def test_lemma1_evaluates_rho_once_per_abscissa(self, monkeypatch,
                                                     capsys):
        # rho at x and at x + d for the four increments; r(x) is rho(x) - x
        calls = []
        real = normal_tail.rho

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(cli, "rho", counted)
        monkeypatch.setattr(normal_tail, "rho", counted)
        assert main(["lemma1", "--grid=-3:3:0.01"]) == EXIT_OK
        assert "601 points" in capsys.readouterr().out
        assert len(calls) <= 5 * 601

    def test_lemma1_stops_at_the_envelope_edge(self, capsys):
        # left of X_MIN = -37.5 psi and rho underflow, and no longer pass
        # for failures of the inequalities
        assert main(["lemma1", "--grid=-40:190:0.0517"]) == EXIT_BAD_CONFIG
        assert "X_MIN" in capsys.readouterr().err
        assert main(["lemma1", "--grid=-37.5:190:0.0517"]) == EXIT_OK
        assert ", 0 failures," in capsys.readouterr().out

    def test_lemma1_bad_grid(self, capsys):
        assert main(["lemma1", "--grid=3:1:0.1"]) == EXIT_BAD_CONFIG
        # nan, inf or a point count that overflows is a bad grid, not a
        # traceback
        for grid in ("0:1:1e-320", "0:nan:1", "nan:1:1", "0:inf:1",
                     "0:1:nan"):
            capsys.readouterr()
            assert main(["lemma1", f"--grid={grid}"]) == EXIT_BAD_CONFIG
            out = capsys.readouterr()
            assert f"error: bad grid {grid!r}" in out.err
            assert out.out == ""

    def test_lemma1_rejects_a_grid_beyond_the_point_limit(self, monkeypatch,
                                                          capsys):
        # 1e12 points would run for days; refused before any evaluation
        def unreachable(x):
            raise AssertionError("evaluated before the grid was checked")

        monkeypatch.setattr(cli, "psi", unreachable)
        monkeypatch.setattr(cli, "rho", unreachable)
        t0 = time.perf_counter()
        assert main(["lemma1", "--grid=0:1:1e-12"]) == EXIT_BAD_CONFIG
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert str(cli.LEMMA1_MAX_POINTS) in out.err

    @pytest.mark.parametrize("grid, edge", [
        ("-40:190:0.0517", "X_MIN"),
        ("0:196:0.002", "X_MAX"),  # 195 + the increment 5 is past 200
    ])
    def test_lemma1_refuses_a_grid_past_the_envelope_up_front(
            self, grid, edge, monkeypatch, capsys):
        def unreachable(x):
            raise AssertionError("evaluated before the grid was checked")

        for module in (cli, normal_tail):
            monkeypatch.setattr(module, "psi", unreachable)
            monkeypatch.setattr(module, "rho", unreachable)
        t0 = time.perf_counter()
        assert main(["lemma1", f"--grid={grid}"]) == EXIT_BAD_CONFIG
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and edge in out.err

    def test_coupling(self, capsys):
        assert main(["coupling", "100"]) == EXIT_OK
        assert "c_coupling" in capsys.readouterr().out

    def test_coupling_exit_matches_the_sweep_row(self, capsys):
        checks, _ = run_sweep(SweepConfig(n_values=(28, 29, 1000)))
        rows = checks["coupling_k_minus_beta"]
        for n, passed in zip(rows.n.tolist(), rows.passed.tolist()):
            want = EXIT_OK if passed else EXIT_CHECK_FAILED
            assert main(["coupling", str(n)]) == want, n

    def test_coupling_pass_rule_follows_its_tolerance(self, monkeypatch,
                                                       capsys):
        # the CLI applies the cutpoint tolerance CHECKS declares for the
        # coupling row, not a literal of its own
        monkeypatch.setattr(cli, "coupling_check",
                            lambda n: (1.0 + 2e-9, 0.5))
        assert main(["coupling", "28"]) == EXIT_CHECK_FAILED
        monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "cutpoint", 1e-8)
        assert main(["coupling", "28"]) == EXIT_OK

    def test_bad_domain_is_config_error(self, capsys):
        assert main(["tails", "0", "0"]) == EXIT_BAD_CONFIG
        assert main(["cutpoints", "5000"]) == EXIT_BAD_CONFIG

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.cfg"]) == \
            EXIT_IO_ERROR

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", "/nonexistent-dir/report.csv"]) == EXIT_IO_ERROR


def scalar_checks(n: int, tol: dict[str, float]):
    """The checks of one n, k by k, through the scalar reference functions:
    {(check, k): (passed, slack)}, {k: r_k}, {k: theta_k} and
    coupling_check's (max_excess, C)."""
    table = build_table(n)
    tails = log_tail_exact_all(n)
    N = n - 1
    out, r_k, theta = {}, {}, {}
    z_all, betas = table.z.tolist(), table.betas
    for k in select_ks(n, "all"):
        z, beta, log_tail = z_all[k - 1], betas[k - 1], tails[k]
        if log_tail < 0.0:
            s = (tol["log_tail"] * max(1.0, -log_tail)
                 - abs(psi(z) + log_tail))
            out["defining_eq", k] = (s >= 0, s)
        s = tol["symmetry"] - abs(betas[n - k] + beta - n)
        out["symmetry", k] = (s >= 0, s)
        for name, s in zip(("tusnady_lower", "tusnady_upper"),
                           tusnady_bounds(n, k, beta)):
            out[name, k] = (s >= -tol["cutpoint"], s)
        if not (n >= 28 and n / 2 < k <= n - 1):
            continue
        e = epsilon_of(n, k)
        x = e * math.sqrt(N)
        try:
            r_k[k] = theorem1_breakdown(n, k, log_tail)
            lo, up = lower_bound_11(n, k)
            out["eq11_lower", k] = (log_tail - lo >= -tol["log_tail"],
                                    log_tail - lo)
            out["eq11_upper", k] = (up - log_tail >= -tol["log_tail"],
                                    up - log_tail)
            if e > 0.0:
                theta[k] = theorem2_theta(n, k, z)
            if x < verify.X_SPLIT:
                continue
            try:
                d1, d2, shift = delta_sandwich(n, k, z)
            except SmallEpsilonRegime:
                continue
            s_up = x + d1 - z
            for name, s in (("sandwich_lower", z - (x + d2)),
                            ("sandwich_upper", s_up),
                            ("sandwich_gap", 4.0 * shift / x ** 3 - s_up)):
                out[name, k] = (s >= -tol["cutpoint"], s)
        except AssertionError:
            out["invariant", k] = (False, math.nan)
    max_excess, c = -math.inf, verify._CONSTANT_FLOOR
    for k in range(n // 2 + 1, n + 1):
        beta_k = betas[k - 1]
        max_excess = max(max_excess, k - beta_k)
        scale = 1.0 + abs(k - n / 2) ** 3 / n ** 2
        c = max(c, (k - beta_k) / scale)
        if k < n:
            c = max(c, (betas[k] - k) / scale)
    return out, r_k, theta, (max_excess, c)


@pytest.mark.parametrize("n", [12, 28, 29, 64, 1000, 3001, 4096])
def test_kernels_match_scalar_reference(n):
    tol = dict(verify.DEFAULT_TOLERANCES)
    ref, r_k, theta, (max_excess, c_ref) = scalar_checks(n, tol)
    checks = {}
    fit, c = verify._sweep_one_n(n, "all", tol, checks)
    got = {}
    for name, chunks in checks.items():
        for ns, ks, passed, slack in chunks:
            assert (ns == n).all()
            for k, p, s in zip(ks.tolist(), passed.tolist(), slack.tolist()):
                got[name, k] = (p, s)
    coupling = got.pop(("coupling_k_minus_beta", 0))
    assert coupling == (max_excess <= 1.0 + tol["cutpoint"], 1.0 - max_excess)
    assert c == pytest.approx(c_ref, rel=1e-12)

    # the same checks run and are skipped, the same identities hold
    assert got.keys() == ref.keys()
    for key, (passed, slack) in ref.items():
        assert got[key][0] == passed, key
        if key[0] != "invariant":
            assert abs(got[key][1] - slack) <= 1e-9 * max(1.0, abs(slack)), key

    # the raw terms behind the fitted constants
    N = n - 1
    ks = fit["k"].tolist()
    for name, want in (("n_r_k", r_k), ("n_theta_k", theta)):
        have = {k: v / N for k, v in zip(ks, fit[name].tolist())
                if not math.isnan(v)}
        assert have.keys() == want.keys()
        for k, v in want.items():
            assert abs(have[k] - v) <= 1e-9 * max(1.0, abs(v)), (name, k)


def test_cli_sweep_and_coupling_import_neither_mpmath_nor_scipy():
    # mpmath and scipy are test-only dependencies (scipy serves only the
    # beta-integral cross-check); a fresh CLI process running the default
    # sweep, a table build and a coupling must load neither
    code = ("import sys, bincoupling.cli\n"
            "from bincoupling import build_table, couple\n"
            "bincoupling.cli.run_sweep()\n"
            "couple(build_table(64), 32.3)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('mpmath', 'scipy')))\n")
    src = str(pathlib.Path(bincoupling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.stdout.strip() == "[]"
