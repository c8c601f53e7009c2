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
from bincoupling.binom_exact import log_tail_exact_all
from bincoupling.cutpoints import N_MAX_TABLE, build_table
from bincoupling import cli, normal_tail, verify
from bincoupling.normal_tail import psi
from bincoupling.verify import select_ks
from reference import (
    delta_sandwich,
    epsilon_of,
    lower_bound_11,
    theorem1_breakdown,
    theorem2_w,
    tusnady_bounds,
)


SMALL = SweepConfig(n_values=(28, 29, 64), k_policy="all")
GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli"
# the twelve n of the sweep-dense workload, k_policy = all
DENSE = load_config(str(GOLDEN / "sweep_dense.cfg"))


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(SMALL)


def raise_d2_at(monkeypatch, n0, k0):
    """Raise the expansion's d2 by 1 at (n0, k0), so that x + d2 lies above
    z_k there and sandwich_lower fails at that row alone."""
    real = verify.expansion_arrays

    def faulty(n, ks, *arrays):
        ex = real(n, ks, *arrays)
        return dataclasses.replace(ex, d2=ex.d2 + ((n == n0) & (ks == k0)))

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

    @pytest.mark.parametrize("policy", [
        "everything", "stride:abc", "stride:0", "stride:", "stride:-1",
        "All", "stride", "", "extremes_plus_grid"])
    def test_unknown_policy_is_a_domain_error(self, policy):
        with pytest.raises(DomainError, match="unknown k_policy"):
            select_ks(3001, policy)


class TestSweepConfig:
    def test_defaults_valid(self):
        SweepConfig()

    def test_rejects_bad_policy(self):
        with pytest.raises(DomainError):
            SweepConfig(k_policy="everything")
        with pytest.raises(DomainError):
            SweepConfig(k_policy="stride:0")

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SweepConfig(n_values=())
        with pytest.raises(DomainError):
            SweepConfig(n_values=(28, 0))

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
        assert emit_report(checks, constants, "csv", config) == emit_report(
            *want, "csv", config)
        doc = json.loads(emit_report(checks, constants, "json", config))
        assert doc["meta"]["config"]["n_values"] == [28]

    def test_meta_records_every_tolerance_in_effect(self):
        # the four fixed tolerances, written into every JSON report
        config = SweepConfig(n_values=(28,), k_policy="all")
        doc = json.loads(emit_report(*run_sweep(config), "json", config))
        assert doc["meta"]["config"]["tolerances"] == verify.TOLERANCES

    def test_rejects_unparsable_stride(self):
        with pytest.raises(DomainError):
            SweepConfig(k_policy="stride:abc")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(
            "# comment\n"
            "n_values = 28, 64, 256\n"
            "k_policy = stride:3\n")
        cfg = load_config(str(p))
        assert cfg.n_values == (28, 64, 256)
        assert cfg.k_policy == "stride:3"

    @pytest.mark.parametrize("value", ["28,29", "28 , 29", "28 29",
                                       "28, 29  # two"])
    def test_n_values_separators(self, value, tmp_path):
        # commas, spaces or both; only an empty comma-separated item is
        # refused
        p = tmp_path / "sweep.cfg"
        p.write_text(f"n_values = {value}\n")
        assert load_config(str(p)).n_values == (28, 29)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("n_value = 28\n", "parallelism = 2\n",
                     "output_format = json\n"):
            p.write_text(line)
            with pytest.raises(DomainError):
                load_config(str(p))

    @pytest.mark.parametrize("line", [
        "k_policy = stride:abc",
        "k_policy = extremes_plus_grid",
        "n_values = 28, x",
        "n_values = 28,,29,",
        "n_values = 28, , 29",
        "n_values = ,28",
        "n_values = 28,",
        "tolerance.cutpoint = abc",
        "tolerance.cutpiont = 1e-30",
        "n_values = 28, 5000",
        "n_values = 28, 28",
        "tolerance.cutpoint = nan",
        "tolerance.cutpoint = 1e400",
        "tolerance.cutpoint = 1e-9",
    ])
    def test_bad_value_names_its_line(self, line, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# sweep\n{line}\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(p))}:2: "):
            load_config(str(p))
        assert main(["sweep", "--config", str(p)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert f"error: {p}:2: " in out.err
        if line.startswith("tolerance."):  # fixed in verify.TOLERANCES
            key = line.partition(" ")[0]
            assert out.err == f"error: {p}:2: unknown key {key!r}\n"
        assert out.out == ""  # rejected before any row is swept

    @pytest.mark.parametrize("first, again", [
        ("n_values = 28", "n_values = 29"),
        ("k_policy = all", "k_policy = stride:2"),
    ])
    def test_repeated_key_names_both_lines(self, first, again, tmp_path,
                                           capsys):
        # the first value would otherwise be dropped without a word
        p = tmp_path / "twice.cfg"
        p.write_text(f"# sweep\n{first}\n# filler\n{again}\n")
        with pytest.raises(DomainError,
                           match=f"^{re.escape(str(p))}:4: .*line 2"):
            load_config(str(p))
        assert main(["sweep", "--config", str(p)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert f"error: {p}:4: " in out.err and "line 2" in out.err
        assert out.out == ""

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path,
                                                     capsys):
        # a refusal, whatever the locale, not a UnicodeDecodeError
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"n_values = 28\n\xff\xfe = 1\n")
        with pytest.raises(DomainError,
                           match=f"^{re.escape(str(p))}:2: not UTF-8$"):
            load_config(str(p))
        assert main(["sweep", "--config", str(p)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert out.err == f"error: {p}:2: not UTF-8\n"
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

    def test_x_equal_to_3_is_in_the_tail_regime(self):
        # at (2210, 1176) x = 141/47 = 3 exactly (N = 2209 = 47^2); the
        # float e sqrt(N) reads it as 2.9999999999999996, the integer rule
        # as 3, so the sandwich rows start at k = 1176 and all three pass
        N, K = 2209, 1175
        assert (2 * K - N) / N * math.sqrt(N) < verify.X_SPLIT
        checks, _ = run_sweep(SweepConfig(n_values=(2210,), k_policy="all"))
        for name in ("sandwich_gap", "sandwich_lower", "sandwich_upper"):
            rows = checks[name]
            assert rows.k[0] == 1176 and rows.passed[0], name

    def test_sorted_output(self, small_sweep):
        checks, _ = small_sweep
        keys = [(name, n, k) for name, rows in checks.items()
                for n, k in zip(rows.n.tolist(), rows.k.tolist())]
        assert keys == sorted(keys)
        assert all(rows.n.size for rows in checks.values())

    def test_checks_table_declares_exactly_the_checks_run(self):
        assert list(verify.CHECKS) == sorted(verify.CHECKS)
        assert set(verify.CHECKS.values()) <= {*verify.TOLERANCES, None}
        checks, _ = run_sweep(SweepConfig(n_values=(28, 64), k_policy="all"))
        assert set(checks) == set(verify.CHECKS)

    def test_an_undeclared_check_is_refused(self):
        with pytest.raises(KeyError):
            verify._add({}, "thm2_corner", 28, np.array([15]),
                        np.array([0.0]))

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
        checks = dict(sorted({**checks, "synthetic_nan": failed}.items()))
        records = [(name, n, k, p, s) for name, rows in checks.items()
                   for n, k, p, s in zip(*(col.tolist() for col in rows))]
        fmt = lambda x: format(x, ".17g")  # noqa: E731
        doc = {
            "meta": {
                "config": {"n_values": [28, 29, 64], "k_policy": "all",
                           "tolerances": verify.TOLERANCES},
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


def per_row_emit(checks, constants, fmt, config) -> bytes:
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
                "n_values": list(config.n_values),
                "k_policy": config.k_policy,
                "tolerances": verify.TOLERANCES,
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
        assert emit_report(only_empty, constants, fmt, SMALL) == per_row_emit(
            only_empty, constants, fmt, SMALL)


def _n_rows(checks) -> int:
    return sum(rows.n.size for rows in checks.values())


class TestCouplingCheck:
    def test_max_excess_at_most_one(self):
        for n in (4, 28, 100, 512):
            max_excess, c = coupling_check(build_table(n))
            assert max_excess <= 1.0 + 1e-9
            assert c > 0.0

    def test_scaled_constant_below_one(self):
        _, c = coupling_check(build_table(1024))
        assert c < 1.0

    def test_top_row_ratios_rise_below_their_limit(self):
        # d/t at k = n, (beta_n - n + 1/2) 8/n, is where c4_eq5 binds, and
        # the coupling constant binds at the cell above k = n - 1; with the
        # exact tail about exp(-n H(u)) both tend to g(1) = 4(sqrt(2 log 2)
        # - 1) = 0.70964 from below as n grows
        g1 = 4.0 * (math.sqrt(2.0 * math.log(2.0)) - 1.0)
        top, cpl = [], []
        for n in DENSE.n_values:
            table = build_table(n)
            top.append((table.beta[n - 1] - n + 0.5) * 8 / n)
            cpl.append(coupling_check(table)[1])
        for seq in (top, cpl):
            assert all(a < b for a, b in zip(seq, seq[1:])), seq
            assert seq[-1] < g1
        assert (top[0], top[-1]) == pytest.approx((0.51246, 0.70627),
                                                  abs=5e-6)
        assert (cpl[0], cpl[-1]) == pytest.approx((0.60322, 0.70690),
                                                  abs=5e-6)

    def test_eq5_ratio_minimum_rises_below_its_limit(self):
        # c2_eq5 is the least d/t over t >= 1, d = beta_k - k + 1/2 and
        # t = |k - n/2|^3 / n^2; per n it rises towards 1/3, the limit of
        # d/t as u = 2k/n - 1 -> 0, since the smallest u with t >= 1
        # shrinks like n^(-1/3): 0.3101 at n = 64, 0.3280 at n = 4096
        mins = []
        for n in (m for m in DENSE.n_values if m >= 64):
            table = build_table(n)
            k = np.arange(-(-n // 2), n + 1)
            d = table.beta[k - 1] - k + 0.5
            t = np.abs(k - n / 2) ** 3 / n ** 2
            mins.append(float((d[t >= 1.0] / t[t >= 1.0]).min()))
        assert len(mins) == 10
        assert all(a < b for a, b in zip(mins, mins[1:])), mins
        assert mins[-1] < 1.0 / 3.0
        assert (mins[0], mins[-1]) == pytest.approx((0.3101, 0.3280),
                                                    abs=5e-5)

    def test_top_rows_of_every_n_rise_below_their_limit(self):
        # the tail at k = n is 2^-n, so z_n solves psi(z_n) = n log 2 with
        # no table: one solve covers every n up to 28862, the largest n
        # with n log 2 <= psi(X_MAX); there the two ratios read 0.709047
        # and 0.709136, 5.9e-4 and 5.0e-4 below g(1)
        g1 = 4.0 * (math.sqrt(2.0 * math.log(2.0)) - 1.0)
        n_top = int(psi(normal_tail.X_MAX) / math.log(2.0))
        assert n_top == 28862
        n = np.arange(2, n_top + 1)
        z = normal_tail.inverse_psi_array(n * math.log(2.0))
        beta = n / 2 + np.sqrt(n) * z / 2
        top = (beta - n + 0.5) * 8 / n
        cpl = (beta - (n - 1)) / (1.0 + (n / 2 - 1) ** 3 / n ** 2)
        for seq in (top, cpl):
            assert (np.diff(seq) > 0.0).all()
            assert seq[-1] < g1
        assert (top[-1], cpl[-1]) == pytest.approx((0.709047, 0.709136),
                                                   abs=5e-7)
        # why top < g(1) at every n: psi(z) = z^2/2 + log sqrt(2 pi) +
        # log rho(z) and rho(z) > z for z > 0 (Gordon 1941) give z_n^2 <
        # A - b, A = 2n log 2 and b = 2 log(sqrt(2 pi) z_n), and sqrt(A - b)
        # <= sqrt(A) - b/(2 sqrt(A)) gives top < g(1) + last below, whose
        # last term is negative once z_n > e^sqrt(2 log 2)/sqrt(2 pi), from
        # n = 4 on.  Measured: the least gap to that bound over n <= 4096
        # is 2.15e-6, at n = 4096 (top 0.7062682), and 5.98e-8 at n_top
        last = (8.0 / n) * (0.5 - np.log(normal_tail.SQRT_2PI * z)
                            / (2.0 * math.sqrt(2.0 * math.log(2.0))))
        assert ((last < 0.0) == (n >= 4)).all()
        assert (top < g1 + last).all()
        assert (g1 + last - top)[:N_MAX_TABLE - 1].min() == pytest.approx(
            2.154e-6, rel=1e-3)
        # the same z_n as the tables' k = n entries, bit for bit
        for m in [*range(2, 257), *DENSE.n_values]:
            assert build_table(m).z[m - 1] == z[m - 2], m

    def test_coupling_row_is_the_least_tusnady_lower_slack(self):
        # 1 - max_k (k - beta_k) over k > n/2 is min_k (beta_k - (k - 1)):
        # the coupling row repeats what the tusnady_lower rows hold
        checks, _ = run_sweep(DENSE)
        cpl, low = checks["coupling_k_minus_beta"], checks["tusnady_lower"]
        assert cpl.n.tolist() == list(DENSE.n_values)
        for n, slack in zip(DENSE.n_values, cpl.slack.tolist()):
            assert slack == low.slack[(low.n == n) & (low.k > n / 2)].min()


def test_sandwich_rows_are_lemma1_iii():
    # with delta = z - x and b = psi(z) - psi(x) > 0, d1 and d2 are the
    # positive roots of delta^2/2 + x delta = b and of delta^2/2 + rho(x)
    # delta = b, so sandwich_upper is Lemma 1 (iii)'s lower bound, x delta +
    # delta^2/2 <= b, and sandwich_lower its upper bound, b <= rho(x) delta
    # + delta^2/2.  The two forms agree in sign at all 5,672 sweep-dense
    # sandwich rows.  (iii)'s upper slack is delta^2 (1 - rho')/2 +
    # O(delta^3) with rho' = rho (rho - x), which is delta^2 (1 - rho') /
    # (2 rho) in z: measured within 5.8e-5 to 9.8e-5 relative of the ten
    # closest sandwich_lower rows, (4096, 2145) to (4096, 2152) and
    # (3001, 1584), (3001, 1585)
    checks, _ = run_sweep(DENSE)
    up, lo = checks["sandwich_upper"], checks["sandwich_lower"]
    assert up.n.tolist() == lo.n.tolist() and up.k.tolist() == lo.k.tolist()
    assert up.n.size == 5672
    n, k = up.n, up.k
    z = np.concatenate([build_table(m).z[k[n == m] - 1]
                        for m in DENSE.n_values])
    x = (2 * (k - 1) - (n - 1)) / (n - 1) * np.sqrt(n - 1)
    delta = z - x
    (psi_z, _), (psi_x, rho) = map(normal_tail.psi_rho_array, (z, x))
    b = psi_z - psi_x
    assert (np.sign(up.slack) == np.sign(b - x * delta - delta ** 2 / 2)).all()
    assert (np.sign(lo.slack)
            == np.sign(rho * delta + delta ** 2 / 2 - b)).all()
    closest = np.argsort(lo.slack, kind="stable")[:10]
    assert (n[closest[0]], k[closest[0]]) == (4096, 2145)
    d, r, xs = delta[closest], rho[closest], x[closest]
    lead = d ** 2 * (1.0 - r * (r - xs)) / (2.0 * r)
    assert np.abs(lead / lo.slack[closest] - 1.0).max() < 1.2e-4


class TestCli:
    def test_tails(self, capsys):
        assert main(["tails", "4", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.3125" in out

    def test_tails_prints_the_log_tail_of_the_batch(self, capsys):
        # one rule for every log tail: a lower tail near 1 is log1p(-u), so
        # tails 100 1 prints -7.8886090522101049e-31, not -1.1e-16
        cases = [(n, k) for n in range(1, 65) for k in range(n + 1)]
        for n, k in cases + [(100, 1), (100, 2)]:
            assert main(["tails", str(n), str(k)]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            want = verify._fmt(log_tail_exact_all(n)[k])
            assert lines[2] == f"log_prob = {want}", (n, k)

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
        (["lemma1", "--grid=-3:3:0.01"], "lemma1_-3_3_0.01.txt"),
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

    @pytest.mark.parametrize("name", ["sweep_grid", "sweep_stride"])
    def test_strided_sweep_report_is_pinned(self, name, capsysbinary):
        # sweep_grid: every k at n = 1023, 2046, 3001 and 4096;
        # sweep_stride: stride:7 at n = 100 and 1001
        cfg = GOLDEN / f"{name}.cfg"
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        out = capsysbinary.readouterr().out
        want = (GOLDEN / f"{name}.csv.sha256").read_text().split()[0]
        assert hashlib.sha256(out).hexdigest() == want

    @staticmethod
    def assert_json_report_pinned(name, capsysbinary):
        # every byte but the Python version, as first recorded
        cfg = GOLDEN / f"{name}.cfg"
        assert main(["sweep", "--config", str(cfg),
                     "--format", "json"]) == EXIT_OK
        out = re.sub(rb'"python": "[^"]*"', b'"python": "<python>"',
                     capsysbinary.readouterr().out)
        want = (GOLDEN / f"{name}.json.sha256").read_text().split()[0]
        assert hashlib.sha256(out).hexdigest() == want

    def test_sweep_json_report_is_pinned(self, capsysbinary):
        self.assert_json_report_pinned("sweep_28_29", capsysbinary)

    def test_boundary_sweep_json_report_is_pinned(self, capsysbinary):
        # n = 2210, k_policy = all: the one n <= 4096 at which the float x
        # rounds an exact 3 down (k = 1176); the report holds its three
        # sandwich rows there
        self.assert_json_report_pinned("sweep_2210", capsysbinary)

    def test_cutpoints_stdout_has_lf_line_ends(self, capsysbinary):
        # a header and 29 rows, each ended by LF alone, on every platform
        assert main(["cutpoints", "29"]) == EXIT_OK
        printed = capsysbinary.readouterr().out
        assert printed.count(b"\n") == 30 and b"\r" not in printed
        assert printed.endswith(b"\n")

    def test_sweep_writes_report(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("n,k,check,passed,slack")

    def test_failed_check_is_a_failed_record(self, tmp_path, monkeypatch,
                                             capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        clean, broken = tmp_path / "clean.csv", tmp_path / "broken.csv"
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(clean)]) == EXIT_OK

        raise_d2_at(monkeypatch, 28, 25)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(broken)]) == EXIT_CHECK_FAILED

        ok = clean.read_text().splitlines()
        bad = broken.read_text().splitlines()
        assert len(bad) == len(ok)
        (diff,) = [b for a, b in zip(ok, bad) if a != b]
        assert diff.startswith("28,25,sandwich_lower,false,")
        assert "FAILED sandwich_lower at (n=28, k=25)" in \
            capsys.readouterr().err

    def test_sweep_json_stdout(self, tmp_path, capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        assert main(["sweep", "--config", str(cfg),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["meta"]["config"]["n_values"] == [28]

    def test_output_format_is_an_unknown_key(self, tmp_path, capsys):
        # --format alone picks the report format
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\noutput_format = json\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        out = capsys.readouterr()
        assert f"error: {cfg}:2: unknown key 'output_format'" in out.err
        assert out.out == ""

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

    def test_lemma1_evaluates_no_point_past_the_grid_end(self, monkeypatch,
                                                         capsys):
        # 0:1:0.6 holds x = 0 and 0.6; x = 1.2 is past b = 1
        calls = []
        real = normal_tail.psi

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(cli, "psi", counted)
        assert main(["lemma1", "--grid=0:1:0.6"]) == EXIT_OK
        assert "step 0.6: 2 points," in capsys.readouterr().out
        assert max(calls) == 0.6 + 5.0  # the last point + its largest step

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
                            lambda table: (1.0 + 2e-9, 0.5))
        assert main(["coupling", "28"]) == EXIT_CHECK_FAILED
        monkeypatch.setitem(verify.TOLERANCES, "cutpoint", 1e-8)
        assert main(["coupling", "28"]) == EXIT_OK

    def test_bad_domain_is_config_error(self, capsys):
        assert main(["tails", "0", "0"]) == EXIT_BAD_CONFIG
        assert main(["cutpoints", "5000"]) == EXIT_BAD_CONFIG
        capsys.readouterr()
        for n in (0, 5000):
            assert main(["coupling", str(n)]) == EXIT_BAD_CONFIG
            out = capsys.readouterr()
            assert out.err == f"error: n must be in [1, 4096], got {n}\n"
            assert out.out == ""

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.cfg"]) == \
            EXIT_IO_ERROR

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", "/nonexistent-dir/report.csv"]) == EXIT_IO_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert line.startswith("error: ")
        assert "/nonexistent-dir/report.csv" in line


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
        r_k[k] = theorem1_breakdown(n, k, log_tail)
        lo, up = lower_bound_11(n, k)
        out["eq11_lower", k] = (log_tail - lo >= -tol["log_tail"],
                                log_tail - lo)
        out["eq11_upper", k] = (up - log_tail >= -tol["log_tail"],
                                up - log_tail)
        if e > 0.0:
            theta[k] = z - theorem2_w(n, k)
        # x >= X_SPLIT in integers, as the sweep decides it: the float
        # x rounds an exact 3 down at (2210, 1176)
        if (2 * k - n - 1) ** 2 < verify.X_SPLIT ** 2 * N:
            continue
        d1, d2, shift = delta_sandwich(n, k, z)
        s_up = x + d1 - z
        for name, s in (("sandwich_lower", z - (x + d2)),
                        ("sandwich_upper", s_up),
                        ("sandwich_gap", 4.0 * shift / x ** 3 - s_up)):
            out[name, k] = (s >= -tol["cutpoint"], s)
    max_excess, c = -math.inf, verify._CONSTANT_FLOOR
    for k in range(n // 2 + 1, n + 1):
        beta_k = betas[k - 1]
        max_excess = max(max_excess, k - beta_k)
        scale = 1.0 + abs(k - n / 2) ** 3 / n ** 2
        c = max(c, (k - beta_k) / scale)
        if k < n:
            c = max(c, (betas[k] - k) / scale)
    return out, r_k, theta, (max_excess, c)


@pytest.mark.parametrize("n", [12, 28, 29, 64, 1000, 2210, 3001, 4096])
def test_kernels_match_scalar_reference(n):
    tol = verify.TOLERANCES
    ref, r_k, theta, (max_excess, c_ref) = scalar_checks(n, tol)
    checks = {}
    fit, c = verify._sweep_one_n(n, "all", checks)
    got = {}
    for name, chunks in checks.items():
        for ns, ks, passed, slack in chunks:
            assert (ns == n).all()
            for k, p, s in zip(ks.tolist(), passed.tolist(), slack.tolist()):
                got[name, k] = (p, s)
    coupling = got.pop(("coupling_k_minus_beta", 0))
    assert coupling == (max_excess <= 1.0 + tol["cutpoint"], 1.0 - max_excess)
    assert c == pytest.approx(c_ref, rel=1e-12)

    # the same checks run and are skipped
    assert got.keys() == ref.keys()
    for key, (passed, slack) in ref.items():
        assert got[key][0] == passed, key
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
