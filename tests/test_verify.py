import json
import os
import pathlib
import subprocess
import sys

import pytest

import bincoupling
from bincoupling import (
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
from bincoupling.cutpoints import N_MAX_TABLE
from bincoupling import verify
from bincoupling.verify import select_ks


SMALL = SweepConfig(n_values=(28, 29, 64), k_policy="all")


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(SMALL)


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

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("n_values 28\n")
        with pytest.raises(DomainError):
            load_config(str(p))


class TestRunSweep:
    def test_small_sweep_checks(self, small_sweep):
        records, constants = small_sweep
        by_name = {}
        for r in records:
            by_name.setdefault(r.check_name, []).append(r)
        for name in ("defining_eq", "symmetry", "tusnady_lower",
                     "tusnady_upper", "eq11_lower", "eq11_upper",
                     "thm1_residual", "thm2_residual", "eq5_window",
                     "coupling_k_minus_beta"):
            assert name in by_name, name
            assert all(r.passed for r in by_name[name]), name
        assert constants.c_thm1 > 0.0
        assert constants.c_coupling <= 1.0

    def test_no_expansion_checks_at_k_equals_n(self, small_sweep):
        records, _ = small_sweep
        at_top = [r for r in records if r.n == 64 and r.k == 64]
        names = {r.check_name for r in at_top}
        assert "tusnady_upper" in names
        assert not any(name.startswith(("thm1_", "thm2_", "eq11_"))
                       for name in names)

    def test_sorted_output(self, small_sweep):
        records, _ = small_sweep
        keys = [(r.check_name, r.n, r.k) for r in records]
        assert keys == sorted(keys)

    def test_reruns_are_byte_identical(self, small_sweep):
        records, constants = small_sweep
        again = run_sweep(SMALL)
        assert emit_report(records, constants, "csv", SMALL) == \
            emit_report(*again, "csv", SMALL)


class TestEmitReport:
    def test_csv_shape(self, small_sweep):
        records, constants = small_sweep
        payload = emit_report(records, constants, "csv", SMALL).decode()
        lines = payload.splitlines()
        assert lines[0] == "n,k,check,passed,slack"
        assert len(lines) == len(records) + 1
        assert all(line.count(",") == 4 for line in lines[1:])

    def test_json_shape(self, small_sweep):
        records, constants = small_sweep
        doc = json.loads(emit_report(records, constants, "json", SMALL))
        assert doc["meta"]["config"]["n_values"] == [28, 29, 64]
        assert len(doc["records"]) == len(records)
        assert float(doc["constants"]["c_thm1"]) == constants.c_thm1
        assert float(doc["constants"]["stability_ratio"]) >= 1.0

    def test_empty_rejected(self, small_sweep):
        _, constants = small_sweep
        with pytest.raises(DomainError):
            emit_report([], constants, "csv", SMALL)

    def test_unknown_format_rejected(self, small_sweep):
        records, constants = small_sweep
        with pytest.raises(DomainError):
            emit_report(records, constants, "yaml", SMALL)


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

    def test_cutpoints_stdout(self, capsys):
        assert main(["cutpoints", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,k,epsilon,z,beta,log_tail"
        assert len(lines) == 5

    def test_cutpoints_csv_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["cutpoints", "12", "--csv", str(out)]) == EXIT_OK
        assert out.read_text().startswith("n,k,")

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

        real = verify.lower_bound_11

        def faulty(n, k):
            if (n, k) == (28, 25):
                raise AssertionError("injected")
            return real(n, k)

        monkeypatch.setattr(verify, "lower_bound_11", faulty)
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

        # the filtered certificates whose rows go missing keep the failure
        for sub in ("theorem1", "theorem2"):
            out = tmp_path / f"{sub}.csv"
            assert main([sub, "--config", str(cfg),
                         "--out", str(out)]) == EXIT_CHECK_FAILED
            assert ("28", "25", "invariant", "false") in rows(out)

    def test_sweep_json_stdout(self, tmp_path, capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n")
        assert main(["sweep", "--config", str(cfg),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["meta"]["config"]["n_values"] == [28]

    @pytest.mark.parametrize("sub", ["sweep", "tusnady"])
    def test_config_output_format_takes_effect(self, sub, tmp_path,
                                               capsysbinary):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28\nk_policy = all\n"
                       "output_format = json\n")
        assert main([sub, "--config", str(cfg)]) == EXIT_OK
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

    def test_theorem_subcommands(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_values = 28, 64\nk_policy = all\n")
        for sub in ("theorem1", "theorem2", "tusnady"):
            out = tmp_path / f"{sub}.csv"
            assert main([sub, "--config", str(cfg),
                         "--out", str(out)]) == EXIT_OK
            body = out.read_text()
            assert body.startswith("n,k,check,passed,slack")
            assert ",false," not in body

    def test_lemma1_default_grid_passes(self, capsys):
        assert main(["lemma1", "--grid=-3:3:0.01"]) == EXIT_OK
        assert "0 failures" in capsys.readouterr().out

    def test_lemma1_bad_grid(self, capsys):
        assert main(["lemma1", "--grid=3:1:0.1"]) == EXIT_BAD_CONFIG

    def test_coupling(self, capsys):
        assert main(["coupling", "100"]) == EXIT_OK
        assert "c_coupling" in capsys.readouterr().out

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


def test_sweep_imports_neither_mpmath_nor_quadrature():
    # mpmath is a test-only dependency and scipy.integrate serves only the
    # beta-integral cross-check; a fresh CLI process running the default
    # sweep must load neither
    code = ("import sys, bincoupling.cli\n"
            "bincoupling.cli.run_sweep()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'mpmath' or m.startswith('mpmath.')\n"
            "             or m == 'scipy.integrate'))\n")
    src = str(pathlib.Path(bincoupling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.stdout.strip() == "[]"
