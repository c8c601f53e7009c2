import csv
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincoupling import (
    DomainError,
    RangeError,
    build_table,
    couple,
    epsilon_of,
    export_csv,
    inverse_psi,
    log_tail_exact,
    log_tail_exact_all,
    psi,
    upper_tail,
)
from bincoupling import normal_tail
from bincoupling.cutpoints import table_csv

# oracle: inverse_psi(-log(5/16)) recomputed by 50-digit root finding on the
# quadrature tail
Z3_N4 = 0.48877641111466950


class TestEpsilonOf:
    def test_smallest_even_case(self):
        assert epsilon_of(28, 15) == pytest.approx(1 / 27, rel=1e-15)

    def test_smallest_odd_case(self):
        assert epsilon_of(29, 16) == pytest.approx(1 / 14, rel=1e-15)

    def test_upper_end(self):
        eps = epsilon_of(28, 27)
        assert eps == pytest.approx(25 / 27, rel=1e-15)
        assert eps <= 1 - 2 / 27 + 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_of(28, 14)  # k <= n/2: use symmetry first
        with pytest.raises(DomainError):
            epsilon_of(1, 1)


class TestBuildTable:
    def test_n1_median(self):
        table = build_table(1)
        assert table.beta[0] == pytest.approx(0.5, abs=1e-12)
        assert table.z[0] == pytest.approx(0.0, abs=1e-12)

    def test_n4_k3_oracle(self):
        table = build_table(4)
        assert math.exp(table.log_tail[2]) == pytest.approx(5 / 16, rel=1e-14)
        assert table.z[2] == pytest.approx(Z3_N4, abs=1e-9)
        assert table.beta[2] == pytest.approx(2.0 + Z3_N4, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 28, 29, 100, 257])
    def test_defining_equation(self, n):
        table = build_table(n)
        for z, log_tail in zip(table.z.tolist(), table.log_tail.tolist()):
            assert psi(z) == pytest.approx(-log_tail, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 28, 29, 1000])
    def test_log_tail_matches_reference(self, n):
        # the sweep reads its exact tails from the table alone, so the
        # one-pass tails must equal the per-k reference bit for bit
        table = build_table(n)
        for k in range(1, n + 1):
            assert table.log_tail[k - 1] == log_tail_exact(n, k)

    @pytest.mark.parametrize("n", [2, 28, 29, 100])
    def test_symmetry(self, n):
        table = build_table(n)
        for k in range(1, n + 1):
            total = table.beta[k - 1] + table.beta[n - k]
            assert total == pytest.approx(n, abs=1e-8)

    def test_even_center_cell(self):
        n = 28
        table = build_table(n)
        m = n // 2
        assert table.z[m] > 0.0
        assert table.beta[m - 1] + table.beta[m] == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("n", [29, 1001, 3001, 4095])
    def test_odd_center_is_exact(self, n):
        # the center tail is exactly 1/2, so its cutpoint is exactly n/2
        table = build_table(n)
        i = (n + 1) // 2 - 1
        assert table.log_tail[i] == -math.log(2.0)
        assert table.z[i] == 0.0
        assert table.beta[i] == n / 2

    @pytest.mark.parametrize("n", [28, 255, 1024])
    def test_strictly_increasing(self, n):
        table = build_table(n)
        assert (np.diff(table.beta) > 0.0).all()
        assert (np.diff(table.z) > 0.0).all()

    def test_beta_construction_identity(self):
        # upper half is constructed from z directly; the lower half is
        # mirrored, so allow one rounding step there
        table = build_table(64)
        for z, beta in zip(table.z.tolist(), table.betas):
            assert beta == pytest.approx(64 / 2 + math.sqrt(64) * z / 2,
                                         abs=1e-12)

    def test_deviate_envelope_at_ceiling(self):
        # largest supported n stays far inside the psi envelope
        table = build_table(4096)
        assert np.abs(table.z).max() < 200.0

    def test_range(self):
        with pytest.raises(RangeError):
            build_table(4097)
        with pytest.raises(RangeError):
            build_table(0)


def scalar_table(n: int) -> list[tuple[float, float]]:
    """(z_k, beta_k) for k = 1..n by the scalar reference: inverse_psi per
    upper-half k, the lower half mirrored."""
    tails = log_tail_exact_all(n)
    upper = {}
    for k in range(n // 2 + 1, n + 1):
        z = inverse_psi(-tails[k])
        upper[k] = (z, n / 2 + math.sqrt(n) * z / 2)
    return [upper[k] if k in upper else
            (-upper[n - k + 1][0], n - upper[n - k + 1][1])
            for k in range(1, n + 1)]


class TestVectorSolve:
    @pytest.mark.parametrize("n", [28, 29, 64, 1000, 3001, 4096])
    def test_matches_scalar_inverse_psi(self, n):
        table = build_table(n)
        for k in range(n // 2 + 1, n + 1):
            ref = inverse_psi(-table.log_tail[k - 1])
            assert abs(table.z[k - 1] - ref) <= 1e-10

    def test_converged_entries_are_not_evaluated_again(self, monkeypatch):
        # each Newton pass evaluates psi on the entries still iterating only;
        # the last call is the closing contract check over every entry
        sizes = []
        real = normal_tail.psi_array

        def counted(x):
            sizes.append(x.size)
            return real(x)

        monkeypatch.setattr(normal_tail, "psi_array", counted)
        build_table(4096)
        passes = sizes[:-1]
        assert sizes[-1] == 2048
        assert passes == sorted(passes, reverse=True)
        assert passes[-1] < 10
        assert sum(sizes) <= 5 * 2048

    def test_arrays_and_records_agree(self):
        table = build_table(29)
        assert len(table.z) == len(table.beta) == len(table.log_tail) == 29
        # each CSV row holds its k's epsilon and array entries, exactly
        rows = list(csv.DictReader(table_csv(table).splitlines()))
        for k, row in zip(range(1, 30), rows):
            assert (float(row["epsilon"]), float(row["z"]), float(row["beta"]),
                    float(row["log_tail"])) == (
                (2 * (k - 1) - 28) / 28, table.z[k - 1], table.beta[k - 1],
                table.log_tail[k - 1])
            assert table.betas[k - 1] == table.beta[k - 1]
        assert table.betas is table.betas  # cached once per table

    def test_rejects_roots_left_of_zero(self):
        # build_table solves the upper half only, where L >= log 2
        with pytest.raises(DomainError):
            normal_tail.inverse_psi_array(np.array([1.0, math.log(2.0) / 2]))

    def test_one_solve_path(self, monkeypatch):
        # the vector solve never hands an entry to the scalar solver: an L
        # past psi(X_MAX) is its own RangeError, and a table still builds
        def no_scalar(L):
            raise AssertionError("scalar inverse_psi called")

        monkeypatch.setattr(normal_tail, "inverse_psi", no_scalar)
        L = psi(normal_tail.X_MAX) + 1.0
        with pytest.raises(RangeError) as exc:
            normal_tail.inverse_psi_array(np.array([2.0, L, L + 1.0]))
        assert repr(L) in str(exc.value)  # the first L that misses
        assert len(build_table(4096).z) == 4096


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=15, deadline=None)
def test_vector_table_is_monotone_symmetric_and_matches_scalar(n):
    table = build_table(n)
    beta = table.beta
    assert (beta[1:] > beta[:-1]).all()
    assert abs(beta[::-1] + beta - n).max() <= 1e-8
    ref = scalar_table(n)
    for k in range(1, n + 1):
        z_ref, beta_ref = ref[k - 1]
        assert abs(table.z[k - 1] - z_ref) <= 1e-10
        assert abs(beta[k - 1] - beta_ref) <= 1e-10 * math.sqrt(n)


class TestCouple:
    def test_center_even(self):
        n = 28
        table = build_table(n)
        assert couple(table, n / 2) == n // 2

    def test_boundary_goes_down(self):
        table = build_table(28)
        for k in (1, 10, 20, 28):
            assert couple(table, table.betas[k - 1]) == k - 1

    def test_top_cell(self):
        table = build_table(28)
        assert couple(table, 28 + 100.0) == 28

    def test_bottom_cell(self):
        table = build_table(28)
        assert couple(table, -100.0) == 0

    def test_nonfinite(self):
        table = build_table(4)
        with pytest.raises(DomainError):
            couple(table, math.inf)

    def test_induced_distribution_is_exact(self):
        # P{couple(Y) >= k} = P{Y > beta_k} = tail(z_k) must equal the exact
        # Binomial tail; this is the defining property of the coupling
        n = 40
        table = build_table(n)
        for k in range(1, n + 1):
            exact = math.exp(log_tail_exact(n, k))
            assert upper_tail(table.z[k - 1]) == pytest.approx(exact, rel=1e-9)


_cached_table = functools.cache(build_table)


@given(st.integers(min_value=1, max_value=300), st.data())
@settings(max_examples=300)
def test_couple_returns_enclosing_cell(n, data):
    table = _cached_table(n)
    betas = table.betas
    # Tusnady's bracket and symmetry put every cutpoint in [-n/2, 3n/2]; a
    # draw equal to one is a tie, which belongs to the cell below it
    y = data.draw(st.one_of(st.floats(min_value=-n - 1.0,
                                      max_value=2.0 * n + 1.0),
                            st.sampled_from(betas)))
    k = couple(table, y)
    assert k == sum(b < y for b in betas)
    if k >= 1:
        assert betas[k - 1] < y
    if k < n:
        assert y <= betas[k]


class TestExportCsv:
    def test_round_trip(self, tmp_path):
        table = build_table(12)
        path = tmp_path / "table.csv"
        export_csv(table, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for k, row in zip(range(1, 13), rows):
            assert int(row["n"]) == 12
            assert int(row["k"]) == k
            # 17 significant digits round-trip doubles exactly
            assert float(row["beta"]) == table.beta[k - 1]
            assert float(row["z"]) == table.z[k - 1]
            assert float(row["log_tail"]) == table.log_tail[k - 1]
