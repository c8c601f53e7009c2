import csv
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bincoupling import (
    DomainError,
    RangeError,
    build_table,
    couple,
    log_tail_exact_all,
)
from bincoupling import normal_tail
from bincoupling.cli import main
from bincoupling.cutpoints import N_MAX_TABLE, table_csv
from bincoupling.normal_tail import psi
from conftest import log_tail_mp, psi_mp, rho_mp, z_unit
from reference import (
    epsilon_of,
    inverse_psi_newton,
    log_tail_exact,
    upper_tail,
)

# oracle: the root of psi(z) = -log(5/16), recomputed by 50-digit root
# finding on the quadrature tail
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
            assert psi(z) == pytest.approx(-log_tail, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 28, 29, 1000])
    def test_log_tail_matches_reference(self, n):
        # the sweep reads its exact tails from the table alone, so the
        # one-pass tails must equal the per-k reference bit for bit
        table = build_table(n)
        for k in range(1, n + 1):
            assert table.log_tail[k - 1] == log_tail_exact(n, k)

    @pytest.mark.parametrize(
        "n", [*range(1, 65), 100, *range(128, N_MAX_TABLE + 1, 64)])
    def test_symmetry(self, n):
        # beta_k + beta_{n-k+1} == n exactly: the sweep's symmetry rows
        # cannot fail
        table = build_table(n)
        assert np.array_equal(table.beta + table.beta[::-1],
                              np.full(n, float(n)))

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
        # past N_MAX_TABLE is outside the validated envelope; below 1 there
        # is no Binomial to couple, a DomainError as in log_tail_exact_all
        with pytest.raises(RangeError):
            build_table(4097)
        for n in (0, -1):
            with pytest.raises(DomainError, match=r"must be in \[1, 4096\]"):
                build_table(n)


def scalar_table(n: int) -> list[tuple[float, float]]:
    """(z_k, beta_k) for k = 1..n by the scalar reference: the scalar Newton
    per upper-half k, the lower half mirrored."""
    tails = log_tail_exact_all(n)
    upper = {}
    for k in range(n // 2 + 1, n + 1):
        z = inverse_psi_newton(-tails[k])
        upper[k] = (z, n / 2 + math.sqrt(n) * z / 2)
    return [upper[k] if k in upper else
            (-upper[n - k + 1][0], n - upper[n - k + 1][1])
            for k in range(1, n + 1)]


class TestVectorSolve:
    @pytest.mark.parametrize("n", [28, 29, 64, 1000, 3001, 4096])
    def test_matches_scalar_inverse_psi(self, n):
        table = build_table(n)
        for k in range(n // 2 + 1, n + 1):
            ref = inverse_psi_newton(-table.log_tail[k - 1])
            assert abs(table.z[k - 1] - ref) <= 1e-10

    def test_converged_entries_are_not_evaluated_again(self, monkeypatch):
        # each Newton pass evaluates psi and rho on the entries still
        # iterating only; the last call is the closing contract check over
        # every entry
        sizes = []
        real = normal_tail.psi_rho_array

        def counted(x):
            sizes.append(x.size)
            return real(x)

        monkeypatch.setattr(normal_tail, "psi_rho_array", counted)
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

    def test_one_solve_path(self):
        # the vector solve is the package's only psi^-1: an L past
        # psi(X_MAX) is its own RangeError, and a table still builds
        edge = psi(normal_tail.X_MAX)
        for L in (edge + 1.0, math.nextafter(edge, math.inf)):
            with pytest.raises(RangeError) as exc:
                normal_tail.inverse_psi_array(
                    np.array([2.0, edge, L, L + 1.0]))
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


@st.composite
def upper_cutpoint(draw):
    n = draw(st.integers(min_value=1, max_value=4096))
    return n, draw(st.integers(min_value=n // 2 + 1, max_value=n))


@given(upper_cutpoint())
@settings(max_examples=40, deadline=None)
def test_cutpoint_solves_the_exact_tail_to_50_digits(nk):
    # the solve's contract against references that share none of its code:
    # psi at the stored z_k and the exact big-integer tail, both in 50
    # digits; 5e-15 L allows for L's own rounding to a float
    n, k = nk
    z = build_table(n).z[k - 1]
    with mp.workdps(50):
        L = -log_tail_mp(n, k)
        residual = float(abs(psi_mp(mp.mpf(float(z))) - L))
    L = float(L)
    assert residual <= 1e-10 * max(1.0, L) + 5e-15 * L, (n, k, residual)


# Each stored z_k against z*, the 50-digit root of psi(t) = -log tail with
# the tail from its exact big-integer numerator, in the units of z_unit.
# Every upper k of n = 354, 1217, 2114, 2810 and 4096, the 40 k above the
# centre of 12 more n and 2,100 drawn (n, k) gave at most 1.45 units, at
# (2114, 1407); the bound allows about twice that.  At (1217, 1032) a
# solve that drops its last Newton step is 2,200 units (3,619 ulp) off.
Z_UNITS = 3.0


@given(upper_cutpoint())
@example((1217, 1032))
@settings(max_examples=40, deadline=None)
def test_cutpoint_is_within_a_few_units_of_the_50_digit_root(nk):
    n, k = nk
    z = float(build_table(n).z[k - 1])
    with mp.workdps(50):
        lt = log_tail_mp(n, k)
        root = mp.findroot(lambda t: psi_mp(t) + lt, mp.mpf(z))
        err = float(abs(z - root))
        unit = z_unit(float(root), float(-lt), float(rho_mp(root)))
    assert err <= Z_UNITS * unit, (n, k, err / unit)


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
            assert upper_tail(table.z[k - 1]) == pytest.approx(
                exact, rel=1e-9, abs=0.0)


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



class TestTusnadyInequality:
    """|X - Y| <= 1 + Z^2/8 for X = couple(table, Y), Y = n/2 + sqrt(n) Z/2,
    certified over every y (Tusnady 1977; Bretagnolle & Massart, Ann.
    Probab. 1989).

    On the cell (beta_k, beta_{k+1}] X = k.  For a <= 1/8 the excess
    |k - y| - 1 - a Z^2 is concave on each side of y = k and grows toward
    the cell's ends while y stays in [n/2 - n/(8a), n/2 + n/(8a)], which
    holds [-n/2, 3n/2] and so, by the cutpoint bracket, every beta_k.  So a
    bounded cell is worst at its ends, and each finite beta_j is taken from
    both of its cells, X = j - 1 and X = j.  On the unbounded cell X = 0,
    |X - Y| <= 1 for 0 <= y <= beta_1 (beta_1 <= 1); for y <= 0 the excess
    at a = 1/8 peaks at y = -n/2 with slack 1, and |X - Y| - 1 <= a Z^2
    needs a >= n/(8(n + 2)), its value at y = -n/2 - 2.  The cell X = n is
    the mirror image about n/2.
    """

    @staticmethod
    def excess(n, x, y):
        """|X - Y| - 1 and Z^2 at X = x, Y = y."""
        return np.abs(x - y) - 1.0, 4.0 * (y - n / 2) ** 2 / n

    @staticmethod
    def sharpest_a(excess, z_sq):
        """The smallest a with excess <= a Z^2 at every point given."""
        return np.divide(excess, z_sq, out=np.zeros_like(excess),
                         where=excess > 0.0).max()

    def worst(self, table):
        """(the worst slack over every y, the smallest a that the finite
        cutpoints need, the smallest a that every y needs)"""
        n = table.n
        j = np.arange(1, n + 1)
        assert [couple(table, b) for b in table.betas] == list(j - 1)
        assert [couple(table, math.nextafter(b, math.inf))
                for b in table.betas] == list(j)
        excess, z_sq = self.excess(n, np.concatenate([j - 1, j]),
                                   np.concatenate([table.beta, table.beta]))
        a_ends = self.sharpest_a(excess, z_sq)
        return (min((z_sq / 8 - excess).min(), 1.0), a_ends,
                max(a_ends, n / (8 * (n + 2))))

    @pytest.mark.parametrize("n", [1, 2, 3, 28, 64, 256, 1024, 4096])
    def test_holds_over_every_y(self, n):
        table = build_table(n)
        # the premise: every cutpoint lies in [-n/2, 3n/2]
        assert -n / 2 <= table.beta[0] and table.beta[-1] <= 1.5 * n
        slack, a_ends, a = self.worst(table)
        assert slack >= 0.5 - 1e-12
        # the bounded cells need about half of 1/8; the unbounded cells set
        # a, which tends to 1/8
        assert a_ends < 0.065
        assert a == n / (8 * (n + 2)) < 1 / 8

    @pytest.mark.parametrize("n", [1, 2, 3, 28, 64])
    def test_a_dense_grid_finds_nothing_worse(self, n):
        table = build_table(n)
        slack, _, a = self.worst(table)
        y = np.linspace(-n / 2 - 4, 1.5 * n + 4, 200001)
        x = np.array([couple(table, v) for v in y.tolist()])
        excess, z_sq = self.excess(n, x, y)
        assert (z_sq / 8 - excess).min() >= slack - 1e-12
        assert a - 1e-9 <= self.sharpest_a(excess, z_sq) <= a + 1e-12

class TestExportCsv:
    def test_round_trip(self, capsys):
        table = build_table(12)
        assert main(["cutpoints", "12"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 12
        for k, row in zip(range(1, 13), rows):
            assert int(row["n"]) == 12
            assert int(row["k"]) == k
            # 17 significant digits round-trip doubles exactly
            assert float(row["beta"]) == table.beta[k - 1]
            assert float(row["z"]) == table.z[k - 1]
            assert float(row["log_tail"]) == table.log_tail[k - 1]
