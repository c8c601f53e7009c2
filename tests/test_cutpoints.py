import copy
import csv
import functools
import math
import pickle
import sys
from bisect import bisect_left

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
from bincoupling.cutpoints import N_MAX_TABLE, CutpointTable, table_csv
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
        for z, log_tail in zip(table.z, table.log_tail):
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
        beta = np.asarray(table.beta)
        assert np.array_equal(beta + beta[::-1], np.full(n, float(n)))

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
        for z, beta in zip(table.z, table.betas):
            assert beta == pytest.approx(64 / 2 + math.sqrt(64) * z / 2,
                                         abs=1e-12)

    def test_deviate_envelope_at_ceiling(self):
        # largest supported n stays far inside the psi envelope
        table = build_table(4096)
        assert np.abs(table.z).max() < 200.0

    def test_arrays_must_hold_n_entries(self):
        # couple indexes the cells by n, so a short tuple would make it
        # read past the top sentinel
        table = build_table(5)
        names = ("z", "beta", "log_tail")
        for name in names:
            arrays = {a: getattr(table, a) for a in names}
            arrays[name] = arrays[name][:3]
            with pytest.raises(DomainError, match=name):
                CutpointTable(n=5, **arrays)
        arrays = {a: getattr(table, a) for a in names}
        assert CutpointTable(n=5, **arrays).betas == table.betas

    def test_read_only_equal_to_itself_and_picklable(self):
        table = build_table(29)
        for name in ("n", "z", "beta", "log_tail", "cells", "extra"):
            with pytest.raises(AttributeError):
                setattr(table, name, 1)
            with pytest.raises(AttributeError):
                delattr(table, name)
        names = ("n", "z", "beta", "log_tail", "cells")
        for twin in (pickle.loads(pickle.dumps(table)), copy.copy(table),
                     copy.deepcopy(table)):
            assert twin is not table and twin.__class__ is CutpointTable
            for name in names:
                assert getattr(twin, name) == getattr(table, name), name
        assert table == table and build_table(29) != build_table(29)

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

    def test_a_solve_takes_few_kernel_evaluations(self, monkeypatch):
        # over the 6,144 upper-half L of the sweep-dense n, a solve from
        # the refined seed evaluates psi and rho 2.44 times on average
        # before its closing check, which is one more evaluation (3.63
        # from the first-order seed alone)
        calls = []
        real = normal_tail._psi_rho

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(normal_tail, "_psi_rho", counted)
        solves = 0
        for n in (28, 29, 64, 100, 128, 256, 512, 1000, 1024, 2048, 3001,
                  4096):
            for t in log_tail_exact_all(n)[n // 2 + 1:]:
                normal_tail.inverse_psi(-t)
                solves += 1
        assert solves == 6144
        assert (len(calls) - solves) / solves <= 2.5

    def test_arrays_and_records_agree(self):
        table = build_table(29)
        assert len(table.z) == len(table.beta) == len(table.log_tail) == 29
        assert table.betas is table.beta
        # each CSV row holds its k's epsilon and array entries, exactly
        rows = list(csv.DictReader(table_csv(table).splitlines()))
        for k, row in zip(range(1, 30), rows):
            assert (float(row["epsilon"]), float(row["z"]), float(row["beta"]),
                    float(row["log_tail"])) == (
                (2 * (k - 1) - 28) / 28, table.z[k - 1], table.beta[k - 1],
                table.log_tail[k - 1])
            assert table.betas[k - 1] == table.beta[k - 1]
        assert table.cells is table.cells  # built once per table
        assert table.betas == table.cells[1:-1]

    @pytest.mark.parametrize("L", [
        math.log(2.0), math.nextafter(2.5, -math.inf), 2.5,
        math.nextafter(2.5, math.inf), psi(normal_tail.X_MAX)])
    def test_either_side_of_the_seed_switch(self, L):
        # the seed is Newton's first step from 0 up to L = 2.5 and the
        # refined asymptotic inverse past it; both ends of the domain too
        x = normal_tail.inverse_psi(L)
        assert abs(x - inverse_psi_newton(L)) <= 1e-10
        with mp.workdps(50):
            root = mp.findroot(lambda t: psi_mp(t) - L, mp.mpf(x))
            err = float(abs(x - root))
            unit = z_unit(float(root), L, float(rho_mp(root)))
        assert err <= Z_UNITS * unit, (L, err / unit)

    def test_rejects_roots_left_of_zero(self):
        # build_table solves the upper half only, where L >= log 2
        with pytest.raises(DomainError):
            normal_tail.inverse_psi(math.log(2.0) / 2)

    def test_one_solve_path(self):
        # inverse_psi is the package's only psi^-1: an L past psi(X_MAX)
        # is its own RangeError naming L, and a table still builds
        edge = psi(normal_tail.X_MAX)
        for L in (edge + 1.0, math.nextafter(edge, math.inf)):
            with pytest.raises(RangeError) as exc:
                normal_tail.inverse_psi(L)
            assert repr(L) in str(exc.value)
        assert len(build_table(4096).z) == 4096


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=15, deadline=None)
def test_vector_table_is_monotone_symmetric_and_matches_scalar(n):
    table = build_table(n)
    beta = np.asarray(table.beta)
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
# centre of each sweep-dense n and 2,100 drawn (n, k), 7,772 in all, gave
# at most 1.65 units, at (128, 66), where L < 2.5 and the seed is Newton's
# first step; past L = 2.5, from the refined seed, at most 1.33 (over n =
# 354 and 1217, 1.14 against 1.37 from the unrefined seed).  The bound
# allows about twice that.  At (1217, 1032) a solve that drops its last
# Newton step is 71 units (116 ulp) off.
Z_UNITS = 3.0


@given(upper_cutpoint())
@example((1217, 1032))
@example((4096, 2049))
@example((2, 2))
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
        for y in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                couple(table, y)

    @pytest.mark.parametrize("y", [31.7, np.float64(31.7), np.int64(32)])
    def test_the_coupled_value_is_a_python_int(self, y):
        assert type(couple(build_table(64), y)) is int

    @pytest.mark.parametrize("n", [1, 2, 28, 4096])
    def test_the_clamped_start_agrees_with_bisection(self, n):
        # round(y) is floor(y + 0.5), clamped to [0, n]: the draws at the
        # seams of that rounding and of both clamps
        table = build_table(n)
        betas = table.betas
        big = sys.float_info.max
        ys = [-0.5, math.nextafter(-0.5, 0.0), -0.0, 0.49999999999999994,
              *(k + 0.5 for k in range(n + 1)), n + 0.5, big, -big]
        assert [couple(table, y) for y in ys] == [bisect_left(betas, y)
                                                  for y in ys]

    # the walk from round(y) against the bisection it replaced, which
    # counts the cutpoints strictly below y

    @pytest.mark.parametrize("n", [1, 2, 3, 28, 64, 256, 1024, 4096])
    def test_walk_agrees_with_bisection_at_every_cutpoint(self, n):
        table = build_table(n)
        betas = table.betas
        for b in betas:
            for y in (math.nextafter(b, -math.inf), b,
                      math.nextafter(b, math.inf)):
                assert couple(table, y) == bisect_left(betas, y), (n, y)

    def test_walk_agrees_with_bisection_on_the_long_walks(self):
        # a y in [beta_1, 0) or (n, beta_n] starts at a clamped end of the
        # table and walks about 200 cells at n = 4096
        n = 4096
        table = build_table(n)
        betas = table.betas
        rng = np.random.default_rng(37)
        far = [*rng.uniform(betas[0], 0.0, 10_000).tolist(),
               *rng.uniform(math.nextafter(n, math.inf), betas[-1],
                            10_000).tolist(),
               0.0, -0.0, 5e-324, 1e308, -1e308]
        assert [couple(table, y) for y in far] == [bisect_left(betas, y)
                                                   for y in far]
        assert couple(table, n + 1.0) < n - 150

    def test_numpy_draws_couple_as_their_python_floats(self):
        table = build_table(64)
        for v in (-3.7, 0.4, 31.5, 32.0, 32.5, 40.25, 63.9, 70.0):
            for y in (np.float64(v), np.float32(v), np.int64(round(v))):
                assert couple(table, y) == couple(table, float(y)), y
        assert couple(table, np.float64(table.betas[40])) == 40

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
