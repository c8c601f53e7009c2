"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

The verdict lines are printed as each test runs and collected into the
scoreboard that conftest prints after the run (in-test output is captured
by pytest, the summary section is not).  Each test also asserts, so a FAIL
line comes with a red test.
"""

import math
import time

import pytest

import conftest

from bincoupling import (
    SweepConfig,
    coupling_check,
    log_tail_exact_all,
    run_sweep,
)
from bincoupling.cli import EXIT_OK, main
from bincoupling.normal_tail import psi, rho
from conftest import log_tail_beta_integral
from reference import (
    SmallEpsilonRegime,
    delta_sandwich,
    epsilon_of,
    eq4_extreme,
    eq5_bounds,
    gamma_eps,
    lambda_n,
    lower_bound_11,
    phi,
    s_eps,
    tusnady_bounds,
    upper_tail,
)


def _verdict(num: int, ok: bool, desc: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line, flush=True)
    conftest.acceptance_verdicts.append(line)


@pytest.fixture(scope="module")
def timed_sweep():
    """Default sweep, single process and single thread, wall-clock timed."""
    t0 = time.perf_counter()
    checks, constants = run_sweep(SweepConfig())
    return checks, constants, time.perf_counter() - t0


@pytest.fixture(scope="module")
def half_sweeps():
    low = run_sweep(SweepConfig(n_values=(28, 29, 64, 100, 128, 256)))[1]
    high = run_sweep(SweepConfig(n_values=(512, 1024, 2048)))[1]
    return low, high


def test_criterion_01_anchor_values():
    ok = gamma_eps(0.0) == 1.0 / 12.0
    ok &= abs(gamma_eps(1.0) - (math.log(2.0) - 0.5)) <= 1e-12
    ref = 0.79788456080286536
    ok &= abs(rho(0.0) - ref) <= 1e-12
    ok &= abs((rho(0.0) - 0.0) - ref) <= 1e-12  # r(x) = rho(x) - x
    ok &= abs(s_eps(1.0) - 1.177) <= 5e-4
    _verdict(1, ok, "anchor values gamma(0), gamma(1), rho(0)=r(0), S(1)")
    assert ok


def test_criterion_02_hazard_increment_suite():
    # grid [-8, 8] step 1e-3, deltas {0.01, 0.1, 1, 5}, slack >= -1e-10
    code = main(["lemma1", "--grid=-8:8:0.001"])
    ok = code == EXIT_OK
    _verdict(2, ok, "rho/r monotone and increment inequalities (i)-(iii)")
    assert ok


def test_criterion_03_classical_tail_bounds():
    # checked in log space so the deep end of the grid does not underflow:
    # the three bounds become psi(x) < / > simple closed forms
    ok = True
    log_root_2pi = 0.5 * math.log(2 * math.pi)
    for i in range(1, 4001):
        x = i / 100.0
        p = psi(x)
        log_phi = -x * x / 2 - log_root_2pi
        if x > 1.0:  # below 1 the lower bound is nonpositive: trivial
            ok &= p < -(log_phi + math.log(1.0 / x - 1.0 / x ** 3))
        elif x < 1.0:
            ok &= upper_tail(x) > (1.0 / x - 1.0 / x ** 3) * phi(x)
        ok &= p > -(log_phi - math.log(x))
        ok &= p > x * x / 2 + math.log(2.0)
        if not ok:
            break
    _verdict(3, ok, "density-ratio tail bracket and exp(-x^2/2)/2 bound")
    assert ok


def test_criterion_04_stirling_bracket():
    ok = all(1.0 / (12 * n + 1) <= lambda_n(n) <= 1.0 / (12 * n)
             for n in range(1, 4097))
    _verdict(4, ok, "Stirling correction bracket for n in [1, 4096]")
    assert ok


def test_criterion_05_oracle_equivalence():
    # two independent routes to the same tail: big-integer sum vs log-domain
    # quadrature of the beta-integral form; 1e-8 relative in log, with the
    # usual floor of one nat where the log itself is at double-noise level
    ok = True
    for n in (28, 100, 512):
        batch = log_tail_exact_all(n)
        for k in range(1, n + 1):
            ref = batch[k]
            if abs(log_tail_beta_integral(n, k) - ref) > \
                    1e-8 * max(1.0, abs(ref)):
                ok = False
    _verdict(5, ok, "beta-integral quadrature matches exact tails")
    assert ok


def test_criterion_06_tusnady(default_tables):
    ok = True
    for n, table in default_tables.items():
        for k in range(math.ceil(n / 2), n + 1):
            lo, up = tusnady_bounds(n, k, table.beta[k - 1])
            ok &= lo >= -1e-9 and up >= -1e-9
        if n >= 512:
            _, up = tusnady_bounds(n, n - 1, table.beta[n - 2])
            ok &= up > 0.072 * n
    _verdict(6, ok, "classical cutpoint bracket plus extreme-k slack margin")
    assert ok


def test_criterion_07_log_tail_sandwich(default_tables):
    ok = True
    for n in default_tables:
        if n < 28:
            continue
        tails = log_tail_exact_all(n)
        for k in range(n // 2 + 1, n):
            lo, up = lower_bound_11(n, k)
            ok &= lo - 1e-9 <= tails[k] <= up + 1e-9
    _verdict(7, ok, "explicit log-tail lower/upper sandwich")
    assert ok


def test_criterion_08_cutpoint_sandwich_and_fitted_constants(
        default_tables, half_sweeps):
    # part 1: two-root sandwich and its 4 beta / x^3 gap bound
    sandwich_ok = True
    for n, table in default_tables.items():
        for k in range(n // 2 + 1, n):
            z = float(table.z[k - 1])
            x = epsilon_of(n, k) * math.sqrt(n - 1)
            try:
                d1, d2, beta = delta_sandwich(n, k, z)
            except SmallEpsilonRegime:
                continue  # beta <= 0: bracket not applicable by construction
            sandwich_ok &= x + d2 <= z + 1e-9
            sandwich_ok &= z <= x + d1 + 1e-9
            if x >= 2.0:
                sandwich_ok &= (x + d1) - z <= 4.0 * beta / x ** 3 + 1e-9

    # part 2: fitted residual constants exist, are finite, and are stable
    # (vary by less than a factor of 2 between the half-sweeps)
    low, high = half_sweeps
    c_ok = (math.isfinite(low.c_thm1) and math.isfinite(high.c_thm1)
            and max(low.c_thm1 / high.c_thm1,
                    high.c_thm1 / low.c_thm1) < 2.0)
    cp_ok = (math.isfinite(low.c_thm2) and math.isfinite(high.c_thm2)
             and max(low.c_thm2 / high.c_thm2,
                     high.c_thm2 / low.c_thm2) < 2.0)

    ok = sandwich_ok and c_ok and cp_ok
    _verdict(8, ok,
             f"cutpoint sandwich {'ok' if sandwich_ok else 'VIOLATED'}; "
             f"C halves {low.c_thm1:.4f}/{high.c_thm1:.4f} "
             f"{'stable' if c_ok else 'UNSTABLE'}; "
             f"C' halves {low.c_thm2:.4f}/{high.c_thm2:.4f} "
             f"{'stable' if cp_ok else 'UNSTABLE'} "
             f"(regime-restricted C' {low.c_thm2_tail_regime:.4f}/"
             f"{high.c_thm2_tail_regime:.4f})")
    assert sandwich_ok
    assert c_ok
    # known red: the full-range residual constant of the cutpoint formula
    # grows like sqrt(N) through the k = floor(n/2)+1 corner, so no uniform
    # constant is stable across half-sweeps; see the report's regime-
    # restricted diagnostic, which is stable
    assert cp_ok


def test_criterion_09_extreme_cutpoint_residual(default_tables):
    ns = (64, 128, 256, 512, 1024, 2048)
    ok = True
    for B in (1, 2, 3):
        resid = {n: default_tables[n].beta[n - B - 1] - eq4_extreme(n, B)
                 for n in ns}
        all_range = max(resid.values()) - min(resid.values())
        top = [resid[1024], resid[2048]]
        ok &= max(top) - min(top) <= all_range * 1.1
    _verdict(9, ok, "extreme-cutpoint residual range stable under doubling")
    assert ok


def test_criterion_10_window_quadruple(timed_sweep, default_tables):
    checks, constants, _ = timed_sweep
    quad = (constants.c1_eq5, constants.c2_eq5,
            constants.c3_eq5, constants.c4_eq5)
    ok = all(math.isfinite(c) and c > 0.0 for c in quad)
    # the fitted quadruple must actually be feasible on every swept row
    ok &= all(checks["eq5_window"].passed)
    # and independently on every (n, k) of the table, via the raw predicate
    # with the tiniest of slack inflation for the anchor rows themselves
    slack_quad = (quad[0] * (1 + 1e-9), quad[1] * (1 - 1e-9),
                  quad[2] * (1 + 1e-9), quad[3] * (1 + 1e-9))
    for n, table in default_tables.items():
        for k in range(math.ceil(n / 2), n + 1):
            ok &= eq5_bounds(n, k, table.beta[k - 1], slack_quad)
    _verdict(10, ok, "feasible window quadruple "
                     f"(C1..C4) = ({quad[0]:.4f}, {quad[1]:.4f}, "
                     f"{quad[2]:.4f}, {quad[3]:.4f})")
    assert ok


def test_criterion_11_coupling(default_tables):
    ok = True
    for n, table in default_tables.items():
        max_excess, _ = coupling_check(table)
        ok &= max_excess <= 1.0 + 1e-9

    def center_max(n):
        table = default_tables[n]
        lim = n ** 0.6
        return max(abs(table.beta[k - 1] - k + 0.5)
                   for k in range(1, n + 1) if abs(k - n / 2) <= lim)

    m256, m2048 = center_max(256), center_max(2048)
    ok &= m2048 <= 0.5 * m256 * 1.5
    _verdict(11, ok, f"k - beta_k <= 1 everywhere; center window "
                     f"{m256:.4f} -> {m2048:.4f} under 256 -> 2048")
    assert ok


def test_criterion_12_sweep_runtime(timed_sweep):
    _, _, elapsed = timed_sweep
    ok = elapsed < 300.0
    _verdict(12, ok, f"default single-process sweep in {elapsed:.3f} s")
    assert ok
