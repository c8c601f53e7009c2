"""50-digit audit of the certificate's closest calls.

The three smallest-slack records of each of the two-root sandwich and the
eq. (11) log-tail sandwich, from an n = 4096 sweep over every k, are
recomputed in 50-digit arithmetic: the exact big-integer tail, z_k from
findroot on psi, and every term of the slack.  The float slack must have
the same sign and lie within 1e-11 of the 50-digit one, a hundredth of the
checks' 1e-9 tolerance, so no check passes only by its tolerance.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bincoupling import SweepConfig, build_table, run_sweep
from bincoupling.approx import expansion_terms
from bincoupling.binom_exact import log_tail_exact_all
from bincoupling.normal_tail import psi, rho
from bincoupling.verify import X_SPLIT, _sweep_one_n
from conftest import (
    gamma_mp,
    lambda_mp,
    log_tail_mp,
    psi_mp,
    rho_mp,
    z_unit,
)

N_AUDIT = 4096
CHECKS = ("sandwich_lower", "sandwich_upper", "eq11_lower", "eq11_upper")
PER_CHECK = 3
BOUND = 1e-11
DPS = 50


def slack_mp(check: str, n: int, k: int, z_float: float):
    with mp.workdps(DPS):
        return _slack_mp(check, n, k, z_float)


def _slack_mp(check: str, n: int, k: int, z_float: float):
    N, K = n - 1, k - 1
    e = mp.mpf(2 * K - N) / N
    x = e * mp.sqrt(N)
    lt = log_tail_mp(n, k)
    if check.startswith("eq11"):
        delta = (mp.log(1 + mp.mpf(1) / N)
                 + lambda_mp(N) - lambda_mp(K) - lambda_mp(N - K)
                 - mp.log(1 - e * e) / 2 - N * e ** 4 * gamma_mp(e))
        ell = mp.log(N) / N
        eta = 2 * ell / (e + mp.sqrt(e * e + 2 * ell))
        h3 = (1 - e) / (1 + eta) ** 3 - (1 + e) / (1 - eta) ** 3
        kappa_sq = 1 - eta * h3 / 3
        if check == "eq11_upper":
            return delta - psi_mp(x) - lt
        lower = (delta - mp.log(kappa_sq) / 2 - psi_mp(x)
                 + mp.log(1 - mp.exp(-N * e * eta
                                     - N * kappa_sq * eta * eta / 2)))
        return lt - lower
    z = mp.findroot(lambda t: psi_mp(t) + lt, mp.mpf(z_float))
    beta = psi_mp(z) - psi_mp(x)
    if check == "sandwich_upper":
        d1 = 2 * beta / (mp.sqrt(x * x + 2 * beta) + x)
        return x + d1 - z
    rx = rho_mp(x)
    d2 = 2 * beta / (mp.sqrt(rx * rx + 2 * beta) + rx)
    return z - (x + d2)


@pytest.fixture(scope="module")
def audited():
    checks, _ = run_sweep(SweepConfig(n_values=(N_AUDIT,), k_policy="all"))
    table = build_table(N_AUDIT)
    rows = []
    for check in CHECKS:
        c = checks[check]
        tight = np.argsort(c.slack, kind="stable")[:PER_CHECK]
        assert len(tight) == PER_CHECK
        for n, k, passed, slack in (
                [col[i] for col in c] for i in tight.tolist()):
            rows.append(((check, n, k, passed, slack),
                         slack_mp(check, n, k, table.z[k - 1])))
    return rows


def test_tightest_records_agree_with_50_digits(audited):
    for (check, n, k, passed, slack), ref in audited:
        where = (check, n, k, slack, float(ref))
        assert passed and ref > 0, where
        assert abs(slack - ref) <= BOUND, where


def test_closest_call_is_the_known_sandwich_record(audited):
    r, ref = min(audited, key=lambda pair: pair[0][4])
    assert r[:3] == ("sandwich_lower", 4096, 2145)
    assert ref == pytest.approx(1.7618e-10, rel=1e-4, abs=0.0)


# Theorem 1's N r_k as the sweep hands it to the constant fits, against N r_k
# in 50 digits from the exact tail, psi, gamma and lambda_{n-k}.  The float
# error is a multiple of N 2^-52 max(1, psi(x)).  Every k of every n in
# 28..300, of every 4th n from 301 and of every 16th from 304 (1,460 n)
# gave at most 5.50, at (1085, 1070); the bound allows 1.6 times that.
# gamma's closed form taken at e = 0.068 leaves 22.4 at (2810, 1501).  This
# unit cannot tell a lambda error of a few ulp from the rounding of psi:
# lambda_10 from lgamma, 3.4e-15 off, leaves 7.01 at (28, 18), inside the
# bound.  lambda_j is held instead by its own oracle,
# tests/test_binom_exact.py::TestLambdaN::test_against_50_digit_reference,
# which bounds each route by its remainder and fails that lambda_10.
RK_ULPS = 9


@st.composite
def expansion_point(draw):
    n = draw(st.integers(min_value=28, max_value=4096))
    return n, draw(st.integers(min_value=n // 2 + 1, max_value=n - 1))


@given(expansion_point())
@example((28, 18))
@example((2810, 1501))
@example((4096, 4095))
@settings(max_examples=40, deadline=None)
def test_theorem1_remainder_agrees_with_50_digits(nk):
    n, k = nk
    fits = {}
    _sweep_one_n(n, "all", {}, fits)
    n_r_k = {row[1]: row[2] for row in fits["c_thm1"]}
    N, K = n - 1, k - 1
    with mp.workdps(DPS):
        e = mp.mpf(2 * K - N) / N
        psi_x = psi_mp(e * mp.sqrt(N))
        # the closed form of gamma is 0/0 at e = 0, where its term is 0
        gamma_term = N * e ** 4 * gamma_mp(e) if e else 0
        want = N * (log_tail_mp(n, k) + psi_x + gamma_term
                    + mp.log(1 - e * e) / 2 + lambda_mp(N - K))
    bound = RK_ULPS * N * 2.0 ** -52 * max(1.0, float(psi_x))
    assert abs(n_r_k[k] - float(want)) <= bound, (n, k)


# The two-root sandwich's d1 and d2 as the sweep computes them, from the
# table's z_k, against d1 and d2 in 50 digits from the exact tail and psi,
# where the sweep applies the bracket (x >= X_SPLIT = 3 decided in
# integers, beta_shift > 0).
# beta_shift = psi(z_k) - psi(x) cancels two terms of size L = -log tail,
# so its float error is a few ulp of L, and d ~ beta_shift / x carries it
# over x: the unit is 2^-52 L / x.  Every k with x >= 3 among 2,300
# drawn (n, k) and the first 24 k above the centre of 11 chosen n gave at
# most 3.75 units, at (103, 83); the bound allows about twice that.  At
# (4095, 2168) a solve that drops its last Newton step is 4,400 units off.
D_ULPS = 8.0


@st.composite
def sandwich_point(draw):
    n = draw(st.integers(min_value=28, max_value=4096))
    N = n - 1
    # the smallest K with (2K - N)^2 >= 9N, i.e. x >= 3, the sweep's rule
    m = math.isqrt(X_SPLIT ** 2 * N - 1) + 1
    return n, draw(st.integers(min_value=(N + m + 1) // 2 + 1,
                               max_value=n - 1))


@given(sandwich_point())
@example((4095, 2168))
@settings(max_examples=40, deadline=None)
def test_sandwich_pieces_agree_with_50_digits(nk):
    n, k = nk
    ks = range(n // 2 + 1, n)
    z = build_table(n).z[ks[0] - 1:n - 1]
    ex = expansion_terms(n, ks, log_tail_exact_all(n)[ks[0]:n], z,
                         [psi(v) for v in z])
    i = k - ks[0]
    assume(ex.beta_shift[i] > 0.0)
    N, K = n - 1, k - 1
    with mp.workdps(DPS):
        x = mp.mpf(2 * K - N) / N * mp.sqrt(N)
        L = -log_tail_mp(n, k)
        beta = L - psi_mp(x)
        rx = rho_mp(x)
        d1 = 2 * beta / (mp.sqrt(x * x + 2 * beta) + x)
        d2 = 2 * beta / (mp.sqrt(rx * rx + 2 * beta) + rx)
    bound = D_ULPS * 2.0 ** -52 * float(L) / ex.x[i]
    for got, want in ((ex.d1[i], d1), (ex.d2[i], d2)):
        assert abs(got - float(want)) <= bound, (n, k)


# Theorem 2's N theta_k = N (z_k - w_k) as the sweep hands it to the
# constant fits, against 50 digits: z_k by findroot on psi at the exact
# tail, w_k from gamma and lambda_{n-k}.  The float error is stated as the
# error in z that a residual of THETA_RESIDUAL max(1, L) in psi(z) would
# leave, N THETA_RESIDUAL max(1, L) / rho(z).  z_k itself is within a few
# ulp; what is left is lambda_{n-k}'s error over x near the centre.  Every
# k with e > 0 of the 1,460 n of RK_ULPS gave at most 1.47e-15 of that, at
# (3773, 2888); the bound allows 1.36 times that.  lambda_10 from lgamma
# leaves 2.08e-15 at (28, 18), gamma's closed form taken at e = 0.068
# 5.3e-15 at (2810, 1501), and a solve that drops its last Newton step
# 0.999 of a 1e-12 residual, at (1217, 1032).
THETA_RESIDUAL = 2e-15


@st.composite
def theta_point(draw):
    n = draw(st.integers(min_value=28, max_value=4096))
    # e > 0: 2K > N
    return n, draw(st.integers(min_value=(n + 1) // 2 + 1, max_value=n - 1))


@given(theta_point())
@example((28, 18))
@example((1217, 1032))
@example((2810, 1501))
@example((4096, 2049))
@settings(max_examples=40, deadline=None)
def test_theorem2_remainder_agrees_with_50_digits(nk):
    n, k = nk
    ks = range(n // 2 + 1, n)
    z = build_table(n).z[ks[0] - 1:n - 1]
    tails = log_tail_exact_all(n)[ks[0]:n]
    ex = expansion_terms(n, ks, tails, z, [psi(v) for v in z])
    i = k - ks[0]
    N, K = n - 1, k - 1
    with mp.workdps(DPS):
        lt = log_tail_mp(n, k)
        z_k = mp.findroot(lambda t: psi_mp(t) + lt, mp.mpf(z[i]))
        e = mp.mpf(2 * K - N) / N
        xs = e * mp.sqrt(N) * mp.sqrt(1 + 2 * e * e * gamma_mp(e))
        w_k = xs + (mp.log(1 - e * e) + 2 * lambda_mp(N - K)) / (2 * xs)
        want = N * (z_k - w_k)
    bound = N * THETA_RESIDUAL * max(1.0, -tails[i]) / rho(z[i])
    assert abs(N * ex.theta[i] - float(want)) <= bound, (n, k)


# Eq. (5)'s d_k = beta_k - k + 1/2 as the sweep hands it to the C1..C4
# fits, from the table's beta_k, against 50 digits: beta_k = n/2 +
# sqrt(n) z_k / 2 with z_k by findroot on psi at the exact tail.  The float
# error is beta_k's own rounding plus z_k's error carried by sqrt(n)/2, so
# the unit is ulp(beta_k) + sqrt(n)/2 z_unit.  Every k among 2,300 drawn
# (n, k) and the first 24 k above the centre of 11 chosen n gave at most
# 0.95 units, at (275, 246); the bound allows about twice that.  A solve
# that drops its last Newton step is 684 units off at (1217, 1032).
EQ5_UNITS = 2.0


@st.composite
def eq5_point(draw):
    n = draw(st.integers(min_value=28, max_value=4096))
    return n, draw(st.integers(min_value=n // 2 + 1, max_value=n))


@given(eq5_point())
@example((1217, 1032))
@example((28, 14))
@example((28, 21))
@example((29, 24))
@example((4096, 4096))
@example((4096, 2049))
@example((2, 2))
@settings(max_examples=40, deadline=None)
def test_eq5_gap_agrees_with_50_digits(nk):
    n, k = nk
    table = build_table(n)
    d = table.beta[k - 1] - k + 0.5
    with mp.workdps(DPS):
        lt = log_tail_mp(n, k)
        z_k = mp.findroot(lambda t: psi_mp(t) + lt,
                          mp.mpf(float(table.z[k - 1])))
        beta_k = mp.mpf(n) / 2 + mp.sqrt(n) * z_k / 2
        want = beta_k - k + mp.mpf(1) / 2
        unit = (math.ulp(float(beta_k)) + math.sqrt(n) / 2
                * z_unit(float(z_k), float(-lt), float(rho_mp(z_k))))
    assert abs(d - float(want)) <= EQ5_UNITS * unit, (n, k)
