"""Large-deviation expansion of the symmetric Binomial tail and the cutpoint
approximations built on it, evaluated over the k of one n as lists.

All quantities are indexed by N = n - 1, K = k - 1 and the standardized
index eps = (2K - N)/N, with x = eps sqrt(N) the leading normal deviate.
The main objects:

    gamma(eps)     entropy-defect coefficient, 1/12 at 0, log 2 - 1/2 at 1
    Delta, Lambda  Stirling/Laplace bookkeeping for the beta integral
    r_k            tail expansion  log P{X >= k} = -psi(x) + A_n(eps)
    w, theta       cutpoint expansion  z_k = w_k + theta_k
    eq. (11)       explicit lower/upper log-tail sandwich
    delta sandwich two-root bracket x + d2 <= z_k <= x + d1

The per-point forms of these formulas (gamma_eps, laplace_pieces,
theorem1_breakdown, theorem2_w, lower_bound_11, delta_sandwich and the
rest) are in tests/reference.py, where the tests hold expansion_terms
against them.

The module also holds lambda_table, the Stirling corrections of one n.
Like the rest of the package it is plain Python: psi and rho come from
normal_tail, and every transcendental from math.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .binom_exact import N_MAX_EXACT
from .errors import check_count
from .normal_tail import LOG_SQRT_2PI, _psi_rho

__all__ = ["ExpansionTerms", "expansion_terms", "lambda_table"]

# gamma(e) = sum_{r>=0} e^{2r} / ((2r+3)(2r+4)), summed below the seam by
# Horner's rule over these coefficients; at e = 3/4 the terms left out come
# to 1e-18 relative.  Against 50 digits the series is within 1.7e-16
# relative below the seam and the closed form within 3.8e-15 above it;
# further down the closed form cancels more, to 1.3e-14 at e = 0.536.
_GAMMA_SEAM = 0.75
_GAMMA_COEFFS = tuple(1.0 / ((2 * r + 3) * (2 * r + 4)) for r in range(60))

# B_2m / (2m (2m - 1)) for m = 1..6, from B_2..B_12 = 1/6, -1/30, 1/42,
# -1/30, 5/66, -691/2730: the coefficients of n^-(2m-1) in the Stirling
# series
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                    1.0 / 1188.0, -691.0 / 360360.0)
# below this n lgamma is the closer route (at n = 8 1.6e-15 off against the
# series' 1.1e-14; at n = 9 3.3e-15 against 2.4e-15, 50 digits)
_SERIES_MIN_N = 9


def lambda_table(m: int) -> list[float]:
    """Stirling corrections lambda_j = log j! - [(j + 1/2) log j - j +
    log sqrt(2 pi)] for j = 0 .. m as one list (entry 0 is nan), in closed
    form, each bracketed by 1/(12j+1) and 1/(12j); absolute error < 2.5e-15.

    For j >= 9 it is the Stirling series (DLMF 5.11.1) truncated after the
    B_12 term, by Horner's rule in 1/j^2; the first omitted term is 2.5e-15
    at j = 9 and shrinks like j^-13.  For j < 9 it is math.lgamma(j + 1)
    minus the Stirling lead, where log j! < 11 keeps the cancellation error
    small.  Against 50 digits over j <= 4096 the two routes are at most
    2.4e-15 (at j = 9) and 1.9e-15 off, and every value lies strictly inside
    Robbins' bracket.
    """
    m = check_count("m", m, 0, N_MAX_EXACT)
    lam = [math.nan]
    for j in range(1, min(m + 1, _SERIES_MIN_N)):
        lam.append(math.lgamma(j + 1)
                   - ((j + 0.5) * math.log(j) - j + LOG_SQRT_2PI))
    c1, c2, c3, c4, c5, c6 = _STIRLING_COEFFS
    lam += [(c1 + i2 * (c2 + i2 * (c3 + i2 * (c4 + i2 * (c5 + i2 * c6))))) / j
            for j in range(_SERIES_MIN_N, m + 1) for i2 in [1.0 / (j * j)]]
    return lam


def _gamma(e: float) -> float:
    """gamma_eps for 0 <= e < 1: the series in e^2 below the seam, the
    closed form above."""
    if e < _GAMMA_SEAM:
        e2 = e * e
        g = 0.0
        for c in reversed(_GAMMA_COEFFS):
            g = g * e2 + c
        return g
    return ((1.0 + e) * math.log1p(e) + (1.0 - e) * math.log1p(-e)
            - e * e) / (2.0 * e ** 4)


class ExpansionTerms(NamedTuple):
    """The expansion's terms for one n over a list of k, as lists.

    Each entry is what the scalar reference functions of tests/reference.py
    give at that k.  The identities those functions assert (the entropy
    identity of laplace_pieces, the eta/kappa conditions of lower_bound_11,
    the quadratic identities of delta_sandwich and beta > 0 at x >= 3) are
    held as facts by the tests, not re-tested here.
    """

    x: list[float]           # e sqrt(N)
    r_k: list[float]         # theorem1_breakdown's r_k
    eq11_lower: list[float]  # lower_bound_11's (lower, upper)
    eq11_upper: list[float]
    theta: list[float]       # z - theorem2_w; nan where e = 0
    # delta_sandwich's (d1, d2, beta); d1 and d2 are nan where beta <= 0,
    # where the bracket does not apply
    d1: list[float]
    d2: list[float]
    beta_shift: list[float]


def expansion_terms(n: int, ks, log_tail, z, psi_z) -> ExpansionTerms:
    """theorem1_breakdown, lower_bound_11, z - theorem2_w and delta_sandwich
    at every k of ``ks``, in one pass, with the exact log tails, the
    cutpoints z and psi(z) at those k.  lambda is taken from one table per
    n.  The caller keeps n/2 < k <= n - 1 and n >= 28, where eq. (11)'s
    eta <= sqrt(2 log N / N) is at most 1/2 (0.4941 at n = 28, 0.5006 at
    n = 27, falling with n)."""
    exp, log, log1p, sqrt = math.exp, math.log, math.log1p, math.sqrt
    N = n - 1
    root_N = math.sqrt(N)
    ell = math.log(N) / N
    lam = lambda_table(N)
    # the pieces of Delta, eta and eq. (11)'s bracket that only n sets
    log1p_inv_N, lam_N = math.log1p(1.0 / N), lam[N]
    two_ell, half_N = 2.0 * ell, 0.5 * N
    terms = ExpansionTerms([], [], [], [], [], [], [], [])
    (put_x, put_r, put_lower, put_upper, put_theta, put_d1, put_d2,
     put_shift) = (column.append for column in terms)
    for k, lt, zk, pz in zip(ks, log_tail, z, psi_z):
        K = k - 1
        e = (2 * K - N) / N
        g = _gamma(e)
        lam_tail = lam[N - K]  # lambda_{n-k}
        # N e^4 gamma and log(1 - e^2)/2, which Delta and r_k share
        n_e4_g = N * e ** 4 * g
        log1m_e2 = log1p(-e * e)
        half_log1m_e2 = 0.5 * log1m_e2

        # laplace_pieces' Delta
        delta = (log1p_inv_N + (lam_N - lam[K] - lam_tail)
                 - half_log1m_e2 - n_e4_g)

        # theorem1_breakdown
        x = e * root_N
        psi_x, rx = _psi_rho(x)
        put_x(x)
        put_r((lt + psi_x) - (-n_e4_g - half_log1m_e2 - lam_tail))

        # lower_bound_11, with the eta and kappa of eta_kappa
        eta = two_ell / (e + sqrt(e * e + two_ell))
        h3 = (1.0 - e) / (1.0 + eta) ** 3 - (1.0 + e) / (1.0 - eta) ** 3
        kappa_sq = 1.0 - eta * h3 / 3.0
        put_upper(delta - psi_x)
        bracket = log1p(-exp(-N * e * eta - half_N * kappa_sq * eta * eta))
        put_lower(delta - 0.5 * log(kappa_sq) - psi_x + bracket)

        # theta = z - w, undefined at e = 0
        if e > 0.0:
            xs = x * sqrt(1.0 + 2.0 * e * e * g)
            put_theta(zk - (xs + (log1m_e2 + 2.0 * lam_tail) / (2.0 * xs)))
        else:
            put_theta(math.nan)

        # delta_sandwich, where beta_shift > 0
        beta_shift = pz - psi_x
        put_shift(beta_shift)
        if beta_shift > 0.0:
            put_d1(2.0 * beta_shift / (sqrt(x * x + 2.0 * beta_shift) + x))
            put_d2(2.0 * beta_shift / (sqrt(rx * rx + 2.0 * beta_shift) + rx))
        else:
            put_d1(math.nan)
            put_d2(math.nan)
    return terms
