"""Large-deviation expansion of the symmetric Binomial tail and the cutpoint
approximations built on it, evaluated over every k of one n as arrays.

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
rest) are in tests/reference.py, where the tests hold expansion_arrays
against them.

The sweep's other array kernels live here too, and numpy with them:
psi_rho_array, normal_tail's psi and rho elementwise, and lambda_table,
the Stirling corrections of one n.  The coupling core (normal_tail,
binom_exact, cutpoints) is plain Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom_exact import N_MAX_EXACT
from .errors import check_count
from .normal_tail import (
    INV_SQRT_2,
    LOG_SQRT_2PI,
    SQRT_2_OVER_PI,
    SQRT_2PI,
    _SEAM,
    _mills_cf,
)

__all__ = ["ExpansionArrays", "expansion_arrays", "psi_rho_array",
           "lambda_table"]

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


def lambda_table(m: int) -> np.ndarray:
    """Stirling corrections lambda_j = log j! - [(j + 1/2) log j - j +
    log sqrt(2 pi)] for j = 0 .. m as one array (entry 0 is nan), in closed
    form, each bracketed by 1/(12j+1) and 1/(12j); absolute error < 2.5e-15.

    For j >= 9 it is the Stirling series (DLMF 5.11.1) truncated after the
    B_12 term; the first omitted term is 2.5e-15 at j = 9 and shrinks
    like j^-13.  For j < 9 it is math.lgamma(j + 1) minus the Stirling lead,
    where log j! < 11 keeps the cancellation error small.  Against 50
    digits over j <= 4096 the two routes are at most 2.4e-15 (at j = 9)
    and 1.9e-15 off, and every value lies strictly inside Robbins' bracket.
    """
    m = check_count("m", m, 0, N_MAX_EXACT)
    js = np.arange(1.0, m + 1.0)
    inv2, s = 1.0 / (js * js), 0.0
    for c in reversed(_STIRLING_COEFFS):
        s = c + inv2 * s
    lam = np.concatenate(([math.nan], s / js))
    for j in range(1, min(m + 1, _SERIES_MIN_N)):
        lam[j] = (math.lgamma(j + 1)
                  - ((j + 0.5) * math.log(j) - j + LOG_SQRT_2PI))
    return lam


def psi_rho_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi, rho) elementwise, by the routes and the seam of normal_tail's
    psi and rho, with each piece the two share evaluated once: exp(-x^2/2)
    left of 0, erfc(x/sqrt 2) on [0, 10] and the continued fraction past
    10.  An entry depends on its own x alone.  math.erfc runs in a
    comprehension, the fraction in numpy.  The caller keeps x finite and
    inside the envelope."""
    x = np.asarray(x, dtype=float)
    p, r = np.empty_like(x), np.empty_like(x)
    neg = x < 0.0
    far = x > _SEAM
    mid = ~(neg | far)
    if neg.any():
        xn = x[neg]
        ex = np.exp(-0.5 * xn * xn)
        # the tail is 1 - P{Z > -x} = 1 - phi(x) / rho(-x)
        p[neg] = -np.log1p(-ex / (SQRT_2PI * psi_rho_array(-xn)[1]))
        r[neg] = SQRT_2_OVER_PI * ex / _erfc_array(xn * INV_SQRT_2)
    if far.any():
        xf = x[far]
        r[far] = rf = _mills_cf(xf)
        p[far] = 0.5 * xf * xf + LOG_SQRT_2PI + np.log(rf)
    u = x[mid] * INV_SQRT_2
    erfc_u = _erfc_array(u)
    p[mid] = -np.log(0.5 * erfc_u)
    # phi/tail at the rounded u, as in normal_tail._psi_rho
    r[mid] = SQRT_2_OVER_PI * np.exp(-u * u) / erfc_u
    return p, r


def _erfc_array(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, u.tolist()), float, u.size)


@dataclass(frozen=True)
class ExpansionArrays:
    """The expansion's terms for one n over an array of k, as arrays.

    Each entry is what the scalar reference functions of tests/reference.py
    give at that k.  The identities those functions assert (the entropy
    identity of laplace_pieces, the eta/kappa conditions of lower_bound_11,
    the quadratic identities of delta_sandwich and beta > 0 at x >= 3) are
    held as facts by the tests, not re-tested here.
    """

    x: np.ndarray           # e sqrt(N)
    r_k: np.ndarray         # theorem1_breakdown's r_k
    eq11_lower: np.ndarray  # lower_bound_11's (lower, upper)
    eq11_upper: np.ndarray
    theta: np.ndarray       # z - theorem2_w; nan where e = 0
    # delta_sandwich's (d1, d2, beta); the bracket applies where beta > 0
    d1: np.ndarray
    d2: np.ndarray
    beta_shift: np.ndarray


def _gamma_array(e: np.ndarray) -> np.ndarray:
    """gamma_eps elementwise for 0 <= e < 1: the series in e^2 below the
    seam, the closed form above."""
    g = np.empty_like(e)
    small = e < _GAMMA_SEAM
    g[small] = np.polyval(_GAMMA_COEFFS[::-1], e[small] ** 2)
    eb = e[~small]
    g[~small] = ((1.0 + eb) * np.log1p(eb) + (1.0 - eb) * np.log1p(-eb)
                 - eb * eb) / (2.0 * eb ** 4)
    return g


def expansion_arrays(n: int, ks: np.ndarray, log_tail: np.ndarray,
                     z: np.ndarray, psi_z: np.ndarray) -> ExpansionArrays:
    """Array form of theorem1_breakdown, lower_bound_11, z - theorem2_w and
    delta_sandwich at every k of ``ks``, with the exact log tails, the
    cutpoints z and psi(z) at those k.  lambda is taken from one table per
    n.  The caller keeps n/2 < k <= n - 1 and n >= 28, where eq. (11)'s
    eta <= sqrt(2 log N / N) is at most 1/2 (0.4941 at n = 28, 0.5006 at
    n = 27, falling with n)."""
    ks = np.asarray(ks)
    N = n - 1
    K = ks - 1
    e = (2 * K - N) / N
    g = _gamma_array(e)
    lam = lambda_table(N)
    lam_tail = lam[N - K]  # lambda_{n-k}
    e4 = e ** 4
    log1m_e2 = np.log1p(-e * e)

    # laplace_pieces' Delta
    delta = (math.log1p(1.0 / N) + (lam[N] - lam[K] - lam_tail)
             - 0.5 * log1m_e2 - N * e4 * g)

    # theorem1_breakdown
    x = e * math.sqrt(N)
    psi_x, rx = psi_rho_array(x)
    r_k = (log_tail + psi_x) - (-N * e4 * g - 0.5 * log1m_e2 - lam_tail)

    # lower_bound_11, with the eta and kappa of eta_kappa
    ell = math.log(N) / N
    eta = 2.0 * ell / (e + np.sqrt(e * e + 2.0 * ell))
    h3 = (1.0 - e) / (1.0 + eta) ** 3 - (1.0 + e) / (1.0 - eta) ** 3
    kappa_sq = 1.0 - eta * h3 / 3.0
    eq11_upper = delta - psi_x
    bracket = np.log1p(-np.exp(-N * e * eta - 0.5 * N * kappa_sq * eta * eta))
    eq11_lower = delta - 0.5 * np.log(kappa_sq) - psi_x + bracket

    with np.errstate(divide="ignore", invalid="ignore"):
        # theta = z - w, undefined at e = 0
        xs = x * np.sqrt(1.0 + 2.0 * e * e * g)
        w = xs + (log1m_e2 + 2.0 * lam_tail) / (2.0 * xs)
        theta = np.where(e > 0.0, z - w, math.nan)

        # delta_sandwich, where beta_shift > 0
        beta_shift = psi_z - psi_x
        d1 = 2.0 * beta_shift / (np.sqrt(x * x + 2.0 * beta_shift) + x)
        d2 = 2.0 * beta_shift / (np.sqrt(rx * rx + 2.0 * beta_shift) + rx)

    return ExpansionArrays(
        x=x, r_k=r_k, eq11_lower=eq11_lower, eq11_upper=eq11_upper,
        theta=theta, d1=d1, d2=d2, beta_shift=beta_shift)

