"""Standard-normal tail machinery.

Two routes keep the negative log-tail ``psi`` and the hazard rate ``rho``
accurate far past the point where the raw tail probability underflows (the
cutpoint solver routinely needs psi at x > 50):

- the erfc route, P{Z > x} = erfc(x / sqrt 2) / 2 from math.erfc, for psi
  up to x = 30 and rho up to x = 10;
- beyond those seams the continued fraction of the Mills ratio
  R(x) = tail(x) / phi(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...))))
  (Laplace; DLMF 7.9.3), so rho = 1/R and psi = x^2/2 + log sqrt(2 pi)
  + log rho, with no tail probability formed at all.

Left of 0, psi = -log1p(-P{Z > -x}) with P{Z > -x} = phi(x) / rho(-x).
Against 40-digit values both stay within 4e-15 relative over [-8, 200];
further left the rounding of x^2 in exp(-x^2/2) allows up to about x^2/2
ulp, the left tail's own condition number.  The envelope ends at
X_MIN = -37.5, where psi and rho are still normal floats.

Symbols, for a standard normal Z:

    phi(x)   density
    tail(x)  P{Z > x}
    psi(x)   -log tail(x)
    rho(x)   phi(x) / tail(x)      (hazard rate, derivative of psi)
    r(x)     rho(x) - x            (positive, decreasing remainder)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RangeError

__all__ = [
    "phi",
    "upper_tail",
    "psi",
    "rho",
    "r_remainder",
    "psi_array",
    "rho_array",
    "inverse_psi",
    "inverse_psi_array",
    "inv_tail_asymptotic",
    "X_MIN",
    "X_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = math.log(SQRT_2PI)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)

# Above this x rho takes the continued fraction.  Below it the erfc route's
# error grows like x^2 * 2^-53 (the rounding of u^2 in exp(-u^2)); it is
# under 4e-15 relative up to x = 10, and the fraction needs 16 terms there.
_RHO_SEAM = 10.0
# Above this x psi takes the continued fraction.  The erfc route's error in
# psi is absolute and psi ~ x^2/2, so it stays at a few ulp until
# erfc(x/sqrt 2) nears underflow at x ~ 37.
_PSI_SEAM = 30.0

# Validated accuracy envelope [X_MIN, X_MAX] for psi / rho / inverse_psi.
# Outside it the operations fail loudly rather than silently degrade: left
# of X_MIN psi and rho become subnormal, and past x ~ -38.5 they are 0.0.
X_MIN = -37.5
X_MAX = 200.0


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


def _check_envelope(x: float) -> float:
    x = _check_finite(x)
    if not X_MIN <= x <= X_MAX:
        edge = f"X_MIN = {X_MIN}" if x < X_MIN else f"X_MAX = {X_MAX}"
        raise RangeError(f"x = {x} is past the envelope's edge {edge}")
    return x


def phi(x: float) -> float:
    """Standard normal density."""
    x = _check_finite(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def upper_tail(x: float) -> float:
    """P{Z > x}.  Underflows gracefully to 0 for x beyond ~38; callers that
    need the deep tail work with psi instead."""
    x = _check_finite(x)
    return 0.5 * math.erfc(x * INV_SQRT_2)


def psi(x: float) -> float:
    """Negative log of the upper tail, -log P{Z > x}.

    Never logs an underflowed probability: the erfc route up to x = 30 and
    the continued fraction beyond keep it accurate over the whole envelope
    [X_MIN, X_MAX] = [-37.5, 200].
    """
    x = _check_envelope(x)
    if x < 0.0:
        # the tail is 1 - P{Z > -x} = 1 - phi(x) / rho(-x)
        q = math.exp(-0.5 * x * x) / (SQRT_2PI * _rho_nonneg(-x))
        return -math.log1p(-q)
    if x <= _PSI_SEAM:
        return -math.log(0.5 * math.erfc(x * INV_SQRT_2))
    return 0.5 * x * x + LOG_SQRT_2PI + math.log(_rho_nonneg(x))


def rho(x: float) -> float:
    """Hazard rate phi(x)/P{Z > x}, strictly increasing."""
    x = _check_envelope(x)
    if x < 0.0:
        return (SQRT_2_OVER_PI * math.exp(-0.5 * x * x)
                / math.erfc(x * INV_SQRT_2))
    return _rho_nonneg(x)


def r_remainder(x: float) -> float:
    """rho(x) - x: positive for all x, strictly decreasing, O(1/x) at +inf."""
    return rho(x) - float(x)


def _rho_nonneg(x: float) -> float:
    """rho for x >= 0, unchecked."""
    if x > _RHO_SEAM:
        return _mills_cf(x, _cf_depth(x))
    # phi/tail at the rounded u = x/sqrt 2, so the error of that rounding
    # cancels between exp(-u^2) and erfc(u)
    u = x * INV_SQRT_2
    return SQRT_2_OVER_PI * math.exp(-u * u) / math.erfc(u)


def _cf_depth(x: float) -> int:
    # terms that leave the continued fraction at its converged double for
    # every x >= 5 (26 at x = 5, 16 at 10, 7 at 100), checked on a dense grid
    return 6 + int(100.0 / x)


def _mills_cf(x, depth: int):
    """1/R(x) = x + 1/(x + 2/(x + 3/(x + ...))) cut after depth terms and
    evaluated from the bottom up; x is a float or a float array."""
    t = x
    for k in range(depth, 0, -1):
        t = x + k / t
    return t


def psi_array(x: np.ndarray) -> np.ndarray:
    """psi elementwise, by the routes and seams of the scalar psi, with
    math.erfc in a comprehension and the continued fraction in numpy.  The
    caller keeps x finite and inside the envelope."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    neg = x < 0.0
    xn = x[neg]
    q = np.exp(-0.5 * xn * xn) / (SQRT_2PI * _rho_nonneg_array(-xn))
    out[neg] = -np.log1p(-q)
    far = x > _PSI_SEAM
    xf = x[far]
    out[far] = 0.5 * xf * xf + LOG_SQRT_2PI + np.log(_rho_nonneg_array(xf))
    mid = ~(neg | far)
    out[mid] = -np.log(0.5 * _erfc_array(x[mid] * INV_SQRT_2))
    return out


def rho_array(x: np.ndarray) -> np.ndarray:
    """rho elementwise, by the routes and seam of the scalar rho."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    neg = x < 0.0
    xn = x[neg]
    out[neg] = (SQRT_2_OVER_PI * np.exp(-0.5 * xn * xn)
                / _erfc_array(xn * INV_SQRT_2))
    out[~neg] = _rho_nonneg_array(x[~neg])
    return out


def _rho_nonneg_array(x: np.ndarray) -> np.ndarray:
    """rho_array for x >= 0, by the routes of _rho_nonneg."""
    out = np.empty_like(x)
    far = x > _RHO_SEAM
    if far.any():
        xf = x[far]
        out[far] = _mills_cf(xf, _cf_depth(xf.min()))
    u = x[~far] * INV_SQRT_2
    out[~far] = SQRT_2_OVER_PI * np.exp(-u * u) / _erfc_array(u)
    return out


def _erfc_array(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, u.tolist()), float, u.size)


def inv_tail_asymptotic(p: float) -> float:
    """First-order asymptotic inverse of the upper tail for small p:
    y - log(y)/y with y = sqrt(2 log(1/p)).  O(1/y) accuracy only; used as
    a Newton seed and for consistency checks at extreme cutpoints."""
    p = float(p)
    if not (0.0 < p < 0.1):
        raise DomainError(f"p must lie in (0, 0.1), got {p!r}")
    y = math.sqrt(2.0 * math.log(1.0 / p))
    return y - math.log(y) / y


def inverse_psi(L: float) -> float:
    """Solve psi(x) = L for x, to |psi(x) - L| <= 1e-10 * max(1, L).

    Safeguarded Newton iteration x <- x - (psi(x) - L)/rho(x); psi is convex
    (its derivative rho is increasing) so Newton from a bracketed seed
    converges monotonically, with bisection as the fallback.
    """
    L = float(L)
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"L must be positive and finite, got {L!r}")
    psi_max = psi(X_MAX)
    if L > psi_max:
        raise RangeError(f"L = {L} exceeds psi({X_MAX}) = {psi_max}")

    log2 = math.log(2.0)
    if L >= log2:
        # the root lies in [0, X_MAX]; no iterate may leave the envelope
        lo, hi = 0.0, min(math.sqrt(2.0 * L) + 2.0, X_MAX)
        if L > 2.5:
            # same formula as inv_tail_asymptotic(e^{-L}), stated in L so it
            # works even where e^{-L} underflows
            y = math.sqrt(2.0 * L)
            x = y - math.log(y) / y
        else:
            # Newton's first step from x = 0, the root at L = log 2: psi is
            # convex, so it lands on the root or right of it
            x = (L - log2) / SQRT_2_OVER_PI
    else:
        # mirrored bracket: x < 0, lower tail P{Z <= x} = 1 - e^{-L}
        p_low = -math.expm1(-L)
        lo = max(-(math.sqrt(2.0 * math.log(1.0 / p_low)) + 2.0), X_MIN)
        hi = 0.0
        x = -0.5
    x = min(max(x, lo), hi)

    tol = 1e-12 * max(1.0, L)
    for _ in range(200):
        f = psi(x) - L
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(f) <= tol:
            return x
        step = f / rho(x)
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    if abs(psi(x) - L) > 1e-10 * max(1.0, L):
        raise RangeError(f"inverse_psi failed to converge for L = {L}")
    return x


def inverse_psi_array(L: np.ndarray) -> np.ndarray:
    """inverse_psi elementwise for L >= log 2 (roots x >= 0), to the same
    contract |psi(x) - L| <= 1e-10 * max(1, L).

    The scalar solver's Newton iteration runs on every entry together: the
    same seed, bracket, step and stopping rule, one numpy pass per
    iteration.  An entry that misses the contract, such as an L above
    psi(X_MAX), is a RangeError naming the first such L.  The scalar
    inverse_psi is the reference this solve is tested against.
    """
    L = np.asarray(L, dtype=float)
    if L.size and not (np.isfinite(L).all() and L.min() >= math.log(2.0)):
        raise DomainError("L must be finite and at least log 2")
    y = np.sqrt(2.0 * L)
    x = np.where(L > 2.5, y - np.log(y) / y,
                 (L - math.log(2.0)) / SQRT_2_OVER_PI)
    lo = np.zeros_like(L)
    hi = np.minimum(y + 2.0, X_MAX)
    x = np.minimum(np.maximum(x, lo), hi)
    tol = 1e-12 * np.maximum(1.0, L)
    # each pass evaluates only the entries still iterating
    act = np.arange(L.size)
    for _ in range(200):
        if not act.size:
            break
        xa, lo_a, hi_a = x[act], lo[act], hi[act]
        f = psi_array(xa) - L[act]
        hi_a = np.where(f > 0.0, np.minimum(hi_a, xa), hi_a)
        lo_a = np.where(f <= 0.0, np.maximum(lo_a, xa), lo_a)
        x_new = xa - f / rho_array(xa)
        x_new = np.where((lo_a <= x_new) & (x_new <= hi_a), x_new,
                         0.5 * (lo_a + hi_a))
        lo[act], hi[act] = lo_a, hi_a
        go = (np.abs(f) > tol[act]) & (x_new != xa)
        act = act[go]
        x[act] = x_new[go]
    missed = np.abs(psi_array(x) - L) > 1e-10 * np.maximum(1.0, L)
    if missed.any():
        raise RangeError(f"inverse_psi_array: |psi(x) - L| > 1e-10 max(1, L) "
                         f"for L = {float(L[missed.argmax()])!r}")
    return x
