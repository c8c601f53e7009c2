"""Standard-normal tail machinery.

Two routes, split at one seam x = 10, keep the negative log-tail ``psi``
and the hazard rate ``rho`` accurate far past the point where the raw tail
probability underflows (the cutpoint solver routinely needs psi at x > 50):

- the erfc route, P{Z > x} = erfc(x / sqrt 2) / 2 from math.erfc, on
  [0, 10];
- beyond the seam the continued fraction of the Mills ratio
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

from .errors import DomainError, RangeError, check_real

__all__ = [
    "psi",
    "rho",
    "psi_rho_array",
    "inverse_psi_array",
    "X_MIN",
    "X_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = math.log(SQRT_2PI)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)
LOG_2 = math.log(2.0)

# Above this x psi and rho take the continued fraction.  Below it the erfc
# route's error in rho grows like x^2 * 2^-53 (the rounding of u^2 in
# exp(-u^2)); it is under 4e-15 relative up to x = 10.  psi = x^2/2 +
# log sqrt(2 pi) + log rho from the fraction is within 2.2e-16 relative of
# 50 digits over (10, 30], where -log of the erfc route's tail reaches 5.2e-16.
_SEAM = 10.0

# Terms of the continued fraction at every x past the seam: the fewest that
# give the 80-term double at 6,000,000 points of (10, 10.1] (16 miss at 88)
# and at 2,000,000 of (10, 200].
_CF_DEPTH = 20

# Validated accuracy envelope [X_MIN, X_MAX] for psi, rho and their inverse.
# Outside it the operations fail loudly rather than silently degrade: left
# of X_MIN psi and rho become subnormal, and past x ~ -38.5 they are 0.0.
X_MIN = -37.5
X_MAX = 200.0


def _check_envelope(x: float) -> float:
    if x.__class__ is not float:
        x = check_real("x", x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if not X_MIN <= x <= X_MAX:
        edge = f"X_MIN = {X_MIN}" if x < X_MIN else f"X_MAX = {X_MAX}"
        raise RangeError(f"x = {x} is past the envelope's edge {edge}")
    return x


def psi(x: float) -> float:
    """Negative log of the upper tail, -log P{Z > x}.

    Never logs an underflowed probability: the erfc route up to x = 10 and
    the continued fraction beyond keep it accurate over the whole envelope
    [X_MIN, X_MAX] = [-37.5, 200].
    """
    x = _check_envelope(x)
    if x < 0.0:
        # the tail is 1 - P{Z > -x} = 1 - phi(x) / rho(-x)
        q = math.exp(-0.5 * x * x) / (SQRT_2PI * _rho_nonneg(-x))
        return -math.log1p(-q)
    if x <= _SEAM:
        return -math.log(0.5 * math.erfc(x * INV_SQRT_2))
    return 0.5 * x * x + LOG_SQRT_2PI + math.log(_rho_nonneg(x))


def rho(x: float) -> float:
    """Hazard rate phi(x)/P{Z > x}, strictly increasing."""
    x = _check_envelope(x)
    if x < 0.0:
        return (SQRT_2_OVER_PI * math.exp(-0.5 * x * x)
                / math.erfc(x * INV_SQRT_2))
    return _rho_nonneg(x)


def _rho_nonneg(x: float) -> float:
    """rho for x >= 0, unchecked."""
    if x > _SEAM:
        return _mills_cf(x)
    # phi/tail at the rounded u = x/sqrt 2, so the error of that rounding
    # cancels between exp(-u^2) and erfc(u)
    u = x * INV_SQRT_2
    return SQRT_2_OVER_PI * math.exp(-u * u) / math.erfc(u)


def _mills_cf(x):
    """1/R(x) = x + 1/(x + 2/(x + 3/(x + ...))) cut after _CF_DEPTH terms
    and evaluated from the bottom up; x is a float or a float array."""
    t = x
    for k in range(_CF_DEPTH, 0, -1):
        t = x + k / t
    return t


def psi_rho_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi, rho) elementwise, by the routes and the seam of the scalar psi
    and rho, with each piece the two share evaluated once: exp(-x^2/2) left
    of 0, erfc(x/sqrt 2) on [0, 10] and the continued fraction past 10.
    An entry depends on its own x alone.  math.erfc runs in a
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
    # phi/tail at the rounded u, as in _rho_nonneg
    r[mid] = SQRT_2_OVER_PI * np.exp(-u * u) / erfc_u
    return p, r


def _erfc_array(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, u.tolist()), float, u.size)


# psi is increasing, so L <= psi(X_MAX) keeps the root inside the envelope
_PSI_X_MAX = psi(X_MAX)


def inverse_psi_array(L: np.ndarray) -> np.ndarray:
    """Solve psi(x) = L elementwise for log 2 <= L <= psi(X_MAX) (roots
    0 <= x <= X_MAX): the package's one psi^-1 solve.

    Plain Newton x <- x - (psi(x) - L)/rho(x), one numpy pass per
    iteration over the entries still active.  psi is convex (rho is
    increasing), so every tangent lies below it: from any x >= 0 one step
    lands at or right of the root and the iterates then fall monotonically
    to it; no bracket is needed.  An entry stops after the pass with
    |psi(x) - L| <= 1e-12 max(1, L), keeping that pass's step, and is then
    within 1.5 (ulp(x) + ulp(L)/rho(x)) of the root for the exact tail
    (measured in 50 digits; the second term is L's rounding).  The result
    is checked to |psi(x) - L| <= 1e-10 max(1, L); an L above psi(X_MAX)
    is a RangeError naming the first such L."""
    L = np.asarray(L, dtype=float)
    if L.size and not (np.isfinite(L).all() and L.min() >= LOG_2):
        raise DomainError("L must be finite and at least log 2")
    if L.size and L.max() > _PSI_X_MAX:
        raise RangeError(f"inverse_psi_array: L > psi(X_MAX) = {_PSI_X_MAX!r} "
                         f"for L = {float(L[(L > _PSI_X_MAX).argmax()])!r}")
    # seed: past L = 2.5 the first-order asymptotic inverse of the tail at
    # e^{-L}, stated in L; below, Newton's first step from the root at log 2
    y = np.sqrt(2.0 * L)
    x = np.where(L > 2.5, y - np.log(y) / y, (L - LOG_2) / SQRT_2_OVER_PI)
    tol = 1e-12 * np.maximum(1.0, L)
    act = np.arange(L.size)
    for _ in range(200):
        if not act.size:
            break
        p, r = psi_rho_array(x[act])
        f = p - L[act]
        x[act] -= f / r
        act = act[np.abs(f) > tol[act]]
    missed = np.abs(psi_rho_array(x)[0] - L) > 1e-10 * np.maximum(1.0, L)
    if missed.any():
        raise RangeError(f"inverse_psi_array: |psi(x) - L| > 1e-10 max(1, L) "
                         f"for L = {float(L[missed.argmax()])!r}")
    return x
