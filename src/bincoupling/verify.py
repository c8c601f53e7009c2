"""Sweep harness: runs every inequality check over a grid of (n, k), fits
the existential constants as minimal feasible values, and emits
machine-readable reports.

Fitted constants are regression anchors, not claims about best possible
values: each is the smallest constant making its inequality hold over every
record of the sweep, re-fit separately on the small-n and large-n halves to
audit stability.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
import types
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .approx import expansion_arrays
from .binom_exact import log_tail_exact_all
from .cutpoints import N_MAX_TABLE, CutpointTable, build_table
from .errors import DomainError
from .normal_tail import psi_array

__all__ = [
    "SweepConfig",
    "CheckRows",
    "CHECKS",
    "passes",
    "ConstantsReport",
    "run_sweep",
    "coupling_check",
    "emit_report",
    "load_config",
    "DEFAULT_N_VALUES",
]

DEFAULT_N_VALUES = (28, 29, 64, 100, 128, 256, 512, 1024, 2048)

# epsilon sqrt(N) below this is the near-center regime: the two-root cutpoint
# sandwich is skipped there, and the regime-restricted residual constant
# (c_thm2_tail_regime) is fitted only above it
X_SPLIT = 3.0

DEFAULT_TOLERANCES = {
    "cutpoint": 1e-9,   # deviate units: Tusnady and delta-sandwich slacks
    "log_tail": 1e-9,   # nats: eq.(11) sandwich and defining equation
    "symmetry": 1e-8,   # raw cutpoint units
    "fit": 1e-12,       # slack floor for checks against fitted constants
}

_CONSTANT_FLOOR = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    k_policy: str = "extremes_plus_grid"  # "all" | "stride:<m>" | this
    tolerances: Mapping[str, float] = field(default_factory=dict)
    output_format: str = "csv"  # "csv" | "json"

    def __post_init__(self):
        for n in self.n_values:
            if isinstance(n, bool) or not hasattr(type(n), "__index__"):
                raise DomainError(f"n_values must be integers, got {n!r}")
        # ascending ints (numpy integers too), which the JSON report writes
        object.__setattr__(self, "n_values",
                           tuple(sorted(map(operator.index, self.n_values))))
        if not self.n_values:
            raise DomainError("n_values must not be empty")
        for n in self.n_values:
            if not 1 <= n <= N_MAX_TABLE:
                raise DomainError(
                    f"n_values must lie in [1, {N_MAX_TABLE}], got {n}")
        if len(set(self.n_values)) < len(self.n_values):
            raise DomainError("n_values must not repeat an n")
        head, _, m = self.k_policy.partition(":")
        if self.k_policy not in ("all", "extremes_plus_grid") and not (
                head == "stride" and m.strip().isdecimal() and int(m) >= 1):
            raise DomainError(f"unknown k_policy {self.k_policy!r}, expected "
                              "all, extremes_plus_grid or stride:<m>, m >= 1")
        if self.output_format not in ("csv", "json"):
            raise DomainError(f"unknown output_format {self.output_format!r}")
        unknown = sorted(self.tolerances.keys() - DEFAULT_TOLERANCES.keys())
        if unknown:
            raise DomainError(f"unknown tolerance {unknown[0]!r}")
        for key, t in self.tolerances.items():
            # True would sweep with tolerance 1.0
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise DomainError(
                    f"tolerance {key!r} must be a real number, got {t!r}")
        # all four tolerances in effect, as floats the JSON report can write,
        # read-only so that a checked config stays checked
        object.__setattr__(self, "tolerances", types.MappingProxyType({
            key: float(t)
            for key, t in {**DEFAULT_TOLERANCES, **self.tolerances}.items()}))
        # nan would fail every row, inf would pass every row
        if not all(0.0 < t < math.inf for t in self.tolerances.values()):
            raise DomainError("tolerances must be positive and finite")


class CheckRows(NamedTuple):
    """One check's rows of the report, as columns of equal length."""

    n: np.ndarray
    k: np.ndarray
    passed: np.ndarray
    slack: np.ndarray


@dataclass(frozen=True)
class ConstantsReport:
    c_thm1: float
    c_thm2: float
    c1_eq5: float
    c2_eq5: float
    c3_eq5: float
    c4_eq5: float
    c_coupling: float
    stability_ratio: float
    # diagnostic: residual constant re-fit over the x >= X_SPLIT regime only,
    # where it is stable; the full-range c_thm2 grows like sqrt(N) because of
    # the k = floor(n/2)+1 corner (see the half-sweep audit)
    c_thm2_tail_regime: float = math.nan


def select_ks(n: int, policy: str) -> list[int]:
    """Thresholds in the upper half [ceil(n/2), n] chosen by the policy; the
    lower half is covered by the reflection symmetry of the table."""
    lo, hi = math.ceil(n / 2), n
    special = {k for k in (n // 2 + 1, n // 2 + 2, n - 3, n - 2, n - 1, n)
               if lo <= k <= hi}
    if policy == "all" or (policy == "extremes_plus_grid" and n <= 512):
        return list(range(lo, hi + 1))
    if policy.startswith("stride:"):
        m = int(policy.split(":", 1)[1])
    else:  # extremes_plus_grid above 512: at most 512 values of k
        m = max(1, (hi - lo + 1) // 512)
    ks = set(range(lo, hi + 1, m)) | special
    return sorted(ks)


# Every check the sweep runs, in name order, and the tolerance its slack
# may go below 0 by (None: pass is slack >= 0, because the slack already
# holds its tolerance, or is nan and always fails).  A failed "invariant"
# record at (n, k) stands for the eq. (11) and sandwich rows the expansion
# could not produce there.
CHECKS: dict[str, str | None] = {
    "coupling_k_minus_beta": "cutpoint",
    "defining_eq": None,
    "eq11_lower": "log_tail",
    "eq11_upper": "log_tail",
    "eq5_window": "fit",
    "invariant": None,
    "sandwich_gap": "cutpoint",
    "sandwich_lower": "cutpoint",
    "sandwich_upper": "cutpoint",
    "symmetry": None,
    "thm1_residual": "fit",
    "thm2_residual": "fit",
    "tusnady_lower": "cutpoint",
    "tusnady_upper": "cutpoint",
}


def passes(name: str, slack, tol: dict[str, float]):
    """The pass rule CHECKS declares for check ``name``, on a slack or an
    array of slacks, with the tolerances ``tol``."""
    key = CHECKS[name]
    return slack >= (-tol[key] if key else 0.0)


def _add(checks: dict[str, list[CheckRows]], name: str, n, ks: np.ndarray,
         slack: np.ndarray, tol: dict[str, float]) -> None:
    """Append one chunk of a declared check, its pass rule from CHECKS."""
    checks.setdefault(name, []).append(CheckRows(
        np.broadcast_to(n, ks.shape), ks, passes(name, slack, tol), slack))


def _sweep_one_n(n: int, k_policy: str, tol: dict[str, float],
                 checks: dict[str, list[CheckRows]]
                 ) -> tuple[dict[str, np.ndarray], float]:
    """Add every check of one n to ``checks``; return the coupling constant
    of this n and the raw quantities the constant fits need, one array over
    k each: x = epsilon sqrt(N), n_r_k = N r_k, n_theta_k = N theta_k (nan
    where the expansion does not apply), d_eq5 = beta_k - k + 1/2,
    t_eq5 = |k - n/2|^3 / n^2, log_N = log(n - 1) and log_n = log(n)."""
    table = build_table(n)
    # the expansion reads its exact tails from a second pass (the table's
    # log_tail holds the same values)
    tails = log_tail_exact_all(n)
    N = n - 1
    ks = np.array(select_ks(n, k_policy))
    z = table.z[ks - 1]
    beta = table.beta[ks - 1]
    log_tail = table.log_tail[ks - 1]

    # defining equation psi(z_k) = -log tail, re-checked post hoc
    d = log_tail < 0.0
    s = (tol["log_tail"] * np.maximum(1.0, -log_tail[d])
         - np.abs(psi_array(z[d]) + log_tail[d]))
    _add(checks, "defining_eq", n, ks[d], s, tol)

    # symmetry beta_{n-k+1} + beta_k = n
    s = tol["symmetry"] - np.abs(table.beta[n - ks] + beta - n)
    _add(checks, "symmetry", n, ks, s, tol)

    # Tusnady's bracket k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))
    for name, s in (("tusnady_lower", beta - (ks - 1)),
                    ("tusnady_upper",
                     1.5 * n - np.sqrt(2.0 * n * (n - ks)) - beta)):
        _add(checks, name, n, ks, s, tol)

    fit = {"n": np.full(ks.shape, n), "k": ks,
           "x": np.full(ks.shape, math.nan),
           "n_r_k": np.full(ks.shape, math.nan),
           "n_theta_k": np.full(ks.shape, math.nan),
           "d_eq5": beta - ks + 0.5, "t_eq5": np.abs(ks - n / 2) ** 3 / n ** 2,
           "log_N": np.full(ks.shape, math.log(N) if N > 0 else math.nan),
           "log_n": np.full(ks.shape, math.log(n))}

    dom = (ks > n / 2) & (ks <= n - 1) if n >= 28 else np.zeros_like(ks, bool)
    if dom.any():
        ek = ks[dom]
        lt = tails[ek]
        ex = expansion_arrays(n, ek, lt, z[dom])
        # an internal identity of the expansion failing at one (n, k) is a
        # failed check there, in place of the rows that rest on it
        ok_r = ~ex.breaks_pieces
        ok_11 = ok_r & ~ex.breaks_eq11
        in_sw = ok_11 & (ex.x >= X_SPLIT) & (ex.beta_shift > 0.0)
        ok_sw = in_sw & ~ex.breaks_sandwich
        broken = ~ok_11 | (in_sw & ex.breaks_sandwich)

        for name, s in (("eq11_lower", lt - ex.eq11_lower),
                        ("eq11_upper", ex.eq11_upper - lt)):
            _add(checks, name, n, ek[ok_11], s[ok_11], tol)

        x, zs = ex.x[ok_sw], z[dom][ok_sw]
        s_lo = zs - (x + ex.d2[ok_sw])
        s_up = (x + ex.d1[ok_sw]) - zs
        gap = 4.0 * ex.beta_shift[ok_sw] / x ** 3 - s_up
        for name, s in (("sandwich_lower", s_lo), ("sandwich_upper", s_up),
                        ("sandwich_gap", gap)):
            _add(checks, name, n, ek[ok_sw], s, tol)

        _add(checks, "invariant", n, ek[broken],
             np.full(int(broken.sum()), math.nan), tol)

        fit["x"][dom] = ex.x
        fit["n_r_k"][dom] = np.where(ok_r, N * ex.r_k, math.nan)
        fit["n_theta_k"][dom] = np.where(ok_11, N * ex.theta, math.nan)

    max_excess, c_coupling = coupling_check(n, table=table)
    _add(checks, "coupling_k_minus_beta", n, np.zeros(1, dtype=int),
         np.array([1.0 - max_excess]), tol)
    return fit, c_coupling


def _max(a: np.ndarray) -> float:
    return float(a.max(initial=_CONSTANT_FLOOR))


def _fit_constants(fit: dict[str, np.ndarray],
                   c_coupling: float) -> ConstantsReport:
    def fit_half(rows: np.ndarray) -> tuple[float, float, float]:
        has_r = rows & ~np.isnan(fit["n_r_k"])
        nr = fit["n_r_k"][has_r]
        c1t = max(_max(nr), _max(-nr / fit["log_N"][has_r]))
        has_t = rows & ~np.isnan(fit["n_theta_k"])
        nt, x = fit["n_theta_k"][has_t], fit["x"][has_t]
        need = np.maximum(-nt / (x + 1.0), nt / (x + fit["log_N"][has_t]))
        return c1t, _max(need), _max(need[x >= X_SPLIT])

    every = np.ones(fit["n"].shape, dtype=bool)
    c_thm1, c_thm2, c_thm2_tail = fit_half(every)

    # Eq. (5): the quadruple is anchored on the cubic-dominated rows, then
    # the sqrt(n) terms absorb whatever is left near the center
    d, t, sqrt_n = fit["d_eq5"], fit["t_eq5"], np.sqrt(fit["n"])
    big = t >= 1.0
    if big.any():
        ratio_dt = d[big] / t[big]
        c4 = max(float(ratio_dt.max()), _CONSTANT_FLOOR)
        c2 = max(float(ratio_dt.min()), _CONSTANT_FLOOR)
    else:
        c2, c4 = _CONSTANT_FLOOR, 1.0
    c1 = _max(sqrt_n * (c2 * t - d))
    # at n = 1 the C3 term log(n)/sqrt(n) is 0: that row does not bound C3
    pos = fit["log_n"] > 0.0
    c3 = _max(sqrt_n[pos] * (d[pos] - c4 * t[pos]) / fit["log_n"][pos])

    mid = 384  # splits the default sweep into {<=256} and {>=512}
    low, high = fit["n"] <= mid, fit["n"] > mid
    ratio = 1.0
    if low.any() and high.any():
        for a, b in zip(fit_half(low), fit_half(high)):
            if a > _CONSTANT_FLOOR and b > _CONSTANT_FLOOR:
                ratio = max(ratio, a / b, b / a)
    return ConstantsReport(
        c_thm1=c_thm1, c_thm2=c_thm2, c1_eq5=c1, c2_eq5=c2, c3_eq5=c3,
        c4_eq5=c4, c_coupling=c_coupling, stability_ratio=ratio,
        c_thm2_tail_regime=c_thm2_tail)


def run_sweep(config: SweepConfig | None = None
              ) -> tuple[dict[str, CheckRows], ConstantsReport]:
    """Run every check over the configured grid and fit the constants.

    Returns each check's rows as columns, keyed by check name in name
    order, rows sorted by (n, k); a check without rows is left out.
    Output is deterministic: per-n work is pure.
    """
    config = config or SweepConfig()
    tol = config.tolerances
    checks: dict[str, list[CheckRows]] = {}
    fits = []
    c_coupling = _CONSTANT_FLOOR
    for n in config.n_values:
        fit, c_cpl = _sweep_one_n(n, config.k_policy, tol, checks)
        fits.append(fit)
        c_coupling = max(c_coupling, c_cpl)
    fit = {key: np.concatenate([f[key] for f in fits]) for key in fits[0]}

    c = _fit_constants(fit, c_coupling)

    # residual brackets under the fitted constants; feasible by construction,
    # recorded so the report shows the margins
    n, k, x, log_N = fit["n"], fit["k"], fit["x"], fit["log_N"]
    has_r = ~np.isnan(fit["n_r_k"])
    nr = fit["n_r_k"][has_r]
    s = np.minimum(c.c_thm1 - nr, nr + c.c_thm1 * log_N[has_r])
    _add(checks, "thm1_residual", n[has_r], k[has_r], s, tol)
    has_t = ~np.isnan(fit["n_theta_k"])
    nt, xt = fit["n_theta_k"][has_t], x[has_t]
    s = np.minimum(c.c_thm2 * (xt + log_N[has_t]) - nt,
                   nt + c.c_thm2 * (xt + 1.0))
    _add(checks, "thm2_residual", n[has_t], k[has_t], s, tol)
    d, t, sqrt_n = fit["d_eq5"], fit["t_eq5"], np.sqrt(n)
    s = np.minimum(d - (-c.c1_eq5 / sqrt_n + c.c2_eq5 * t),
                   (c.c3_eq5 * fit["log_n"] / sqrt_n + c.c4_eq5 * t) - d)
    _add(checks, "eq5_window", n, k, s, tol)

    # every n adds its chunk in k order, and the n ascend: joining each
    # check's chunks leaves its rows in (n, k) order
    joined = {name: CheckRows(*map(np.concatenate, zip(*checks[name])))
              for name in sorted(checks)}
    return {name: rows for name, rows in joined.items() if rows.n.size}, c


def coupling_check(n: int, table: CutpointTable | None = None
                   ) -> tuple[float, float]:
    """Deterministic worst case of the coupling over cell endpoints.

    For each k > n/2 the extreme of |k - y| over the cell (beta_k,
    beta_{k+1}] is attained at an endpoint.  Returns max_k (k - beta_k)
    (at most 1, by the classical lower bound k - 1 <= beta_k) and the
    minimal C with |X - Y| <= C + (C/n^2)|k - n/2|^3 at every finite
    endpoint.  The infinite sentinel beyond beta_n is excluded: no constant
    bounds |X - Y| on the top cell's unbounded side.
    """
    if not (1 <= n <= N_MAX_TABLE):
        raise DomainError(f"n must be in [1, {N_MAX_TABLE}], got {n}")
    table = table or build_table(n)
    k = np.arange(n // 2 + 1, n + 1)
    below = k - table.beta[k - 1]            # k - beta_k
    above = table.beta[k[:-1]] - k[:-1]      # beta_{k+1} - k, for k < n
    scale = 1.0 + np.abs(k - n / 2) ** 3 / n ** 2
    c = max(_max(below / scale), _max(above / scale[:-1]))
    return float(below.max()), c


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_report(checks: dict[str, CheckRows],
                constants: ConstantsReport,
                fmt: str,
                config: SweepConfig | None = None) -> bytes:
    """Byte-stable CSV or JSON report of the rows in the order given, which
    is run_sweep's (check, n, k) order.

    The JSON report is what json.dumps(doc, indent=2, sort_keys=True) gives,
    with the record rows formatted directly.  In both formats a check's rows
    are cut into runs of equal (n, passed); one bytes template per run holds
    the check name, n and the flag as literals, and its rows fill in only k
    and the slack.
    """
    if not checks:
        raise DomainError("no records to report")
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown format {fmt!r}")
    if fmt == "csv":
        # the header is the first of the lines the rows are joined to
        head, sep, tail = b"", b"\n", b"\n"
        parts = [sep, b"n,k,check,passed,slack"]
        row, quote = "{n},%d,{check},{passed},%.17g", str
    else:
        doc = {
            "meta": {
                "config": {
                    "n_values": list(config.n_values) if config else None,
                    "k_policy": config.k_policy if config else None,
                    "tolerances": dict(config.tolerances) if config else None,
                },
                "versions": {"bincoupling": __version__,
                             "python": sys.version.split()[0]},
            },
            "constants": {name: _fmt(value)
                          for name, value in asdict(constants).items()},
        }
        # "records" sorts after "constants" and "meta": close the head's
        # last member and append the list, indented as json.dumps would
        head = (json.dumps(doc, indent=2, sort_keys=True)[:-2]
                + ',\n  "records": [\n').encode()
        sep, tail, parts = b",\n", b"\n  ]\n}\n", []
        row = ('    {{\n      "check": {check},\n      "k": %d,\n'
               '      "n": {n},\n      "passed": {passed},\n'
               '      "slack": "%.17g"\n    }}')
        quote = json.dumps
    for name, rows in checks.items():
        ks, slacks = rows.k.tolist(), rows.slack.tolist()
        if not ks:
            continue  # a check without rows adds no bytes
        check = quote(name).replace("%", "%%")
        cuts = np.flatnonzero((np.diff(rows.n) != 0)
                              | (np.diff(rows.passed) != 0)) + 1
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(ks)]):
            t = row.format(n=int(rows.n[a]), check=check,
                           passed="true" if rows.passed[a] else "false")
            parts += (sep, sep.join([t.encode()] * (b - a)) % tuple(
                chain.from_iterable(zip(ks[a:b], slacks[a:b]))))
    # the head takes the place of the first separator
    parts[:1] = [head]
    parts.append(tail)
    return b"".join(parts)


def load_config(path: str) -> SweepConfig:
    """Flat key-value config: one `key = value` per line, '#' comments.

    Keys: n_values (comma-separated), k_policy, output_format,
    tolerance.<name>; each at most once.
    """
    kwargs: dict = {"tolerances": {}}
    given: dict[str, int] = {}  # the line each key is given on
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in given:
                raise DomainError(f"{path}:{lineno}: {key} is already given "
                                  f"on line {given[key]}")
            given[key] = lineno
            try:
                if key == "n_values":
                    arg = {"n_values": tuple(
                        int(v) for v in value.replace(",", " ").split())}
                elif key in ("k_policy", "output_format"):
                    arg = {key: value}
                elif key.startswith("tolerance."):
                    arg = {"tolerances": {key.split(".", 1)[1]: float(value)}}
                else:
                    raise DomainError(f"unknown key {key!r}")
                SweepConfig(**arg)  # the line's value must be valid alone
            except ValueError as exc:  # DomainError included
                raise DomainError(f"{path}:{lineno}: {exc}") from None
            kwargs["tolerances"].update(arg.pop("tolerances", {}))
            kwargs.update(arg)
    return SweepConfig(**kwargs)
