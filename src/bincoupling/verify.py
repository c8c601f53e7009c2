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
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .approx import expansion_arrays, psi_rho_array
from .binom_exact import log_tail_exact_all
from .cutpoints import N_MAX_TABLE, CutpointTable, build_table
from .errors import DomainError, check_count

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
# (c_thm2_tail_regime) is fitted only above it.  The sweep decides x >= 3 in
# integers, (2k - n - 1)^2 >= 9(n - 1), since the float x can round 3 down
X_SPLIT = 3

TOLERANCES = {
    "cutpoint": 1e-9,   # deviate units: Tusnady and delta-sandwich slacks
    "log_tail": 1e-9,   # nats: eq.(11) sandwich and defining equation
    "symmetry": 1e-8,   # raw cutpoint units
    "fit": 1e-12,       # slack floor for checks against fitted constants
}

_CONSTANT_FLOOR = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    # "all" or "stride:<m>", m >= 1
    k_policy: str = "all"

    def __post_init__(self):
        if isinstance(self.n_values, (str, bytes, bytearray)) or not hasattr(
                self.n_values, "__iter__"):
            raise DomainError(f"n_values {self.n_values!r} is not a sequence")
        # ascending ints (numpy integers too), which the JSON report writes
        object.__setattr__(self, "n_values", tuple(sorted(
            check_count("n_values", n, 1, N_MAX_TABLE)
            for n in self.n_values)))
        if not self.n_values:
            raise DomainError("n_values must not be empty")
        if len(set(self.n_values)) < len(self.n_values):
            raise DomainError("n_values must not repeat an n")
        select_ks(1, self.k_policy)  # raises DomainError on a bad policy


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
    c_thm2_tail_regime: float


def select_ks(n: int, policy: str) -> list[int]:
    """Thresholds in the upper half [ceil(n/2), n]; the table's reflection
    covers the lower half.  Every m-th k from ceil(n/2) plus the six extreme
    thresholds: m = 1 for "all", m for "stride:<m>"."""
    head, _, m = policy.partition(":") if isinstance(policy, str) else [""] * 3
    lo, hi = math.ceil(n / 2), n
    if policy == "all":
        step = 1
    elif head == "stride" and m.strip().isdecimal() and int(m) >= 1:
        step = int(m)
    else:
        raise DomainError(f"unknown k_policy {policy!r}, expected all or "
                          "stride:<m>, m >= 1")
    special = {k for k in (n // 2 + 1, n // 2 + 2, n - 3, n - 2, n - 1, n)
               if lo <= k <= hi}
    return sorted(set(range(lo, hi + 1, step)) | special)


# Every check the sweep runs, in name order, and the tolerance its slack
# may go below 0 by (None: pass is slack >= 0, because the slack already
# holds its tolerance).
CHECKS: dict[str, str | None] = {
    "coupling_k_minus_beta": "cutpoint",
    "defining_eq": None,
    "eq11_lower": "log_tail",
    "eq11_upper": "log_tail",
    "eq5_window": "fit",
    "sandwich_gap": "cutpoint",
    "sandwich_lower": "cutpoint",
    "sandwich_upper": "cutpoint",
    "symmetry": None,
    "thm1_residual": "fit",
    "thm2_residual": "fit",
    "tusnady_lower": "cutpoint",
    "tusnady_upper": "cutpoint",
}


def passes(name: str, slack):
    """The pass rule CHECKS declares for check ``name``, on a slack or an
    array of slacks."""
    key = CHECKS[name]
    return slack >= (-TOLERANCES[key] if key else 0.0)


def _add(checks: dict[str, list[CheckRows]], name: str, n, ks: np.ndarray,
         slack: np.ndarray) -> None:
    """Append one chunk of a declared check, its pass rule from CHECKS."""
    checks.setdefault(name, []).append(CheckRows(
        np.broadcast_to(n, ks.shape), ks, passes(name, slack), slack))


def _sweep_one_n(n: int, k_policy: str, checks: dict[str, list[CheckRows]]
                 ) -> tuple[dict[str, np.ndarray], float]:
    """Add every check of one n to ``checks``; return the coupling constant
    of this n and the raw quantities the constant fits need, one array over
    k each: x = epsilon sqrt(N), n_r_k = N r_k, n_theta_k = N theta_k (nan
    where the expansion does not apply), d = beta_k - k + 1/2,
    log_N = log(n - 1), log_n = log(n) and the mask tail of k > n/2 with
    x >= X_SPLIT, beside the columns n and k."""
    table = build_table(n)
    # the expansion reads its exact tails from a second pass (the table's
    # log_tail holds the same values)
    tails = np.asarray(log_tail_exact_all(n))
    all_beta = np.asarray(table.beta)
    N = n - 1
    ks = np.array(select_ks(n, k_policy))
    z = np.asarray(table.z)[ks - 1]
    beta = all_beta[ks - 1]
    log_tail = np.asarray(table.log_tail)[ks - 1]
    psi_z = psi_rho_array(z)[0]

    # defining equation psi(z_k) = -log tail, re-checked post hoc
    s = (TOLERANCES["log_tail"] * np.maximum(1.0, -log_tail)
         - np.abs(psi_z + log_tail))
    _add(checks, "defining_eq", n, ks, s)

    # symmetry beta_{n-k+1} + beta_k = n
    s = TOLERANCES["symmetry"] - np.abs(all_beta[n - ks] + beta - n)
    _add(checks, "symmetry", n, ks, s)

    # Tusnady's bracket k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))
    for name, s in (("tusnady_lower", beta - (ks - 1)),
                    ("tusnady_upper",
                     1.5 * n - np.sqrt(2.0 * n * (n - ks)) - beta)):
        _add(checks, name, n, ks, s)

    fit = {"n": np.full(ks.shape, n), "k": ks,
           "x": np.full(ks.shape, math.nan),
           "n_r_k": np.full(ks.shape, math.nan),
           "n_theta_k": np.full(ks.shape, math.nan),
           "d": beta - ks + 0.5,
           "log_N": np.full(ks.shape, math.log(N) if N > 0 else math.nan),
           "log_n": np.full(ks.shape, math.log(n)),
           "tail": (ks > n / 2) & ((2 * ks - n - 1) ** 2 >= X_SPLIT ** 2 * N)}

    dom = (ks > n / 2) & (ks <= n - 1) if n >= 28 else np.zeros_like(ks, bool)
    if dom.any():
        ek = ks[dom]
        lt = tails[ek]
        ex = expansion_arrays(n, ek, lt, z[dom], psi_z[dom])
        _add(checks, "eq11_lower", n, ek, lt - ex.eq11_lower)
        _add(checks, "eq11_upper", n, ek, ex.eq11_upper - lt)

        sw = fit["tail"][dom]
        x, zs = ex.x[sw], z[dom][sw]
        s_lo = zs - (x + ex.d2[sw])
        s_up = (x + ex.d1[sw]) - zs
        gap = 4.0 * ex.beta_shift[sw] / x ** 3 - s_up
        for name, s in (("sandwich_lower", s_lo), ("sandwich_upper", s_up),
                        ("sandwich_gap", gap)):
            _add(checks, name, n, ek[sw], s)

        fit["x"][dom] = ex.x
        fit["n_r_k"][dom] = N * ex.r_k
        fit["n_theta_k"][dom] = N * ex.theta

    max_excess, c_coupling = coupling_check(table)
    _add(checks, "coupling_k_minus_beta", n, np.zeros(1, dtype=int),
         np.array([1.0 - max_excess]))
    return fit, c_coupling


def _max(a: np.ndarray) -> float:
    return float(a.max(initial=_CONSTANT_FLOOR))


def _fit_constants(fit: dict[str, np.ndarray], c_coupling: float,
                   checks: dict[str, list[CheckRows]]) -> ConstantsReport:
    """Fit each constant as the largest need of its inequality over the
    rows; add to ``checks`` the inequality's margins under it (feasible by
    construction, recorded so the report shows them)."""
    n, k, x, log_N, log_n = (fit[c] for c in ("n", "k", "x", "log_N", "log_n"))
    nr, nt = fit["n_r_k"], fit["n_theta_k"]
    has_t = ~np.isnan(nt)
    # Theorems 1 and 2, each -C a <= v <= C b over its rows, declared once
    # as (constant, residual check or None, v, a, b, rows)
    thm2 = (nt, x + 1.0, x + log_N)
    bounds = (("c_thm1", "thm1_residual", nr, log_N, np.ones(n.shape),
               ~np.isnan(nr)),
              ("c_thm2", "thm2_residual", *thm2, has_t),
              ("c_thm2_tail_regime", None, *thm2, has_t & fit["tail"]))
    low = n <= 384  # splits the default sweep into {<=256} and {>=512}
    consts, ratio = {}, 1.0
    for name, check, v, a, b, rows in bounds:
        v, a, b, lo = v[rows], a[rows], b[rows], low[rows]
        need = np.maximum(-v / a, v / b)
        c = consts[name] = _max(need)
        # C re-fit on each half of n, where both halves bound it
        h1, h2 = _max(need[lo]), _max(need[~lo])
        if min(h1, h2) > _CONSTANT_FLOOR:
            ratio = max(ratio, h1 / h2, h2 / h1)
        if check:
            _add(checks, check, n[rows], k[rows],
                 np.minimum(c * b - v, v + c * a))

    # Eq. (5): the quadruple is anchored on the cubic-dominated rows, then
    # the sqrt(n) terms absorb whatever is left near the center
    d, t, sqrt_n = fit["d"], np.abs(k - n / 2) ** 3 / n ** 2, np.sqrt(n)
    big = t >= 1.0
    if big.any():
        ratio_dt = d[big] / t[big]
        c4 = max(float(ratio_dt.max()), _CONSTANT_FLOOR)
        c2 = max(float(ratio_dt.min()), _CONSTANT_FLOOR)
    else:
        c2, c4 = _CONSTANT_FLOOR, 1.0
    c1 = _max(sqrt_n * (c2 * t - d))
    # at n = 1 the C3 term log(n)/sqrt(n) is 0: that row does not bound C3
    pos = log_n > 0.0
    c3 = _max(sqrt_n[pos] * (d[pos] - c4 * t[pos]) / log_n[pos])
    _add(checks, "eq5_window", n, k,
         np.minimum(d - (-c1 / sqrt_n + c2 * t),
                    (c3 * log_n / sqrt_n + c4 * t) - d))
    return ConstantsReport(
        **consts, c1_eq5=c1, c2_eq5=c2, c3_eq5=c3, c4_eq5=c4,
        c_coupling=c_coupling, stability_ratio=ratio)


def run_sweep(config: SweepConfig | None = None
              ) -> tuple[dict[str, CheckRows], ConstantsReport]:
    """Run every check over the configured grid and fit the constants.

    Returns each check's rows as columns, keyed by check name in name
    order, rows sorted by (n, k); a check without rows is left out.
    Output is deterministic: per-n work is pure.
    """
    config = config or SweepConfig()
    checks: dict[str, list[CheckRows]] = {}
    fits = []
    c_coupling = _CONSTANT_FLOOR
    for n in config.n_values:
        fit, c_cpl = _sweep_one_n(n, config.k_policy, checks)
        fits.append(fit)
        c_coupling = max(c_coupling, c_cpl)
    fit = {key: np.concatenate([f[key] for f in fits]) for key in fits[0]}
    c = _fit_constants(fit, c_coupling, checks)

    # every n adds its chunk in k order, and the n ascend: joining each
    # check's chunks leaves its rows in (n, k) order
    joined = {name: CheckRows(*map(np.concatenate, zip(*checks[name])))
              for name in sorted(checks)}
    return {name: rows for name, rows in joined.items() if rows.n.size}, c


def coupling_check(table: CutpointTable) -> tuple[float, float]:
    """Deterministic worst case of the table's coupling over cell endpoints.

    For each k > n/2 the extreme of |k - y| over the cell (beta_k,
    beta_{k+1}] is attained at an endpoint.  Returns max_k (k - beta_k)
    (at most 1, by the classical lower bound k - 1 <= beta_k) and the
    minimal C with |X - Y| <= C + (C/n^2)|k - n/2|^3 at every finite
    endpoint.  The infinite sentinel beyond beta_n is excluded: no constant
    bounds |X - Y| on the top cell's unbounded side.
    """
    n, beta = table.n, np.asarray(table.beta)
    k = np.arange(n // 2 + 1, n + 1)
    below = k - beta[k - 1]            # k - beta_k
    above = beta[k[:-1]] - k[:-1]      # beta_{k+1} - k, for k < n
    scale = 1.0 + np.abs(k - n / 2) ** 3 / n ** 2
    c = max(_max(below / scale), _max(above / scale[:-1]))
    return float(below.max()), c


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_report(checks: dict[str, CheckRows],
                constants: ConstantsReport,
                fmt: str,
                config: SweepConfig) -> bytes:
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
                "config": {"n_values": list(config.n_values),
                           "k_policy": config.k_policy,
                           "tolerances": TOLERANCES},
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
    """Flat key-value UTF-8 config: one `key = value` per line, '#' comments.

    At most once each: n_values (comma-separated) and k_policy.
    """
    kwargs: dict = {}
    given: dict[str, int] = {}  # the line each key is given on
    # surrogateescape keeps a byte that is not UTF-8 as a lone surrogate,
    # which encode() then refuses, so the line it is on can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode()
            except UnicodeEncodeError:
                raise DomainError(f"{path}:{lineno}: not UTF-8") from None
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
                    if not all(v.strip() for v in value.split(",")):
                        raise DomainError(f"empty item in n_values {value!r}")
                    arg = {"n_values": tuple(
                        int(v) for v in value.replace(",", " ").split())}
                elif key == "k_policy":
                    arg = {key: value}
                else:
                    raise DomainError(f"unknown key {key!r}")
                SweepConfig(**arg)  # the line's value must be valid alone
            except ValueError as exc:  # DomainError included
                raise DomainError(f"{path}:{lineno}: {exc}") from None
            kwargs.update(arg)
    return SweepConfig(**kwargs)
