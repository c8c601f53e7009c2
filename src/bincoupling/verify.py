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
from bisect import bisect_left, bisect_right
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple

from . import __version__
from .approx import expansion_terms
from .binom_exact import log_tail_exact_all
from .cutpoints import N_MAX_TABLE, CutpointTable, build_table
from .errors import DomainError, check_count
from .normal_tail import _psi_rho

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


class SweepConfig:
    """The grid of a sweep: ``n_values``, ascending distinct n in [1,
    N_MAX_TABLE], and ``k_policy``, "all" or "stride:<m>" with m >= 1.  A
    config is read-only, equal only to itself, and pickles and copies by
    rebuilding through the constructor."""

    __slots__ = ("n_values", "k_policy")

    def __init__(self, n_values: tuple[int, ...] = DEFAULT_N_VALUES,
                 k_policy: str = "all"):
        if isinstance(n_values, (str, bytes, bytearray)) or not hasattr(
                n_values, "__iter__"):
            raise DomainError(f"n_values {n_values!r} is not a sequence")
        # ascending ints (numpy integers too), which the JSON report writes
        n_values = tuple(sorted(check_count("n_values", n, 1, N_MAX_TABLE)
                                for n in n_values))
        if not n_values:
            raise DomainError("n_values must not be empty")
        if len(set(n_values)) < len(n_values):
            raise DomainError("n_values must not repeat an n")
        select_ks(1, k_policy)  # raises DomainError on a bad policy
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "k_policy", k_policy)

    def __setattr__(self, name, value):
        raise AttributeError(f"SweepConfig is read-only: {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SweepConfig is read-only: {name!r}")

    def __reduce__(self):
        return type(self), (self.n_values, self.k_policy)


class CheckRows(NamedTuple):
    """One check's rows of the report, as four lists of equal length."""

    n: list[int]
    k: list[int]
    passed: list[bool]
    slack: list[float]


class ConstantsReport(NamedTuple):
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


def _least_passing(name: str) -> float:
    """The least slack check ``name`` passes with, by its entry in
    CHECKS."""
    key = CHECKS[name]
    return -TOLERANCES[key] if key else 0.0


def passes(name: str, slack: float) -> bool:
    """The pass rule CHECKS declares for check ``name``, on one slack."""
    return slack >= _least_passing(name)


def _add(checks: dict[str, CheckRows], name: str, ns: list[int],
         ks: list[int], slacks: list[float]) -> None:
    """Append rows of a declared check to its columns, each passed by the
    rule CHECKS declares."""
    least = _least_passing(name)
    if name not in checks:
        checks[name] = CheckRows([], [], [], [])
    rows = checks[name]
    rows.n.extend(ns)
    rows.k.extend(ks)
    rows.passed.extend([s >= least for s in slacks])
    rows.slack.extend(slacks)


def _sweep_one_n(n: int, k_policy: str, checks: dict[str, CheckRows],
                 fits: dict[str, list]) -> None:
    """Add every check of one n to ``checks``, and to ``fits`` the rows
    each fitted constant reads, keyed by constant: (n, k, N r_k, log N, 1)
    for c_thm1 and (n, k, N theta_k, x + 1, x + log N) for c_thm2 and
    c_thm2_tail_regime, x = epsilon sqrt(N); (n, k, d, t) for eq. (5),
    d = beta_k - k + 1/2 and t = |k - n/2|^3 / n^2; and the coupling
    constant of this n for c_coupling."""
    table = build_table(n)
    # the expansion reads its exact tails from a second pass (the table's
    # log_tail holds the same values)
    tails = log_tail_exact_all(n)
    all_z, all_beta, all_lt = table.z, table.beta, table.log_tail
    N = n - 1
    ks = select_ks(n, k_policy)
    tol_lt, tol_sym = TOLERANCES["log_tail"], TOLERANCES["symmetry"]
    half_n, n_sq, two_n, top = n / 2, n ** 2, 2.0 * n, 1.5 * n
    z_k, psi_z, s_def, s_sym, s_lo, s_up, d, t = ([] for _ in range(8))
    for k in ks:
        z, beta, lt = all_z[k - 1], all_beta[k - 1], all_lt[k - 1]
        p = _psi_rho(z)[0]
        z_k.append(z)
        psi_z.append(p)
        # defining equation psi(z_k) = -log tail, re-checked post hoc
        s_def.append(tol_lt * max(1.0, -lt) - abs(p + lt))
        # symmetry beta_{n-k+1} + beta_k = n
        s_sym.append(tol_sym - abs(all_beta[n - k] + beta - n))
        # Tusnady's bracket k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))
        s_lo.append(beta - (k - 1))
        s_up.append(top - math.sqrt(two_n * (n - k)) - beta)
        d.append(beta - k + 0.5)
        t.append(abs(k - half_n) ** 3 / n_sq)
    ns = [n] * len(ks)
    for name, s in (("defining_eq", s_def), ("symmetry", s_sym),
                    ("tusnady_lower", s_lo), ("tusnady_upper", s_up)):
        _add(checks, name, ns, ks, s)
    fits.setdefault("eq5", []).extend(zip(ns, ks, d, t))

    # the expansion's k, n/2 < k <= n - 1 from n = 28: a run of ks
    dom = slice(bisect_right(ks, n // 2), bisect_right(ks, N) if n >= 28
                else 0)
    dom_ks = ks[dom]
    if dom_ks:
        dom_tails, dom_z = [tails[k] for k in dom_ks], z_k[dom]
        ex = expansion_terms(n, dom_ks, dom_tails, dom_z, psi_z[dom])
        dom_ns, log_N = ns[dom], math.log(N)
        _add(checks, "eq11_lower", dom_ns, dom_ks,
             [lt - v for lt, v in zip(dom_tails, ex.eq11_lower)])
        _add(checks, "eq11_upper", dom_ns, dom_ks,
             [v - lt for lt, v in zip(dom_tails, ex.eq11_upper)])
        fits.setdefault("c_thm1", []).extend(
            (n, k, N * r, log_N, 1.0) for k, r in zip(dom_ks, ex.r_k))
        # theta is undefined at e = 0, the centre k = (n + 1)/2 of an odd
        # n, which can only be the first row
        c = int(2 * dom_ks[0] == n + 1)
        thm2 = [(n, k, N * v, x + 1.0, x + log_N)
                for k, v, x in zip(dom_ks[c:], ex.theta[c:], ex.x[c:])]
        fits.setdefault("c_thm2", []).extend(thm2)

        # the two-root sandwich, where x >= X_SPLIT: (2k - n - 1)^2 grows
        # with k > n/2, so those rows end the expansion's, from o on; o >= c,
        # as the centre's 0 is below X_SPLIT^2 N
        o = bisect_left(dom_ks, X_SPLIT ** 2 * N,
                        key=lambda k: (2 * k - n - 1) ** 2)
        fits.setdefault("c_thm2_tail_regime", []).extend(thm2[o - c:])
        zs, xs = dom_z[o:], ex.x[o:]
        s_lo = [z - (v + d2) for z, v, d2 in zip(zs, xs, ex.d2[o:])]
        s_up = [(v + d1) - z for z, v, d1 in zip(zs, xs, ex.d1[o:])]
        gap = [4.0 * b / v ** 3 - s
               for b, v, s in zip(ex.beta_shift[o:], xs, s_up)]
        for name, s in (("sandwich_lower", s_lo), ("sandwich_upper", s_up),
                        ("sandwich_gap", gap)):
            _add(checks, name, dom_ns[o:], dom_ks[o:], s)

    max_excess, c_coupling = coupling_check(table)
    _add(checks, "coupling_k_minus_beta", [n], [0], [1.0 - max_excess])
    fits.setdefault("c_coupling", []).append(c_coupling)


def _max(values) -> float:
    """The largest of ``values`` and the constant floor."""
    return max(_CONSTANT_FLOOR, max(values, default=_CONSTANT_FLOOR))


def _fit_constants(fits: dict[str, list], checks: dict[str, CheckRows]
                   ) -> ConstantsReport:
    """Fit each constant as the largest need of its inequality over its
    rows in ``fits``, which ascend in n; add to ``checks`` the inequality's
    margins under it (feasible by construction, recorded so the report
    shows them).  One pass over the rows takes the needs, a second the
    margins."""
    # Theorems 1 and 2, each -C a <= v <= C b over rows (n, k, v, a, b),
    # with the residual check that records its margins, if any
    consts, ratio = {}, 1.0
    for name, check in (("c_thm1", "thm1_residual"),
                        ("c_thm2", "thm2_residual"),
                        ("c_thm2_tail_regime", None)):
        rows = fits.get(name, ())
        need = [max(-v / a, v / b) for _, _, v, a, b in rows]
        c = consts[name] = _max(need)
        # C re-fit on each half of n, where both halves bound it; the n <=
        # 384 half, {<=256} of the default sweep, is a run of the first rows
        low = bisect_right(rows, 384, key=itemgetter(0))
        h1, h2 = _max(need[:low]), _max(need[low:])
        if min(h1, h2) > _CONSTANT_FLOOR:
            ratio = max(ratio, h1 / h2, h2 / h1)
        if check:
            _add(checks, check, [row[0] for row in rows],
                 [row[1] for row in rows],
                 [min(c * b - v, v + c * a) for _, _, v, a, b in rows])

    # Eq. (5): the quadruple is anchored on the cubic-dominated rows, then
    # the sqrt(n) terms absorb whatever is left near the center
    rows = fits.get("eq5", ())
    ratio_dt = [d / t for _, _, d, t in rows if t >= 1.0]
    if ratio_dt:
        c4 = max(max(ratio_dt), _CONSTANT_FLOOR)
        c2 = max(min(ratio_dt), _CONSTANT_FLOOR)
    else:
        c2, c4 = _CONSTANT_FLOOR, 1.0
    sqrt, log = math.sqrt, math.log
    c1 = _max([sqrt(n) * (c2 * t - d) for n, _, d, t in rows])
    # at n = 1 the C3 term log(n)/sqrt(n) is 0: that row does not bound C3
    c3 = _max([sqrt(n) * (d - c4 * t) / log(n) for n, _, d, t in rows
               if n > 1])
    _add(checks, "eq5_window", [row[0] for row in rows],
         [row[1] for row in rows],
         [min(d - (-c1 / sqrt(n) + c2 * t),
              (c3 * log(n) / sqrt(n) + c4 * t) - d) for n, _, d, t in rows])
    return ConstantsReport(
        **consts, c1_eq5=c1, c2_eq5=c2, c3_eq5=c3, c4_eq5=c4,
        c_coupling=_max(fits.get("c_coupling", ())), stability_ratio=ratio)


def run_sweep(config: SweepConfig | None = None
              ) -> tuple[dict[str, CheckRows], ConstantsReport]:
    """Run every check over the configured grid and fit the constants.

    Returns each check's rows as columns, keyed by check name in name
    order, rows sorted by (n, k); a check without rows is left out.
    Output is deterministic: per-n work is pure.
    """
    config = config or SweepConfig()
    checks: dict[str, CheckRows] = {}
    fits: dict[str, list] = {}
    for n in config.n_values:
        _sweep_one_n(n, config.k_policy, checks, fits)
    c = _fit_constants(fits, checks)

    # every n adds its rows in k order, and the n ascend: each check's
    # rows are in (n, k) order
    return {name: checks[name] for name in sorted(checks)
            if checks[name].n}, c


def coupling_check(table: CutpointTable) -> tuple[float, float]:
    """Deterministic worst case of the table's coupling over cell endpoints.

    For each k > n/2 the extreme of |k - y| over the cell (beta_k,
    beta_{k+1}] is attained at an endpoint.  Returns max_k (k - beta_k)
    (at most 1, by the classical lower bound k - 1 <= beta_k) and the
    minimal C with |X - Y| <= C + (C/n^2)|k - n/2|^3 at every finite
    endpoint.  The infinite sentinel beyond beta_n is excluded: no constant
    bounds |X - Y| on the top cell's unbounded side.
    """
    n, beta = table.n, table.beta
    ks = range(n // 2 + 1, n + 1)
    below = [k - beta[k - 1] for k in ks]     # k - beta_k
    scale = [1.0 + abs(k - n / 2) ** 3 / n ** 2 for k in ks]
    # beta_{k+1} - k, for k < n
    above = [beta[k] - k for k in ks[:-1]]
    c = max(_max([b / s for b, s in zip(below, scale)]),
            _max([a / s for a, s in zip(above, scale)]))
    return max(below), c


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
                          for name, value in constants._asdict().items()},
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
        check = quote(name).replace("%", "%%")
        # a check without rows has no run and adds no bytes
        a = 0
        for (n, passed), run in groupby(zip(rows.n, rows.passed)):
            b = a + len(list(run))
            t = row.format(n=n, check=check,
                           passed="true" if passed else "false")
            parts += (sep, sep.join([t.encode()] * (b - a)) % tuple(
                chain.from_iterable(zip(rows.k[a:b], rows.slack[a:b]))))
            a = b
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
