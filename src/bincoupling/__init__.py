"""Exact quantile coupling of Bin(n, 1/2) with N(n/2, n/4), the tail and
cutpoint expansions around it, and a sweep harness that certifies every
inequality numerically."""

from .approx import (
    delta_sandwich,
    eq4_extreme,
    eq5_bounds,
    eta_kappa,
    gamma_eps,
    h_aux,
    h_third,
    laplace_pieces,
    lower_bound_11,
    s_eps,
    theorem1_breakdown,
    theorem2_theta,
    theorem2_w,
    tusnady_bounds,
)
from .binom_exact import (
    lambda_n,
    log_tail_exact,
    log_tail_exact_all,
    tail_numerator,
)
from .cutpoints import (
    CutpointTable,
    build_table,
    couple,
    epsilon_of,
    export_csv,
)
from .errors import DomainError, RangeError, SmallEpsilonRegime
from .normal_tail import (
    inv_tail_asymptotic,
    inverse_psi,
    phi,
    psi,
    r_remainder,
    rho,
    upper_tail,
)

__version__ = "0.1.0"

# imported after __version__ is bound: the sweep harness embeds it in reports
from .verify import (  # noqa: E402
    DEFAULT_N_VALUES,
    CheckRows,
    ConstantsReport,
    SweepConfig,
    coupling_check,
    emit_report,
    load_config,
    run_sweep,
)

__all__ = [
    "delta_sandwich", "eq4_extreme", "eq5_bounds", "eta_kappa",
    "gamma_eps", "h_aux", "h_third",
    "laplace_pieces", "lower_bound_11", "s_eps", "theorem1_breakdown",
    "theorem2_theta", "theorem2_w", "tusnady_bounds",
    "lambda_n", "log_tail_exact", "log_tail_exact_all", "tail_numerator",
    "CutpointTable", "build_table", "couple",
    "epsilon_of", "export_csv",
    "DomainError", "RangeError", "SmallEpsilonRegime",
    "inv_tail_asymptotic", "inverse_psi",
    "phi", "psi", "r_remainder", "rho", "upper_tail",
    "DEFAULT_N_VALUES", "CheckRows", "ConstantsReport", "SweepConfig",
    "coupling_check", "emit_report", "load_config", "run_sweep",
    "__version__",
]
