"""Squashed-entanglement bounds for Gaussian states and channels.

Two independent computational routes are provided: closed-form expressions in
the covariance-matrix formalism, and a truncated Fock-space oracle used for
cross-validation.
"""

from .bounds import (
    BoundReport,
    MinimizerResult,
    channel_esq,
    classical_esq,
    esq_bounds_channel_state,
    esq_bounds_tms,
    find_E_kappa,
    secret_key_capacity,
    separation_check,
    tms_equivalent_params,
)
from .entropics import (
    ChannelParam,
    cmi_cosh_lower,
    cond_epi_rhs,
    g,
    g_inverse,
    gap_f,
    h,
    moe_amplifier,
    moe_complement,
    psi,
    psi_second_derivative,
)
from .errors import (
    CutoffError,
    DomainError,
    InvalidStateError,
    SingularPointError,
)
from .states import (
    GaussianState,
    extension_family,
    gamma_amplified,
    gamma_attenuated,
    gaussian_cmi,
    thermal_state,
    tms_thermal_state,
)
from .symplectic import gaussian_entropy, symplectic_eigenvalues, validate_covariance
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChannelParam",
    "CutoffError",
    "DomainError",
    "GaussianState",
    "InvalidStateError",
    "MinimizerResult",
    "SingularPointError",
    "VerifyReport",
    "channel_esq",
    "classical_esq",
    "cmi_cosh_lower",
    "cond_epi_rhs",
    "esq_bounds_channel_state",
    "esq_bounds_tms",
    "extension_family",
    "find_E_kappa",
    "g",
    "g_inverse",
    "gamma_amplified",
    "gamma_attenuated",
    "gap_f",
    "gaussian_cmi",
    "gaussian_entropy",
    "h",
    "moe_amplifier",
    "moe_complement",
    "psi",
    "psi_second_derivative",
    "run_suite",
    "secret_key_capacity",
    "separation_check",
    "symplectic_eigenvalues",
    "thermal_state",
    "tms_equivalent_params",
    "tms_thermal_state",
    "validate_covariance",
]
