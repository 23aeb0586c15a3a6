"""Eta-invariant calculus for flat and nearly flat connections on flat tori."""

from .eta import (
    EtaValue,
    constant_eta,
    eta_bk,
    eta_heat_estimate,
    eta_s1_spectral,
    m_minus,
)
from .flow import gauge_path, spectral_flow
from .forms import EQ_TOL, TrigPolyForm
from .geometry import (
    Connection,
    PreconditionError,
    a_coeff,
    cs_form,
    cs_r_poly,
    gauge_transform,
    odd_subtori,
    subtorus_pairing,
)
from .spectral import (
    MemoryGuardError,
    OperatorTruncation,
    build_truncation,
    spectrum,
)
from .verify import (
    CheckEntry,
    VerificationReport,
    assemble_report,
    eta_tilde,
    psi_local,
    standard_suite,
)

__all__ = [
    "EQ_TOL",
    "CheckEntry",
    "Connection",
    "EtaValue",
    "MemoryGuardError",
    "OperatorTruncation",
    "PreconditionError",
    "TrigPolyForm",
    "VerificationReport",
    "a_coeff",
    "assemble_report",
    "build_truncation",
    "constant_eta",
    "cs_form",
    "cs_r_poly",
    "eta_bk",
    "eta_heat_estimate",
    "eta_s1_spectral",
    "eta_tilde",
    "gauge_path",
    "gauge_transform",
    "m_minus",
    "odd_subtori",
    "psi_local",
    "spectral_flow",
    "spectrum",
    "standard_suite",
    "subtorus_pairing",
]

__version__ = "0.1.0"
