"""Self/anti-self charge-conjugate spinors and their identity checks."""

from .checks import CheckResult, SuiteConfig, render_json, render_text, run_checks
from .halfspin import (
    DN,
    UP,
    FourMomentum,
    PhaseConvention,
    build_spinor_basis,
    charge_conjugation_op,
)
from .linalg import AntilinearOp

__version__ = "0.1.0"

__all__ = [
    "AntilinearOp",
    "CheckResult",
    "DN",
    "FourMomentum",
    "PhaseConvention",
    "SuiteConfig",
    "UP",
    "build_spinor_basis",
    "charge_conjugation_op",
    "render_json",
    "render_text",
    "run_checks",
    "__version__",
]
