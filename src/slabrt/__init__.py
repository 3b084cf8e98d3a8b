"""Linear Rayleigh-Taylor instability in a horizontally periodic slab with
slip walls: variational growth rates, dispersion scans, mode reconstruction
and a time-domain cross-check."""

import os

# The dense eigensolves here are small enough that a second OpenBLAS thread
# burns CPU without saving wall time.  OpenBLAS reads the variable when it
# loads, so this takes effect only if numpy and scipy are not loaded yet; an
# explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is left to win.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dispersion import (
    DispersionPoint,
    DispersionResult,
    ModeSolution,
    companion_oracle,
    escape_time,
    growth_rate,
    reconstruct_mode,
    scan_band,
)
from .evolve import (
    CrankNicolsonStepper,
    EvolveState,
    fit_growth_rate,
    kinetic_energy,
    mode_initial_state,
    simulate,
)
from .forms import FormSet, assemble_forms, c0_constant
from .grid import SpectralGrid, build_grid
from .profiles import (
    DensityProfile,
    SlabConfig,
    ValidationReport,
    constant_profile,
    preset_profile,
    profile_from_csv,
    tabulated_profile,
    validate_profile,
)
from .variational import (
    CriticalNumbers,
    alpha,
    compute_critical_numbers,
    critical_frequency,
    critical_viscosity_closed_form,
    critical_viscosity_numerical,
    frak_S,
    upper_bound_constants,
)

__all__ = [
    "CrankNicolsonStepper",
    "CriticalNumbers",
    "DensityProfile",
    "DispersionPoint",
    "DispersionResult",
    "EvolveState",
    "FormSet",
    "ModeSolution",
    "SlabConfig",
    "SpectralGrid",
    "ValidationReport",
    "alpha",
    "assemble_forms",
    "build_grid",
    "c0_constant",
    "companion_oracle",
    "compute_critical_numbers",
    "constant_profile",
    "critical_frequency",
    "critical_viscosity_closed_form",
    "critical_viscosity_numerical",
    "escape_time",
    "fit_growth_rate",
    "frak_S",
    "growth_rate",
    "kinetic_energy",
    "mode_initial_state",
    "preset_profile",
    "profile_from_csv",
    "reconstruct_mode",
    "scan_band",
    "simulate",
    "tabulated_profile",
    "upper_bound_constants",
    "validate_profile",
]
