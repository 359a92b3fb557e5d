"""Rydberg-Landau physics of surface electrons on liquid helium.

The package models the vertical image-charge spectrum in a pressing field,
its Jaynes-Cummings-type coupling to the Landau ladder in a tilted magnetic
field, the resulting microwave absorption maps, and the ripplon-limited
decay rates that decide whether the coupling is coherent.
"""

from .analytics import (
    DressedPair,
    InterferenceMoments,
    admixed_state,
    bethe_cancellation_check,
    coupling_constant,
    doublet_cancellation_field,
    dressed_pair,
    full_transition_shift_ghz,
    interference_moments,
    perturbative_shift,
    tilde_energy,
    transition_shift_ghz,
)
from .config import RunConfig, load_run_config
from .coupled import (
    CoupledSpectrum,
    HamiltonianBlocks,
    ProductBasis,
    assemble_hamiltonian,
    diagonalize,
    find_crossing,
    minimum_gap,
)
from .dissipation import (
    RipplonBath,
    StrongCouplingReport,
    resonant_wavenumber,
    scba_elastic_rate,
    strong_coupling_report,
    two_ripplon_rate,
)
from .errors import (
    BasisMismatch,
    BranchTrackingLost,
    ConfigError,
    ConvergenceFailure,
    DegenerateField,
    GridTooSmall,
    HeliumJcmError,
    NearResonance,
    NoCrossingInRange,
    NotDownward,
)
from .materials import (
    FieldConfiguration,
    MaterialProperties,
    cyclotron_frequency,
    derived_frequencies,
    material_for,
)
from .spectroscopy import (
    AbsorptionMap,
    BroadeningModel,
    TransitionLine,
    absorption_map,
    thermal_populations,
    transition_catalog,
)
from .vertical import (
    GridSpec,
    VerticalSpectrum,
    find_transition_field,
    solve_vertical,
    stark_slope,
    truncation_report,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionMap",
    "BasisMismatch",
    "BranchTrackingLost",
    "BroadeningModel",
    "ConfigError",
    "ConvergenceFailure",
    "CoupledSpectrum",
    "DegenerateField",
    "DressedPair",
    "FieldConfiguration",
    "GridSpec",
    "GridTooSmall",
    "HamiltonianBlocks",
    "HeliumJcmError",
    "InterferenceMoments",
    "MaterialProperties",
    "NearResonance",
    "NoCrossingInRange",
    "NotDownward",
    "ProductBasis",
    "RipplonBath",
    "RunConfig",
    "StrongCouplingReport",
    "TransitionLine",
    "VerticalSpectrum",
    "absorption_map",
    "admixed_state",
    "assemble_hamiltonian",
    "bethe_cancellation_check",
    "coupling_constant",
    "cyclotron_frequency",
    "derived_frequencies",
    "diagonalize",
    "doublet_cancellation_field",
    "dressed_pair",
    "find_crossing",
    "find_transition_field",
    "full_transition_shift_ghz",
    "interference_moments",
    "load_run_config",
    "material_for",
    "minimum_gap",
    "perturbative_shift",
    "resonant_wavenumber",
    "scba_elastic_rate",
    "solve_vertical",
    "stark_slope",
    "strong_coupling_report",
    "thermal_populations",
    "tilde_energy",
    "transition_catalog",
    "transition_shift_ghz",
    "truncation_report",
    "two_ripplon_rate",
]
