"""Rydberg-Landau physics of surface electrons on liquid helium.

The package models the vertical image-charge spectrum in a pressing field,
its Jaynes-Cummings-type coupling to the Landau ladder in a tilted magnetic
field, the resulting microwave absorption maps, and the ripplon-limited
decay rates that decide whether the coupling is coherent.

Importing the package imports none of its submodules, and so no numpy: each
exported name, and each submodule, is imported on first access (PEP 562).
That lets the command line set the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "analytics": (
        "DressedPair", "InterferenceMoments", "admixed_state",
        "bethe_cancellation_check", "coupling_constant",
        "doublet_cancellation_field", "dressed_pair",
        "full_transition_shift_ghz", "interference_moments",
        "perturbative_shift", "tilde_energy", "transition_shift_ghz"),
    "config": ("RunConfig", "load_run_config"),
    "coupled": (
        "CoupledSpectrum", "HamiltonianBlocks", "assemble_hamiltonian",
        "diagonalize", "find_crossing", "minimum_gap"),
    "dissipation": (
        "RipplonBath", "StrongCouplingReport", "resonant_wavenumber",
        "scba_elastic_rate", "strong_coupling_report", "two_ripplon_rate"),
    "errors": (
        "BasisMismatch", "BranchTrackingLost", "ConfigError",
        "ConvergenceFailure", "DegenerateField", "GridTooSmall",
        "HeliumJcmError", "NearResonance", "NoCrossingInRange",
        "NotDownward"),
    "materials": (
        "BroadeningModel", "FieldConfiguration", "MaterialProperties",
        "ProductBasis", "cyclotron_frequency", "derived_frequencies",
        "material_for"),
    "spectroscopy": (
        "AbsorptionMap", "TransitionLine", "absorption_map",
        "thermal_populations", "transition_catalog"),
    "vertical": (
        "VerticalSpectrum", "find_transition_field", "solve_vertical",
        "stark_slope", "truncation_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """An exported name or a submodule, imported on first access and then
    kept as a package attribute."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                        name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
