"""Run configuration: INI-style files with one section per concern.

A config names a task's inputs; the task itself comes from the command
line. Unknown sections or keys are hard errors so that typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields as dc_fields

from .coupled import ProductBasis
from .errors import ConfigError
from .materials import (
    EV,
    V_PER_CM,
    FieldConfiguration,
    MaterialProperties,
    material_for,
)
from .spectroscopy import BroadeningModel
from .vertical import GridSpec

TASKS = ("spectrum-sweep", "absorption-map", "shifts", "crossings",
         "rates", "self-test")

@dataclass
class RunConfig:
    """Flat, resolved view of one run. Every field has a value after
    loading; validate() reports what is inconsistent for the given task."""

    task: str = ""
    isotope: str = "he3"
    barrier_height_ev: float | None = None
    surface_tension: float | None = None
    mass_density: float | None = None
    binding_rydberg_mev: float | None = None

    e_perp_v_cm: float | None = None
    b_z: float = 0.0
    b_y: float = 0.0
    temperature: float = 0.35

    n_max: int = 6
    l_max: int = 50
    z_max: float = 150.0
    n_points: int = 4000

    sweep_axis: str = "b_z"
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_steps: int = 61
    b_y_values: tuple[float, ...] = ()
    l_values: tuple[int, ...] = (0, 1)

    map_sweep_axis: str = "b_y"
    map_sweep_start: float | None = None
    map_sweep_stop: float | None = None
    map_sweep_steps: int = 31
    map_e_perp_start: float | None = None
    map_e_perp_stop: float | None = None
    map_e_perp_steps: int = 61
    mw_frequency_ghz: float | None = None
    band_ghz: float = 30.0
    l_cut: int | None = None

    base_width_ghz: float = 0.2
    kappa_ghz_cm_per_v: float = 0.74
    areal_density_cm2: float = 1e7
    fluct_field_coefficient: float = 4.3e-6
    include_thermal: bool = True

    rates_pair: tuple[int, int] = (2, 1)
    nu_0: float = 1e6
    include_occupation: bool = False

    crossing_pairs: tuple[tuple[int, int], ...] = ((2, 1),)
    b_z_min: float = 0.05
    b_z_max: float = 5.0

    out_dir: str | None = None
    prefix: str = "run"

    def material(self) -> MaterialProperties:
        kwargs = {}
        if self.barrier_height_ev is not None:
            kwargs["barrier_height"] = self.barrier_height_ev * EV
        if self.surface_tension is not None:
            kwargs["surface_tension"] = self.surface_tension
        if self.mass_density is not None:
            kwargs["mass_density"] = self.mass_density
        if self.binding_rydberg_mev is not None:
            kwargs["rydberg_energy"] = self.binding_rydberg_mev * 1e-3 * EV
        return material_for(self.isotope, **kwargs)

    def field_config(self) -> FieldConfiguration:
        e_perp = 0.0 if self.e_perp_v_cm is None else self.e_perp_v_cm
        return FieldConfiguration(
            e_perp=e_perp * V_PER_CM,
            b_z=self.b_z,
            b_y=self.b_y,
            temperature=self.temperature,
        )

    def basis(self) -> ProductBasis:
        return ProductBasis(n_max=self.n_max, l_max=self.l_max)

    def grid(self) -> GridSpec:
        return GridSpec(z_max=self.z_max, n_points=self.n_points)

    def broadening(self) -> BroadeningModel:
        return BroadeningModel(
            base_width_ghz=self.base_width_ghz,
            kappa_ghz_cm_per_v=self.kappa_ghz_cm_per_v,
            areal_density_cm2=self.areal_density_cm2,
            fluct_field_coefficient=self.fluct_field_coefficient,
            include_thermal=self.include_thermal,
        )

    def resolved_items(self) -> list[tuple[str, object]]:
        """Every field as (name, value), for the defaults table and the
        provenance sidecar."""
        return [(f.name, getattr(self, f.name)) for f in dc_fields(self)]

    def validate(self) -> tuple[list[str], list[str]]:
        """Task-aware consistency check. Returns (errors, warnings)."""
        errors: list[str] = []
        warnings: list[str] = []

        if self.task not in TASKS:
            errors.append(f"run.task: unknown task {self.task!r}; "
                          f"expected one of {', '.join(TASKS)}")
            return errors, warnings

        if self.isotope not in ("he3", "he4"):
            errors.append(f"material.isotope: {self.isotope!r} is not he3 "
                          "or he4")
        if self.temperature <= 0.0:
            errors.append("fields.temperature: must be positive")
        if self.n_max < 2:
            errors.append("basis.n_max: need at least two levels")
        if self.l_max < 1:
            errors.append("basis.l_max: need at least two rungs")
        if self.n_points < 200:
            errors.append("grid.n_points: too coarse to trust")
        if self.z_max <= 10.0:
            errors.append("grid.z_max: box must extend past the bound tails")
        if any(sep and sep in self.prefix for sep in (os.sep, os.altsep)):
            errors.append("output.prefix: a file-name prefix, not a path; "
                          "set directories in output.out_dir")

        needs_e_perp = self.task in ("spectrum-sweep", "shifts",
                                     "crossings", "rates")
        if needs_e_perp and self.e_perp_v_cm is None:
            errors.append("fields.e_perp_v_cm: required for this task")
        if self.e_perp_v_cm is not None and self.e_perp_v_cm < 0.0:
            errors.append("fields.e_perp_v_cm: must be non-negative")

        if self.task in ("shifts", "crossings", "absorption-map") \
                and self.n_max < 3:
            errors.append("basis.n_max: interference between levels needs "
                          "n_max >= 3")

        if self.task == "spectrum-sweep":
            self._check_range("sweep", self.sweep_start, self.sweep_stop,
                              self.sweep_steps, errors)
            if self.sweep_axis not in ("b_z", "b_y"):
                errors.append(f"sweep.axis: {self.sweep_axis!r} is not b_z "
                              "or b_y")
            if self.sweep_axis == "b_z" and self.sweep_start is not None \
                    and self.sweep_start <= 0.0:
                errors.append("sweep.start: b_z must stay positive")
            if self.sweep_axis == "b_y" and self.b_z <= 0.0:
                errors.append("fields.b_z: a b_y sweep needs the "
                              "quantizing field set")
            if self.b_y_values and self.sweep_axis != "b_z":
                errors.append("sweep.b_y_values: overlays only make sense "
                              "on a b_z sweep")

        if self.task == "shifts":
            self._check_range("sweep", self.sweep_start, self.sweep_stop,
                              self.sweep_steps, errors)
            if self.sweep_axis != "b_y":
                errors.append("sweep.axis: shifts sweep b_y")
            if self.b_z <= 0.0:
                errors.append("fields.b_z: a b_y sweep needs the "
                              "quantizing field set")
            if any(l < 0 for l in self.l_values):
                errors.append("sweep.l_values: Landau indices are "
                              "non-negative")
            if any(l > self.l_max for l in self.l_values):
                errors.append("sweep.l_values: Landau indices must not "
                              "exceed basis.l_max")

        if self.task == "absorption-map":
            if self.map_sweep_axis not in ("b_z", "b_y"):
                errors.append(f"map.sweep_axis: {self.map_sweep_axis!r} is "
                              "not b_z or b_y")
            self._check_range("map.sweep", self.map_sweep_start,
                              self.map_sweep_stop, self.map_sweep_steps,
                              errors)
            self._check_range("map.e_perp", self.map_e_perp_start,
                              self.map_e_perp_stop, self.map_e_perp_steps,
                              errors)
            if self.mw_frequency_ghz is None:
                errors.append("map.mw_frequency_ghz: required")
            elif self.mw_frequency_ghz <= 0.0:
                errors.append("map.mw_frequency_ghz: must be positive")
            if self.map_sweep_axis == "b_y" and self.b_z <= 0.0:
                errors.append("fields.b_z: a b_y sweep needs the "
                              "quantizing field set")
            if self.map_sweep_axis == "b_z" and self.map_sweep_start is \
                    not None and self.map_sweep_start <= 0.0:
                errors.append("map.sweep_start: b_z must stay positive")
            if not self.band_ghz > 0.0:
                errors.append("map.band_ghz: must be positive")
            if self.l_cut is not None and not 0 <= self.l_cut <= self.l_max:
                errors.append("map.l_cut: need 0 <= l_cut <= basis.l_max")
            if not self.base_width_ghz > 0.0:
                errors.append("broadening.base_width_ghz: must be positive")

        if self.task == "crossings":
            if not self.crossing_pairs:
                errors.append("crossings.pairs: at least one pair")
            for pair in self.crossing_pairs:
                if min(pair) < 1 or pair[0] == pair[1]:
                    errors.append(f"crossings.pairs: bad pair {pair}")
                if max(pair) > self.n_max:
                    errors.append(f"crossings.pairs: pair {pair} exceeds "
                                  "basis.n_max")
            if not 0.0 < self.b_z_min < self.b_z_max:
                errors.append("crossings.b_z_min/b_z_max: need "
                              "0 < min < max")

        if self.task == "rates":
            if self.b_z <= 0.0:
                errors.append("fields.b_z: rates need the quantizing "
                              "field set")
            if self.nu_0 < 0.0:
                errors.append("rates.nu_0: must be non-negative")
            pair = self.rates_pair
            if min(pair) < 1 or pair[0] == pair[1] or max(pair) > self.n_max:
                errors.append(f"rates.pair: bad pair {pair}")

        # Convergence advisories, not errors.
        b_y_reach = max([abs(self.b_y)] + [abs(v) for v in self.b_y_values]
                        + [abs(x) for x in (self.sweep_start,
                                            self.sweep_stop)
                           if x is not None and self.task in
                           ("spectrum-sweep", "shifts")
                           and self.sweep_axis == "b_y"]
                        + [abs(x) for x in (self.map_sweep_start,
                                            self.map_sweep_stop)
                           if x is not None and self.task == "absorption-map"
                           and self.map_sweep_axis == "b_y"])
        if self.l_max <= 10 and b_y_reach >= 1.0:
            warnings.append(
                f"basis.l_max = {self.l_max} with b_y reaching "
                f"{b_y_reach:g} T: the ladder is too short for the "
                "admixture this coupling drives; expect truncation error"
            )
        if self.n_max > 12:
            warnings.append("basis.n_max: high levels are loosely bound; "
                            "consider a larger grid.z_max")
        return errors, warnings

    @staticmethod
    def _check_range(name, start, stop, steps, errors):
        if start is None or stop is None:
            errors.append(f"{name}.start/stop: required")
            return
        if not start < stop:
            errors.append(f"{name}.start/stop: need start < stop")
        if steps < 2:
            errors.append(f"{name}.steps: need at least 2")


def _parse_float(text: str) -> float:
    """A finite float: nan and inf pass float() but no check after it."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in text.replace(";", ",").split(",")
                 if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(";", ",").split(",")
                 if tok.strip())


def _parse_pair(text: str) -> tuple[int, int]:
    parts = _parse_ints(text)
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {text!r}")
    return parts[0], parts[1]


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(";"):
        if chunk.strip():
            pairs.append(_parse_pair(chunk))
    return tuple(pairs)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# One row per config key: (section, key, RunConfig field, parser). The
# unknown-key check and the parse loop both read this table.
_KEYS = (
    ("run", "task", "task", str.strip),
    ("material", "isotope", "isotope", lambda s: s.strip().lower()),
    ("material", "barrier_height_ev", "barrier_height_ev", _parse_float),
    ("material", "surface_tension", "surface_tension", _parse_float),
    ("material", "mass_density", "mass_density", _parse_float),
    ("material", "binding_rydberg_mev", "binding_rydberg_mev", _parse_float),
    ("fields", "e_perp_v_cm", "e_perp_v_cm", _parse_float),
    ("fields", "b_z", "b_z", _parse_float),
    ("fields", "b_y", "b_y", _parse_float),
    ("fields", "temperature", "temperature", _parse_float),
    ("basis", "n_max", "n_max", int),
    ("basis", "l_max", "l_max", int),
    ("grid", "z_max", "z_max", _parse_float),
    ("grid", "n_points", "n_points", int),
    ("sweep", "axis", "sweep_axis", str.strip),
    ("sweep", "start", "sweep_start", _parse_float),
    ("sweep", "stop", "sweep_stop", _parse_float),
    ("sweep", "steps", "sweep_steps", int),
    ("sweep", "b_y_values", "b_y_values", _parse_floats),
    ("sweep", "l_values", "l_values", _parse_ints),
    ("map", "sweep_axis", "map_sweep_axis", str.strip),
    ("map", "sweep_start", "map_sweep_start", _parse_float),
    ("map", "sweep_stop", "map_sweep_stop", _parse_float),
    ("map", "sweep_steps", "map_sweep_steps", int),
    ("map", "e_perp_start_v_cm", "map_e_perp_start", _parse_float),
    ("map", "e_perp_stop_v_cm", "map_e_perp_stop", _parse_float),
    ("map", "e_perp_steps", "map_e_perp_steps", int),
    ("map", "mw_frequency_ghz", "mw_frequency_ghz", _parse_float),
    ("map", "band_ghz", "band_ghz", _parse_float),
    ("map", "l_cut", "l_cut", int),
    ("broadening", "base_width_ghz", "base_width_ghz", _parse_float),
    ("broadening", "kappa_ghz_cm_per_v", "kappa_ghz_cm_per_v", _parse_float),
    ("broadening", "areal_density_cm2", "areal_density_cm2", _parse_float),
    ("broadening", "fluct_field_coefficient", "fluct_field_coefficient",
     _parse_float),
    ("broadening", "include_thermal", "include_thermal", _parse_bool),
    ("rates", "pair", "rates_pair", _parse_pair),
    ("rates", "nu_0", "nu_0", _parse_float),
    ("rates", "include_occupation", "include_occupation", _parse_bool),
    ("crossings", "pairs", "crossing_pairs", _parse_pairs),
    ("crossings", "b_z_min", "b_z_min", _parse_float),
    ("crossings", "b_z_max", "b_z_max", _parse_float),
    ("output", "out_dir", "out_dir", str.strip),
    ("output", "prefix", "prefix", str.strip),
)


def load_run_config(path: str, task: str | None = None) -> RunConfig:
    """Read an INI file into a RunConfig.

    task, when given (by the CLI subcommand), overrides or must agree with
    any run.task key in the file. Values are literal (no % interpolation).
    Raises ConfigError on a malformed file (repeated key or section, no
    section header, undecodable bytes), unknown sections (including
    [DEFAULT]) or keys, unparsable values, or a task mismatch.
    """
    # "#" only: an inline ";" would cut a ";"-separated list short; a default
    # section no header can spell makes [DEFAULT] an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    known = {(section, key) for section, key, _, _ in _KEYS}
    sections = {section for section, _ in known}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]")

    cfg = RunConfig()
    for section, key, attr, parse in _KEYS:
        if parser.has_option(section, key):
            try:
                value = parse(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for {section}.{key}: {exc}"
                ) from exc
            setattr(cfg, attr, value)

    if task is not None:
        if cfg.task and cfg.task != task:
            raise ConfigError(
                f"{path}: run.task = {cfg.task!r} but the command line "
                f"asked for {task!r}")
        cfg.task = task
    return cfg
