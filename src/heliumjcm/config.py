"""Run configuration: INI-style files with one section per concern.

A config names a task's inputs; the task itself comes from the command
line. Each RunConfig field is the schema row of its key: its metadata
holds the section, the key, the parser and the key's own rule, and its
default is the library's where one exists. validate() reports the values
that fail their own key's rule first, in schema order, then the rules
that join keys or depend on the task. Unknown sections or keys are hard
errors so that typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields as dc_fields

from .coupled import ProductBasis
from .errors import ConfigError
from .materials import (
    EV,
    V_PER_CM,
    FieldConfiguration,
    MaterialProperties,
    material_for,
)
from .spectroscopy import DEFAULT_BAND_GHZ, BroadeningModel
from .vertical import GridSpec

TASKS = ("spectrum-sweep", "absorption-map", "shifts", "crossings",
         "rates", "self-test")


def _float(text: str) -> float:
    """A finite float: nan and inf pass float() but no check after it."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(tok) for tok in text.replace(";", ",").split(",")
                 if tok.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(";", ",").split(",")
                 if tok.strip())


def _pair(text: str) -> tuple[int, int]:
    parts = _ints(text)
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {text!r}")
    return parts


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(_pair(chunk) for chunk in text.split(";") if chunk.strip())


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _key(section: str, key: str, parse, default=None, check=None):
    """A RunConfig field set by `key` in [section], parsed from its text.
    check is the key's own rule, (test, error text): a set value fails it
    when test(value) is false, and the text is formatted with the value."""
    return field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "check": check})


def _at_least(bound, text):
    return (lambda value: value >= bound, text)


_POSITIVE = (lambda value: value > 0.0, "must be positive")
_NON_NEGATIVE = _at_least(0.0, "must be non-negative")
_STEPS = _at_least(2, "need at least 2")
_AXIS = (lambda value: value in ("b_z", "b_y"), "{!r} is not b_z or b_y")


@dataclass
class RunConfig:
    """Flat, resolved view of one run. Every field has a value after
    loading; validate() reports what is inconsistent for the given task."""

    task: str = _key("run", "task", str.strip, "")
    isotope: str = _key("material", "isotope", lambda s: s.strip().lower(),
                        "he3", (lambda value: value in ("he3", "he4"),
                                "{!r} is not he3 or he4"))
    barrier_height_ev: float | None = _key("material", "barrier_height_ev",
                                           _float, check=_POSITIVE)
    surface_tension: float | None = _key("material", "surface_tension",
                                         _float, check=_POSITIVE)
    mass_density: float | None = _key("material", "mass_density", _float,
                                      check=_POSITIVE)
    binding_rydberg_mev: float | None = _key(
        "material", "binding_rydberg_mev", _float, check=_POSITIVE)

    e_perp_v_cm: float | None = _key("fields", "e_perp_v_cm", _float,
                                     check=_NON_NEGATIVE)
    b_z: float = _key("fields", "b_z", _float, 0.0, _NON_NEGATIVE)
    b_y: float = _key("fields", "b_y", _float, 0.0)
    temperature: float = _key("fields", "temperature", _float,
                              FieldConfiguration.temperature, _POSITIVE)

    n_max: int = _key("basis", "n_max", int, ProductBasis.n_max,
                      _at_least(2, "need at least two levels"))
    l_max: int = _key("basis", "l_max", int, ProductBasis.l_max,
                      _at_least(1, "need at least two rungs"))
    z_max: float = _key("grid", "z_max", _float, GridSpec.z_max,
                        (lambda value: value > 10.0,
                         "box must extend past the bound tails"))
    n_points: int = _key("grid", "n_points", int, GridSpec.n_points,
                         _at_least(200, "too coarse to trust"))

    sweep_axis: str = _key("sweep", "axis", str.strip, "b_z", _AXIS)
    sweep_start: float | None = _key("sweep", "start", _float)
    sweep_stop: float | None = _key("sweep", "stop", _float)
    sweep_steps: int = _key("sweep", "steps", int, 61, _STEPS)
    b_y_values: tuple[float, ...] = _key("sweep", "b_y_values", _floats, ())
    l_values: tuple[int, ...] = _key("sweep", "l_values", _ints, (0, 1), (
        lambda value: all(l >= 0 for l in value),
        "Landau indices are non-negative"))

    map_sweep_axis: str = _key("map", "sweep_axis", str.strip, "b_y", _AXIS)
    map_sweep_start: float | None = _key("map", "sweep_start", _float)
    map_sweep_stop: float | None = _key("map", "sweep_stop", _float)
    map_sweep_steps: int = _key("map", "sweep_steps", int, 31, _STEPS)
    map_e_perp_start: float | None = _key("map", "e_perp_start_v_cm", _float)
    map_e_perp_stop: float | None = _key("map", "e_perp_stop_v_cm", _float)
    map_e_perp_steps: int = _key("map", "e_perp_steps", int, 61, _STEPS)
    mw_frequency_ghz: float | None = _key("map", "mw_frequency_ghz", _float,
                                          check=_POSITIVE)
    band_ghz: float = _key("map", "band_ghz", _float, DEFAULT_BAND_GHZ,
                           _POSITIVE)
    l_cut: int | None = _key("map", "l_cut", int)

    base_width_ghz: float = _key("broadening", "base_width_ghz", _float,
                                 BroadeningModel.base_width_ghz, _POSITIVE)
    kappa_ghz_cm_per_v: float = _key("broadening", "kappa_ghz_cm_per_v",
                                     _float,
                                     BroadeningModel.kappa_ghz_cm_per_v)
    areal_density_cm2: float = _key("broadening", "areal_density_cm2", _float,
                                    BroadeningModel.areal_density_cm2,
                                    _NON_NEGATIVE)
    fluct_field_coefficient: float = _key(
        "broadening", "fluct_field_coefficient", _float,
        BroadeningModel.fluct_field_coefficient)
    include_thermal: bool = _key("broadening", "include_thermal", _bool,
                                 BroadeningModel.include_thermal)

    rates_pair: tuple[int, int] = _key("rates", "pair", _pair, (2, 1))
    nu_0: float = _key("rates", "nu_0", _float, 1e6, _NON_NEGATIVE)
    include_occupation: bool = _key("rates", "include_occupation",
                                    _bool, False)

    crossing_pairs: tuple[tuple[int, int], ...] = _key(
        "crossings", "pairs", _pairs, ((2, 1),))
    b_z_min: float = _key("crossings", "b_z_min", _float, 0.05)
    b_z_max: float = _key("crossings", "b_z_max", _float, 5.0)

    out_dir: str | None = _key("output", "out_dir", str.strip)
    prefix: str = _key("output", "prefix", str.strip, "run", (
        lambda value: not {os.sep, os.altsep} & set(value),
        "a file-name prefix, not a path; set directories in output.out_dir"))

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
        """Task-aware consistency check. Returns (errors, warnings): first
        each set value that fails its own key's rule, in schema order, then
        the rules that join keys or depend on the task."""
        errors: list[str] = []
        warnings: list[str] = []

        if self.task not in TASKS:
            errors.append(f"run.task: unknown task {self.task!r}; "
                          f"expected one of {', '.join(TASKS)}")
            return errors, warnings

        for f in dc_fields(self):
            value, check = getattr(self, f.name), f.metadata["check"]
            if check and value is not None and not check[0](value):
                errors.append(f"{f.metadata['section']}.{f.metadata['key']}: "
                              + check[1].format(value))
        if not any(error.startswith("material.") for error in errors):
            # With each material key inside its own rule, the material can
            # fail only on an unphysical binding energy (above 13.6 eV / 16).
            try:
                self.material()
            except ValueError as exc:
                errors.append(f"material.binding_rydberg_mev: {exc}")
        if 4 * self.n_max > self.n_points:
            errors.append(f"grid.n_points: {self.n_points} points cannot "
                          f"hold {self.n_max} levels; need at least "
                          f"{4 * self.n_max}")

        if self.task in ("spectrum-sweep", "shifts", "crossings", "rates") \
                and self.e_perp_v_cm is None:
            errors.append("fields.e_perp_v_cm: required for this task")

        if self.task in ("shifts", "crossings", "absorption-map") \
                and self.n_max < 3:
            errors.append("basis.n_max: interference between levels needs "
                          "n_max >= 3")

        needs_b_z = "fields.b_z: a b_y sweep needs the quantizing field set"
        if self.task == "spectrum-sweep":
            self._check_range("sweep_start", "sweep_stop", errors)
            if self.sweep_axis == "b_z" and self.sweep_start is not None \
                    and self.sweep_start <= 0.0:
                errors.append("sweep.start: b_z must stay positive")
            if self.sweep_axis == "b_y" and self.b_z <= 0.0:
                errors.append(needs_b_z)
            if self.b_y_values and self.sweep_axis != "b_z":
                errors.append("sweep.b_y_values: overlays only make sense "
                              "on a b_z sweep")

        if self.task == "shifts":
            self._check_range("sweep_start", "sweep_stop", errors)
            if self.sweep_axis != "b_y":
                errors.append("sweep.axis: shifts sweep b_y")
            if self.b_z <= 0.0:
                errors.append(needs_b_z)
            if not self.l_values:
                errors.append("sweep.l_values: at least one Landau index")
            if any(l > self.l_max for l in self.l_values):
                errors.append("sweep.l_values: Landau indices must not "
                              "exceed basis.l_max")

        if self.task == "absorption-map":
            self._check_range("map_sweep_start", "map_sweep_stop", errors)
            self._check_range("map_e_perp_start", "map_e_perp_stop", errors,
                              non_negative=True)
            if self.mw_frequency_ghz is None:
                errors.append("map.mw_frequency_ghz: required")
            if self.map_sweep_axis == "b_y" and self.b_z <= 0.0:
                errors.append(needs_b_z)
            if self.map_sweep_axis == "b_z" and self.map_sweep_start is \
                    not None and self.map_sweep_start <= 0.0:
                errors.append("map.sweep_start: b_z must stay positive")
            if self.l_cut is not None and not 0 <= self.l_cut <= self.l_max:
                errors.append("map.l_cut: need 0 <= l_cut <= basis.l_max")

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
                errors.append("crossings.b_z_min/b_z_max: need 0 < min < max")

        if self.task == "rates":
            if self.b_z <= 0.0:
                errors.append("fields.b_z: rates need the quantizing "
                              "field set")
            pair = self.rates_pair
            if min(pair) < 1 or pair[0] == pair[1] or max(pair) > self.n_max:
                errors.append(f"rates.pair: bad pair {pair}")

        for key in self._swept_fields():
            value = getattr(self, key)
            if value != getattr(RunConfig, key):   # the field's default
                errors.append(f"fields.{key}: {value:g} would go unused; "
                              f"{self.task} sets {key} from its sweep")

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

    def _swept_fields(self) -> tuple[str, ...]:
        """The [fields] keys whose value the task replaces by the values it
        sweeps, so that a value set there would never be used."""
        if self.task == "absorption-map":
            swept = ("e_perp_v_cm", self.map_sweep_axis)
        elif self.task == "spectrum-sweep":
            swept = (self.sweep_axis,) + (("b_y",) if self.b_y_values else ())
        else:
            swept = {"shifts": ("b_y",), "crossings": ("b_z",)}.get(
                self.task, ())
        # an axis that names no field is reported where the axis is checked
        return tuple(key for key in swept
                     if key in ("e_perp_v_cm", "b_z", "b_y"))

    def _check_range(self, start, stop, errors, non_negative=False):
        """Check a sweep given the names of its start and stop fields, with
        both ends >= 0 if non_negative; the errors name the keys as the
        schema spells them."""
        keys = {attr: (section, key) for section, key, attr, _ in _KEYS}
        (section, start_key), (_, stop_key) = keys[start], keys[stop]
        span = f"{section}.{start_key}/{stop_key}"
        lo, hi = getattr(self, start), getattr(self, stop)
        if lo is None or hi is None:
            errors.append(f"{span}: required")
            return
        if not lo < hi:
            errors.append(f"{span}: need start < stop")
        if non_negative and min(lo, hi) < 0.0:
            errors.append(f"{span}: must be non-negative")


# (section, key, RunConfig field, parser) of every key, read from the
# fields: the unknown-key check and the parse loop both walk it.
_KEYS = tuple((f.metadata["section"], f.metadata["key"], f.name,
               f.metadata["parse"]) for f in dc_fields(RunConfig))


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
