"""Benchmark workloads: seeded INI configs and the CLI invocations that run them.

A workload is a list of CLI invocations run one after another. Each
invocation carries its config as nested sections, the ``--threads`` value it
is launched with, and the number of field points it asks for (map pixels,
spectrum-sweep (value, b_y) points, shifts rows or crossings pairs).

The seed moves each swept axis's endpoints by at most a quarter of a step, and
point counts never change. An endpoint that sits on a limit stays there: b_y = 0,
and the 0.05 T low-field edge of the fig8 map, whose thermal cut sets most of
that map's work and memory. No endpoint crosses a documented limit (b_z > 0,
the near-resonance guard of the shifts sweep), so every seed stays in the
workload's physical regime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Largest endpoint move, as a fraction of the axis step.
JITTER = 0.25

# Upper end of the fig4 b_y sweep: above about 0.33 T the second-order closed
# form refuses with NearResonance (see configs/fig4.cfg).
SHIFTS_B_Y_CEILING = 0.32


@dataclass(frozen=True)
class Axis:
    """A swept axis with the limits its endpoints may not cross."""

    start: float
    stop: float
    steps: int
    floor: float | None = None
    ceiling: float | None = None

    def jittered(self, rng: random.Random) -> tuple[float, float]:
        """Endpoints moved by the seed; one that sits on its limit stays."""
        reach = JITTER * (self.stop - self.start) / (self.steps - 1)
        start, stop = self.start, self.stop
        if start != self.floor:
            start += rng.uniform(-reach, reach)
        if stop != self.ceiling:
            stop += rng.uniform(-reach, reach)
        if self.floor is not None:
            start = max(start, self.floor)
        if self.ceiling is not None:
            stop = min(stop, self.ceiling)
        return start, stop


@dataclass(frozen=True)
class Invocation:
    """One ``python -m heliumjcm.cli <task> --config ...`` run."""

    task: str
    prefix: str
    sections: dict = field(hash=False)
    threads: int
    points: int

    def ini(self) -> str:
        lines = []
        for section, items in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {_ini_value(value)}"
                         for key, value in items.items())
            lines.append("")
        return "\n".join(lines)

    def basis(self) -> tuple[int, int]:
        b = self.sections["basis"]
        return b["n_max"], b["l_max"]


def _ini_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_ini_value(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object          # (rng, size) -> list[Invocation]

    def invocations(self, seed: int, size: str = "full") -> list[Invocation]:
        """The seeded invocations; size "tiny" shrinks basis and grids."""
        return self.build(random.Random(seed), size)


def _basis(size: str) -> dict:
    return {"n_max": 6, "l_max": 50} if size == "full" else {"n_max": 4, "l_max": 12}


def _map(prefix: str, fields: dict, sweep_axis: str, sweep: Axis, e_perp: Axis,
         mw_ghz: float, density: float, threads: int, size: str,
         rng: random.Random) -> Invocation:
    s0, s1 = sweep.jittered(rng)
    e0, e1 = e_perp.jittered(rng)
    sections = {
        "run": {"task": "absorption-map"},
        "material": {"isotope": "he3"},
        "fields": fields,
        "basis": _basis(size),
        "map": {
            "sweep_axis": sweep_axis,
            "sweep_start": s0, "sweep_stop": s1, "sweep_steps": sweep.steps,
            "e_perp_start_v_cm": e0, "e_perp_stop_v_cm": e1,
            "e_perp_steps": e_perp.steps,
            "mw_frequency_ghz": mw_ghz,
        },
        "broadening": {"base_width_ghz": 0.2, "areal_density_cm2": density},
        "output": {"prefix": prefix},
    }
    return Invocation("absorption-map", prefix, sections, threads,
                      sweep.steps * e_perp.steps)


def _map_coupling(rng: random.Random, size: str) -> list[Invocation]:
    # fig6 regime: b_y sweep at b_z = 0.584 T, 0.33 K, 90 GHz.
    n_by, n_e = (12, 20) if size == "full" else (3, 4)
    return [_map("coupling", {"b_z": 0.584, "temperature": 0.33}, "b_y",
                 Axis(0.0, 0.6, n_by, floor=0.0), Axis(24.0, 34.0, n_e),
                 90.0, 5e6, 2, size, rng)]


def _map_lowfield(rng: random.Random, size: str) -> list[Invocation]:
    # fig8 regime: b_z sweep at b_y = 0.2 T, 0.37 K, 90 GHz, from the 0.05 T
    # edge where the thermal cut nears l_max and labels conflict.
    n_bz, n_e = (15, 20) if size == "full" else (3, 4)
    return [_map("lowfield", {"b_y": 0.2, "temperature": 0.37}, "b_z",
                 Axis(0.05, 1.0, n_bz, floor=0.05), Axis(2.0, 58.0, n_e, floor=0.0),
                 90.0, 1e7, 1, size, rng)]


def _fan(rng: random.Random, size: str) -> list[Invocation]:
    basis = _basis(size)
    fields = {"e_perp_v_cm": 15.0, "temperature": 0.35}
    overlays = (0.0, 0.1, 0.2)

    # fig3 inputs: b_z zoom on the (2,1)/(3,0) crossing, three b_y overlays.
    sweep = Axis(1.0, 1.4, 81 if size == "full" else 5, floor=0.0)
    b0, b1 = sweep.jittered(rng)
    spectrum = Invocation("spectrum-sweep", "fan", {
        "run": {"task": "spectrum-sweep"},
        "material": {"isotope": "he3"},
        "fields": fields,
        "basis": basis,
        "sweep": {"axis": "b_z", "start": b0, "stop": b1, "steps": sweep.steps,
                  "b_y_values": overlays},
        "output": {"prefix": "fan"},
    }, 1, sweep.steps * len(overlays))

    # fig4 inputs: b_y sweep at b_z = 0.65 T, anchored at b_y = 0.
    by = Axis(0.0, 0.3, 31 if size == "full" else 4, floor=0.0,
              ceiling=SHIFTS_B_Y_CEILING)
    y0, y1 = by.jittered(rng)
    l_values = (0, 1)
    shifts = Invocation("shifts", "fan", {
        "run": {"task": "shifts"},
        "material": {"isotope": "he3"},
        "fields": dict(fields, b_z=0.65),
        "basis": basis,
        "sweep": {"axis": "b_y", "start": y0, "stop": y1, "steps": by.steps,
                  "l_values": l_values},
        "output": {"prefix": "fan"},
    }, 1, by.steps * len(l_values))

    # Crossing fields and minimum_gap branch tracking; no swept axis.
    pairs = ((2, 1), (3, 2))
    crossings = Invocation("crossings", "fan", {
        "run": {"task": "crossings"},
        "material": {"isotope": "he3"},
        "fields": dict(fields, b_y=0.1),
        "basis": basis,
        "crossings": {"pairs": "; ".join(f"{a}, {b}" for a, b in pairs)},
        "output": {"prefix": "fan"},
    }, 1, len(pairs))
    return [spectrum, shifts, crossings]


WORKLOADS = {w.name: w for w in (
    Workload("map-coupling",
             "fig6-regime absorption map, b_y swept, --threads 2 with default "
             "BLAS: dense eigh dominates and the thread pool oversubscribes "
             "the cores",
             _map_coupling),
    Workload("map-lowfield",
             "fig8-regime absorption map, b_z swept down to 0.05 T, --threads "
             "1: the thermal cut reaches l_max, so labeling, catalog and "
             "deposit weigh most",
             _map_lowfield),
    Workload("fan",
             "fixed-E_perp tasks at 15 V/cm (fig3 sweep, fig4 shifts, "
             "crossings): no map engine and no pool, a large CSV write and "
             "repeated dense solves",
             _fan),
)}
