"""Command-line interface: config loading, validation, artifact layout,
exit codes, and byte-level determinism."""

import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heliumjcm
from heliumjcm import (
    HamiltonianBlocks,
    RipplonBath,
    cli,
    cyclotron_frequency,
    full_transition_shift_ghz,
    resonant_wavenumber,
    solve_vertical,
    vertical,
)
from heliumjcm.config import TASKS, RunConfig, load_run_config
from heliumjcm.coupled import ProductBasis
from heliumjcm.errors import ConfigError
from heliumjcm.materials import GHZ, HBAR, FieldConfiguration
from heliumjcm.spectroscopy import BroadeningModel, absorption_map
from heliumjcm.vertical import GridSpec, _single_threaded_blas

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = CONFIG_DIR.parent / "perfbench"

SHIFTS_CFG = """
[run]
task = shifts
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
b_z = 0.65
[basis]
n_max = 6
l_max = 20
[grid]
n_points = 2000
[sweep]
axis = b_y
start = 0.0
stop = 0.2
steps = 3
l_values = 0, 1
[output]
prefix = t
"""

MAP_CFG = """
[run]
task = absorption-map
[material]
isotope = he3
[fields]
b_z = 0.584
temperature = 0.33
[basis]
n_max = 4
l_max = 8
[grid]
n_points = 1000
z_max = 120
[map]
sweep_axis = b_y
sweep_start = 0.0
sweep_stop = 0.1
sweep_steps = 2
e_perp_start_v_cm = 28.0
e_perp_stop_v_cm = 30.0
e_perp_steps = 3
mw_frequency_ghz = 90.0
l_cut = 5
[output]
prefix = t
"""


CROSSINGS_CFG = """
[run]
task = crossings
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
b_y = 0.1
[basis]
n_max = 6
l_max = 10
[grid]
n_points = 2000
[crossings]
pairs = 2,1
b_z_min = 0.5
b_z_max = 5.0
[output]
prefix = t
"""

SMALL_SWEEP_CFG = """
[run]
task = spectrum-sweep
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
[basis]
n_max = 4
l_max = 6
[grid]
n_points = 1500
[sweep]
axis = b_z
start = 0.5
stop = 1.5
steps = 3
b_y_values = 0.0, 0.1
[output]
prefix = t
"""

RATES_CFG = """
[run]
task = rates
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
b_z = 2.8306
b_y = 1.5
temperature = 1.0
[rates]
pair = 2,1
nu_0 = 1e6
include_occupation = {occupation}
[output]
prefix = t
"""

# fig3-like zoom at the full basis, large enough for BLAS threading to move
# the last printed digit of some dominant weight when it is not pinned
SWEEP_CFG = """
[run]
task = spectrum-sweep
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
[basis]
n_max = 6
l_max = 50
[grid]
n_points = 2000
[sweep]
axis = b_z
start = 1.0
stop = 1.4
steps = 9
b_y_values = 0.0, 0.2
[output]
prefix = t
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_python(args, blas=None):
    """A fresh interpreter on the source tree with args, no *_NUM_THREADS in
    its environment, or OPENBLAS_NUM_THREADS=blas."""
    src = os.path.dirname(os.path.dirname(heliumjcm.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def test_committed_configs_validate(capsys):
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(configs) == 7
    for path in configs:
        assert cli.main(["validate", "--config", str(path)]) == 0, path
        out = capsys.readouterr().out
        assert out.startswith("ok:")


def test_committed_and_benchmark_configs_validate(tmp_path, capsys,
                                                  monkeypatch):
    # a stricter key rule must not break a benchmark child unnoticed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    paths.append(CONFIG_DIR.parent / "scripts" / "crossings.cfg")
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(10):
            for size in ("full", "tiny"):
                for i, inv in enumerate(workload.invocations(seed, size)):
                    path = tmp_path / f"{name}-{seed}-{size}-{i}.cfg"
                    path.write_text(inv.ini())
                    paths.append(path)
    for path in paths:
        assert cli.main(["validate", "--config", str(path)]) == 0, path
        assert capsys.readouterr().err == "", path


def test_each_field_is_the_schema_row_of_one_key():
    # validate names keys from this schema, and the loader reads it
    rows = [(f.metadata.get("section"), f.metadata.get("key"),
             f.metadata.get("parse")) for f in dataclasses.fields(RunConfig)]
    for section, key, parse in rows:
        assert section and key and callable(parse), (section, key)
    assert len({(section, key) for section, key, _ in rows}) == len(rows)

    # each key's own rule is (test, error text), and the default passes it:
    # a default that failed its own rule would reject every config
    for f in dataclasses.fields(RunConfig):
        check = f.metadata["check"]
        if check is None:
            continue
        test, text = check
        assert callable(test) and isinstance(text, str), f.name
        assert f.default is None or test(f.default), f.name

    default = RunConfig()
    assert default.basis() == ProductBasis()
    assert default.grid() == GridSpec()
    assert default.broadening() == BroadeningModel()
    assert default.temperature == FieldConfiguration(0.0, 0.0).temperature
    assert default.band_ghz == \
        inspect.signature(absorption_map).parameters["band_ghz"].default


def test_subcommands_are_the_task_table():
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._TASKS)
    assert set(TASKS) <= set(sub.choices)


CSV_TASKS = {
    "spectrum-sweep": (SMALL_SWEEP_CFG, "t_spectrum"),
    "shifts": (SHIFTS_CFG, "t_shifts"),
    "crossings": (CROSSINGS_CFG, "t_crossings"),
    "absorption-map": (MAP_CFG, "t_map"),
}


@pytest.mark.parametrize("task", list(CSV_TASKS))
def test_csv_task_prints_one_summary_line(tmp_path, capsys, task):
    text, stem = CSV_TASKS[task]
    path = _write(tmp_path, text)
    out_dir = tmp_path / "o"
    assert cli.main([task, "--config", path, "--out", str(out_dir)]) == 0
    csv_path = out_dir / f"{stem}.csv"
    rows = len(csv_path.read_text().splitlines()) - 1
    assert rows > 0
    assert capsys.readouterr().out == \
        f"wrote {csv_path} ({rows} rows, 0 failed)\n"


B_Y_SWEEP_WITHOUT_B_Z_CFG = """
[run]
task = spectrum-sweep
[fields]
e_perp_v_cm = 15.0
[sweep]
axis = b_y
start = 0.0
stop = 0.5
steps = 11
"""


@pytest.mark.parametrize("text, key", [
    (B_Y_SWEEP_WITHOUT_B_Z_CFG, "fields.b_z"),
    (MAP_CFG.replace("l_cut = 5", "l_cut = -1"), "map.l_cut"),
    (MAP_CFG.replace("l_cut = 5", "l_cut = 9"), "map.l_cut"),
    (MAP_CFG.replace("l_cut = 5", "l_cut = 5\nband_ghz = 0"), "map.band_ghz"),
    (MAP_CFG.replace("[output]", "[broadening]\nbase_width_ghz = 0\n[output]"),
     "broadening.base_width_ghz"),
    (SHIFTS_CFG.replace("l_values = 0, 1", "l_values = 0, 21"),
     "sweep.l_values"),
    (SHIFTS_CFG.replace("prefix = t", "prefix = a/b"), "output.prefix"),
    (MAP_CFG.replace("sweep_start = 0.0\nsweep_stop = 0.1\n", ""),
     "map.sweep_start/sweep_stop"),
    (MAP_CFG.replace("e_perp_start_v_cm = 28.0\ne_perp_stop_v_cm = 30.0\n",
                     ""),
     "map.e_perp_start_v_cm/e_perp_stop_v_cm"),
    (MAP_CFG.replace("e_perp_start_v_cm = 28.0", "e_perp_start_v_cm = -5"),
     "map.e_perp_start_v_cm/e_perp_stop_v_cm"),
    (MAP_CFG.replace("sweep_steps = 2", "sweep_steps = 1"), "map.sweep_steps"),
    (MAP_CFG.replace("e_perp_steps = 3", "e_perp_steps = 1"),
     "map.e_perp_steps"),
    (CROSSINGS_CFG.replace("b_y = 0.1", "b_y = 0.1\nb_z = -1"), "fields.b_z"),
    (SMALL_SWEEP_CFG.replace("e_perp_v_cm = 15.0",
                             "e_perp_v_cm = 15.0\nb_z = -1"), "fields.b_z"),
    (RATES_CFG.format(occupation="false").replace(
        "isotope = he3", "isotope = he3\nsurface_tension = -1"),
     "material.surface_tension"),
    (RATES_CFG.format(occupation="false").replace(
        "isotope = he3", "isotope = he3\nmass_density = 0"),
     "material.mass_density"),
    (RATES_CFG.format(occupation="false").replace(
        "isotope = he3", "isotope = he3\nbarrier_height_ev = 0"),
     "material.barrier_height_ev"),
    (RATES_CFG.format(occupation="false").replace(
        "isotope = he3", "isotope = he3\nbinding_rydberg_mev = -0.3"),
     "material.binding_rydberg_mev"),
    (MAP_CFG.replace("[output]",
                     "[broadening]\nareal_density_cm2 = -5e6\n[output]"),
     "broadening.areal_density_cm2"),
    # above 13.6 eV / 16 the image-charge strength it calibrates is unphysical
    (RATES_CFG.format(occupation="false").replace(
        "isotope = he3", "isotope = he3\nbinding_rydberg_mev = 1000"),
     "material.binding_rydberg_mev"),
    # a [fields] value the task replaces by the values it sweeps
    (MAP_CFG.replace("b_z = 0.584", "b_z = 0.584\ne_perp_v_cm = 99"),
     "fields.e_perp_v_cm"),
    (MAP_CFG.replace("b_z = 0.584", "b_z = 0.584\nb_y = 0.3"), "fields.b_y"),
    (SMALL_SWEEP_CFG.replace("e_perp_v_cm = 15.0",
                             "e_perp_v_cm = 15.0\nb_z = 0.65"), "fields.b_z"),
    (SMALL_SWEEP_CFG.replace("e_perp_v_cm = 15.0",
                             "e_perp_v_cm = 15.0\nb_y = 0.3"), "fields.b_y"),
    (B_Y_SWEEP_WITHOUT_B_Z_CFG.replace(
        "e_perp_v_cm = 15.0", "e_perp_v_cm = 15.0\nb_z = 0.65\nb_y = 0.3"),
     "fields.b_y"),
    (SHIFTS_CFG.replace("b_z = 0.65", "b_z = 0.65\nb_y = 0.1"), "fields.b_y"),
    (CROSSINGS_CFG.replace("b_y = 0.1", "b_y = 0.1\nb_z = 1.0"),
     "fields.b_z"),
    (SHIFTS_CFG.replace("l_values = 0, 1", "l_values ="), "sweep.l_values"),
    # a key's own rule holds under every task, also where the task ignores it
    (SMALL_SWEEP_CFG.replace("[output]", "[map]\nband_ghz = 0\n[output]"),
     "map.band_ghz"),
    (MAP_CFG.replace("[output]", "[rates]\nnu_0 = -1\n[output]"),
     "rates.nu_0"),
    (CROSSINGS_CFG.replace("[output]", "[sweep]\nsteps = 1\n[output]"),
     "sweep.steps"),
], ids=["b_y-sweep-without-b_z", "l_cut-negative", "l_cut-above-l_max",
        "band_ghz-zero", "base_width-zero", "l_values-above-l_max",
        "prefix-with-separator", "map-without-sweep-range",
        "map-without-e_perp-range", "map-negative-e_perp",
        "map-sweep-steps-one", "map-e_perp-steps-one",
        "crossings-negative-b_z", "sweep-negative-b_z",
        "rates-negative-surface_tension", "rates-zero-mass_density",
        "rates-zero-barrier_height", "rates-negative-binding_rydberg",
        "map-negative-areal_density", "rates-unphysical-binding_rydberg",
        "map-sets-e_perp", "map-sets-swept-b_y", "sweep-sets-swept-b_z",
        "sweep-sets-overlaid-b_y", "sweep-sets-swept-b_y", "shifts-sets-b_y",
        "crossings-sets-b_z", "shifts-empty-l_values", "sweep-zero-band_ghz",
        "map-negative-nu_0", "crossings-sweep-steps-one"])
def test_validate_reports_errors(tmp_path, capsys, text, key):
    bad = _write(tmp_path, text)
    assert cli.main(["validate", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert f"error: {key}:" in err


# One broken config per task, and every error validate prints for it, in
# order (one-key rules in schema order, then the rules that join keys): the
# messages are part of the command line's interface.
BROKEN_CFGS = {
    "spectrum-sweep": ("""
[run]
task = spectrum-sweep
[material]
isotope = he5
[fields]
e_perp_v_cm = -2.0
temperature = -1.0
[basis]
n_max = 1
l_max = 0
[grid]
z_max = 5.0
n_points = 100
[sweep]
axis = b_x
start = 0.5
stop = 0.2
steps = 1
b_y_values = 0.1
[output]
prefix = a/b
""", """\
material.isotope: 'he5' is not he3 or he4
fields.e_perp_v_cm: must be non-negative
fields.temperature: must be positive
basis.n_max: need at least two levels
basis.l_max: need at least two rungs
grid.z_max: box must extend past the bound tails
grid.n_points: too coarse to trust
sweep.axis: 'b_x' is not b_z or b_y
sweep.steps: need at least 2
output.prefix: a file-name prefix, not a path; set directories in output.out_dir
sweep.start/stop: need start < stop
sweep.b_y_values: overlays only make sense on a b_z sweep
"""),
    "absorption-map": ("""
[run]
task = absorption-map
[basis]
n_max = 2
l_max = 8
[map]
sweep_axis = b_x
sweep_start = 0.5
sweep_stop = 0.2
sweep_steps = 1
mw_frequency_ghz = -90.0
band_ghz = 0.0
l_cut = 9
[broadening]
base_width_ghz = 0.0
""", """\
map.sweep_axis: 'b_x' is not b_z or b_y
map.sweep_steps: need at least 2
map.mw_frequency_ghz: must be positive
map.band_ghz: must be positive
broadening.base_width_ghz: must be positive
basis.n_max: interference between levels needs n_max >= 3
map.sweep_start/sweep_stop: need start < stop
map.e_perp_start_v_cm/e_perp_stop_v_cm: required
map.l_cut: need 0 <= l_cut <= basis.l_max
"""),
    "shifts": ("""
[run]
task = shifts
[fields]
e_perp_v_cm = 15.0
[basis]
n_max = 2
l_max = 20
[sweep]
axis = b_z
l_values = -1, 21
""", """\
sweep.l_values: Landau indices are non-negative
basis.n_max: interference between levels needs n_max >= 3
sweep.start/stop: required
sweep.axis: shifts sweep b_y
fields.b_z: a b_y sweep needs the quantizing field set
sweep.l_values: Landau indices must not exceed basis.l_max
"""),
    "crossings": ("""
[run]
task = crossings
[basis]
n_max = 3
[crossings]
pairs = 1,1; 9,1
b_z_min = 5.0
b_z_max = 1.0
""", """\
fields.e_perp_v_cm: required for this task
crossings.pairs: bad pair (1, 1)
crossings.pairs: pair (9, 1) exceeds basis.n_max
crossings.b_z_min/b_z_max: need 0 < min < max
"""),
    "rates": ("""
[run]
task = rates
[fields]
e_perp_v_cm = 15.0
[rates]
pair = 1, 1
nu_0 = -1.0
""", """\
rates.nu_0: must be non-negative
fields.b_z: rates need the quantizing field set
rates.pair: bad pair (1, 1)
"""),
    "self-test": ("""
[run]
task = self-test
[fields]
temperature = 0.0
""", """\
fields.temperature: must be positive
"""),
}


@pytest.mark.parametrize("task", TASKS)
def test_validate_error_text(tmp_path, capsys, task):
    text, errors = BROKEN_CFGS[task]
    bad = _write(tmp_path, text)
    assert cli.main(["validate", "--config", bad]) == 2
    assert capsys.readouterr().err == "".join(
        f"error: {line}\n" for line in errors.splitlines())


def test_validate_unknown_key(tmp_path, capsys):
    bad = _write(tmp_path, "[fields]\nb_x = 1.0\n")
    assert cli.main(["validate", "--config", bad]) == 2
    assert "b_x" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_run_config(bad)


def test_validate_warns_on_short_ladder(tmp_path, capsys):
    cfg = _write(tmp_path, """
[run]
task = spectrum-sweep
[fields]
e_perp_v_cm = 15.0
b_z = 0.65
[basis]
l_max = 8
[sweep]
axis = b_y
start = 0.0
stop = 1.2
steps = 5
""")
    assert cli.main(["validate", "--config", cfg]) == 0
    assert "warning:" in capsys.readouterr().out


def test_task_mismatch_rejected(tmp_path, capsys):
    path = _write(tmp_path, SHIFTS_CFG)
    assert cli.main(["crossings", "--config", path]) == 2
    assert "task" in capsys.readouterr().err


def test_self_test_passes(capsys):
    assert cli.main(["self-test"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "[FAIL]" not in out


def test_shifts_run_deterministic(tmp_path):
    path = _write(tmp_path, SHIFTS_CFG)
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert cli.main(["shifts", "--config", path,
                         "--out", str(out_dir)]) == 0
        outs.append((
            (out_dir / "t_shifts.csv").read_bytes(),
            (out_dir / "t_shifts.json").read_bytes(),
        ))
    assert outs[0] == outs[1]
    text = outs[0][0].decode()
    assert text.splitlines()[0] == "b_y,l,perturbative_ghz,full_ghz"
    assert "\r" not in text
    assert ",-0," not in text and not text.endswith("-0")
    # b_y = 0 rows pin both routes to zero
    first = text.splitlines()[1].split(",")
    assert first[2] == "0" and first[3] == "0"


def test_shifts_near_resonance_exit_code(tmp_path, capsys):
    cfg = SHIFTS_CFG.replace("stop = 0.2", "stop = 0.4")
    path = _write(tmp_path, cfg, "guard.cfg")
    out_dir = tmp_path / "g"
    assert cli.main(["shifts", "--config", path,
                     "--out", str(out_dir)]) == 3
    body = json.loads((out_dir / "t_shifts.json").read_text())
    assert body["failures"]
    assert "NearResonance" in body["failures"][0]["error"]
    csv_text = (out_dir / "t_shifts.csv").read_text()
    assert "nan" in csv_text
    rows, failed = len(csv_text.splitlines()) - 1, len(body["failures"])
    assert capsys.readouterr().out == \
        f"wrote {out_dir / 't_shifts.csv'} ({rows} rows, {failed} failed)\n"


def test_spectrum_sweep_artifacts(tmp_path):
    path = _write(tmp_path, SMALL_SWEEP_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["spectrum-sweep", "--config", path,
                     "--out", str(out_dir)]) == 0
    lines = (out_dir / "t_spectrum.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["sweep_value", "b_y", "state"]
    # 3 sweep points x 2 overlays x 28 states
    assert len(lines) == 1 + 3 * 2 * 28
    body = json.loads((out_dir / "t_spectrum.json").read_text())
    assert body["overlay_b_y"] == [0.0, 0.1]
    assert len(body["vertical_levels_ghz"]) == 4
    assert body["task"] == "spectrum-sweep"
    assert "constants" in body and "material" in body


def test_crossings_artifacts(tmp_path):
    path = _write(tmp_path, CROSSINGS_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["crossings", "--config", path,
                     "--out", str(out_dir)]) == 0
    lines = (out_dir / "t_crossings.csv").read_text().splitlines()
    assert lines[0] == "n_upper,n_lower,b_z_cross_t,b_z_min_gap_t,gap_ghz"
    row = lines[1].split(",")
    assert row[0] == "2" and row[1] == "1"
    assert float(row[2]) == pytest.approx(2.8306, abs=5e-3)
    assert float(row[4]) > 0.0


def test_crossings_gap_is_even_in_b_y(tmp_path):
    rows = {}
    for b_y in ("0.1", "-0.1"):
        path = _write(tmp_path, CROSSINGS_CFG.replace("b_y = 0.1",
                                                      f"b_y = {b_y}"))
        out_dir = tmp_path / b_y
        assert cli.main(["crossings", "--config", path,
                         "--out", str(out_dir)]) == 0
        lines = (out_dir / "t_crossings.csv").read_text().splitlines()
        rows[b_y] = lines[1].split(",")
    plus, minus = rows["0.1"], rows["-0.1"]
    assert minus[:4] == plus[:4]     # pair, crossing and minimum-gap fields
    assert float(minus[4]) == pytest.approx(float(plus[4]), rel=1e-9)


def test_rates_artifacts(tmp_path):
    path = _write(tmp_path, """
[run]
task = rates
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
b_z = 2.8306
b_y = 1.5
[rates]
pair = 2,1
nu_0 = 1e6
[output]
prefix = t
""")
    out_dir = tmp_path / "o"
    assert cli.main(["rates", "--config", path, "--out", str(out_dir)]) == 0
    body = json.loads((out_dir / "t_rates.json").read_text())
    report = body["report"]
    assert report["g_over_h_ghz"] == pytest.approx(12.218, abs=0.01)
    assert report["coherence_ratio"] > 1e4
    assert report["rate_ladder_per_s"] > report["rate_vertical_per_s"]


def test_rates_include_occupation(tmp_path):
    reports = {}
    for flag in ("false", "true"):
        path = _write(tmp_path, RATES_CFG.format(occupation=flag),
                      f"{flag}.cfg")
        out_dir = tmp_path / flag
        assert cli.main(["rates", "--config", path,
                         "--out", str(out_dir)]) == 0
        body = json.loads((out_dir / "t_rates.json").read_text())
        reports[flag] = body["report"]

    cfg = load_run_config(path)
    vs = solve_vertical(cfg.material(), cfg.field_config().e_perp,
                        max(cfg.n_max, 2), cfg.grid())
    bath = RipplonBath.from_material(vs.material, 1.0)
    quantum = HBAR * cyclotron_frequency(2.8306)

    def factor(delta_e):
        omega = bath.omega(resonant_wavenumber(bath, delta_e))
        return (1.0 + bath.occupation(omega)) ** 2

    vertical = factor(vs.energy(2) - vs.energy(1))
    ladder = factor(quantum)
    assert vertical > 1.01 and ladder > 1.01
    off, on = reports["false"], reports["true"]
    assert on["rate_vertical_per_s"] / off["rate_vertical_per_s"] == \
        pytest.approx(vertical, rel=1e-12)
    assert on["rate_ladder_per_s"] / off["rate_ladder_per_s"] == \
        pytest.approx(ladder, rel=1e-12)
    assert on["g_over_h_ghz"] == off["g_over_h_ghz"]
    assert on["elastic_rate_per_s"] == off["elastic_rate_per_s"]


def test_computing_task_warns_on_stderr(tmp_path, capsys):
    path = _write(tmp_path, RATES_CFG.format(occupation="false")
                  + "[basis]\nl_max = 8\n")
    assert cli.main(["rates", "--config", path,
                     "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "warning: basis.l_max = 8" in captured.err
    assert "warning" not in captured.out


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    path = _write(tmp_path, MAP_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["absorption-map", "--config", path,
                     "--out", str(out_dir), "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_absorption_map_bytes_independent_of_threads_and_blas(tmp_path):
    # full basis, so the dense solves are large enough for BLAS threading
    path = _write(tmp_path, MAP_CFG.replace("n_max = 4", "n_max = 6")
                  .replace("l_max = 8", "l_max = 50")
                  .replace("sweep_steps = 2", "sweep_steps = 3")
                  .replace("e_perp_steps = 3", "e_perp_steps = 4"))
    blobs = {}
    for threads in ("1", "2"):
        for blas in (None, "1"):
            out_dir = tmp_path / f"t{threads}-b{blas}"
            _run_python(["-m", "heliumjcm.cli", "absorption-map",
                         "--config", path, "--out", str(out_dir),
                         "--threads", threads], blas)
            blobs[(threads, blas)] = tuple(
                (out_dir / name).read_bytes()
                for name in ("t_map.csv", "t_map.json", "t_lines.csv"))
    first = blobs[("1", None)]
    assert len(first[0].decode().splitlines()) == 1 + 3 * 4
    for key, blob in blobs.items():
        assert blob == first, key


FAN_TASKS = {
    "spectrum-sweep": (SWEEP_CFG, "t_spectrum"),
    "shifts": (SHIFTS_CFG.replace("l_max = 20", "l_max = 50"), "t_shifts"),
    "crossings": (CROSSINGS_CFG.replace("l_max = 10", "l_max = 50"),
                  "t_crossings"),
}


@pytest.mark.parametrize("task", list(FAN_TASKS))
def test_fan_task_bytes_independent_of_blas(tmp_path, task):
    text, stem = FAN_TASKS[task]
    path = _write(tmp_path, text)
    blobs = {}
    for blas in (None, "1"):
        out_dir = tmp_path / f"b{blas}"
        _run_python(["-m", "heliumjcm.cli", task, "--config", path,
                     "--out", str(out_dir)], blas)
        blobs[blas] = ((out_dir / f"{stem}.csv").read_bytes(),
                       (out_dir / f"{stem}.json").read_bytes())
    assert blobs[None] == blobs["1"]


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.3 s and 20 MB; only root finding needs it
    out = _run_python(["-c", "import sys, heliumjcm.cli; "
                             "print('scipy.optimize' in sys.modules)"])
    assert out.stdout.strip() == "False"


def test_cli_import_and_validate_load_no_scipy(tmp_path):
    # importing scipy costs about 0.4 s per CLI call; only root finding
    # needs it, and a vertical solve where numpy's OpenBLAS lacks LAPACK
    path = _write(tmp_path, SHIFTS_CFG)
    probe = ("import sys; {}; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = _run_python(["-c", probe.format("import heliumjcm.cli")])
    assert out.stdout.strip() == "[]"
    out = _run_python(["-c", probe.format(
        "from heliumjcm import cli; "
        f"assert cli.main(['validate', '--config', {str(path)!r}]) == 0")])
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_computing_tasks_load_no_scipy(tmp_path):
    # the vertical solve runs LAPACK from numpy's OpenBLAS, so no task the
    # command line computes imports scipy
    if vertical._lapack_tridiagonal() is None:
        pytest.skip("numpy's BLAS exports no dstebz/dstein")
    runs = [["self-test"]]
    for task, text in (("spectrum-sweep", SMALL_SWEEP_CFG),
                       ("crossings", CROSSINGS_CFG),
                       ("absorption-map", MAP_CFG)):
        runs.append([task, "--config", _write(tmp_path, text, f"{task}.cfg"),
                     "--out", str(tmp_path / task)])
    probe = ("import sys; from heliumjcm import cli\n"
             f"for argv in {runs!r}:\n"
             "    assert cli.main(argv) == 0, argv\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = _run_python(["-c", probe])
    assert out.stdout.strip().splitlines()[-1] == "[]"


GRID_TOO_COARSE_CFG = CROSSINGS_CFG.replace("n_max = 6", "n_max = 51") \
    .replace("n_points = 2000", "n_points = 200")


@pytest.mark.parametrize("task", ["validate", "crossings"])
def test_grid_too_coarse_for_the_basis_exits_2(tmp_path, capsys, task):
    # the vertical solve needs four grid points per level
    path = _write(tmp_path, GRID_TOO_COARSE_CFG)
    assert cli.main([task, "--config", path, "--out",
                     str(tmp_path / "o")]) == 2
    assert "error: grid.n_points: 200 points cannot hold 51 levels; need " \
        "at least 204\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_absorption_map_thread_independent(tmp_path):
    path = _write(tmp_path, MAP_CFG)
    blobs = []
    for threads, sub in (("1", "a"), ("3", "b")):
        out_dir = tmp_path / sub
        assert cli.main(["absorption-map", "--config", path,
                         "--out", str(out_dir), "--threads", threads]) == 0
        blobs.append(tuple(
            (out_dir / name).read_bytes()
            for name in ("t_map.csv", "t_map.json", "t_lines.csv")))
    assert blobs[0] == blobs[1]
    lines = blobs[0][0].decode().splitlines()
    assert lines[0] == "b_y,e_perp_v_cm,intensity"
    assert len(lines) == 1 + 2 * 3


def test_map_with_nan_temperature_exits_before_work(tmp_path, capsys):
    path = _write(tmp_path, MAP_CFG.replace("temperature = 0.33",
                                            "temperature = nan"))
    out_dir = tmp_path / "o"
    assert cli.main(["absorption-map", "--config", path,
                     "--out", str(out_dir)]) == 2
    assert "fields.temperature: not a finite number" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def test_map_sidecar_reports_landau_cuts(tmp_path):
    # basis.l_max is a cap: the sidecar says which cut each pixel took
    path = _write(tmp_path, MAP_CFG.replace("l_max = 8", "l_max = 30"))
    out_dir = tmp_path / "o"
    assert cli.main(["absorption-map", "--config", path,
                     "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "t_map.json").read_text())["basis"]
    assert report["l_max_cap"] == 30
    assert report["edge_weight_limit"] == 1e-10
    cuts = dict(report["pixels_by_l_max"])
    assert sum(cuts.values()) == 2 * 3
    assert all(0 < cut <= 30 for cut in cuts)
    assert min(cuts) < 30
    assert report["cap_uncertified_pixels"] == 0
    assert report["cap_uncertified_worst_edge_weight"] is None
    assert report["thermal_cut_clamped_pixels"] == 0


def test_out_dir_from_environment(tmp_path, monkeypatch):
    path = _write(tmp_path, SHIFTS_CFG)
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert cli.main(["shifts", "--config", path]) == 0
    assert (target / "t_shifts.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["shifts", "--config",
                     str(tmp_path / "nope.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def _cell(value) -> str:
    """A CSV cell as the format promises: an integer as str() prints it, a
    float to ten significant digits, -0 as 0, nan and inf literally."""
    if isinstance(value, (int, np.integer)):
        return str(value)
    value = float(value)
    return "0" if value == 0.0 else format(value, ".10g")


def test_fmt_normalizes_floats(tmp_path):
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d"],
                   [(-0.0, float("nan"), 2.8306471801, 3)])
    assert path.read_text() == "a,b,c,d\n0,nan,2.83064718,3\n"


def test_shifts_csv_is_full_shift_bit_for_bit(tmp_path, monkeypatch):
    captured = []

    def capture(path, header, rows):
        captured.extend(rows)
        return write_csv(path, header, rows)

    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", capture)
    path = _write(tmp_path, SHIFTS_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["shifts", "--config", path, "--out", str(out_dir)]) == 0
    cfg = load_run_config(path)
    base, basis = cfg.field_config(), cfg.basis()
    vs = solve_vertical(cfg.material(), base.e_perp, basis.n_max, cfg.grid())
    blocks = HamiltonianBlocks(vs, basis)
    assert [(b_y, l) for b_y, l, _, _ in captured] == [
        (b_y, l) for b_y in (0.0, 0.1, 0.2) for l in (0, 1)]
    cells = [line.split(",")[3] for line in
             (out_dir / "t_shifts.csv").read_text().splitlines()[1:]]
    for (b_y, l, _, full), cell in zip(captured, cells):
        if b_y == 0.0:
            want = 0.0
        else:
            with _single_threaded_blas:
                [want] = full_transition_shift_ghz(
                    blocks, base.replace(b_y=b_y), [l])
        assert full == want
        assert cell == _cell(want)


def test_write_csv_matches_per_value_fmt(tmp_path):
    rows = [
        (float("nan"), 0.0, -0.0, float("inf"), float("-inf")),
        [0, -7, 1, 2.5, -0.0],               # a list row, ints and floats
        (1e16, 1e-5, 9.9999999995e-5, 9999999999.5, 123456789012.0),
        (5e-324, 1.7976931348623157e308, -1e-300, 0.1, 1.0 / 3.0),
        (np.float64(-0.0), np.float64(2.8306471801), np.int64(3), -0.0, 2),
        (9999999999, -9999999999, 10**9, 42, np.int64(-1)),
    ]
    header = ["a", "b", "c", "d", "e"]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, rows)
    want = "a,b,c,d,e\n" + "".join(
        ",".join(_cell(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()

    cli._write_csv(str(path), header, [])
    assert path.read_bytes() == b"a,b,c,d,e\n"
    with pytest.raises(ValueError):
        cli._write_csv(str(path), header, [(1.0, 2.0, 3.0, 4.0)])


def test_write_csv_copies_one_block_at_a_time(tmp_path, traced_memory):
    # A 3.2 MB table. Normalising a copy of the whole table took the peak to
    # 1.54 tables; one 4,096-row block at a time 0.62 (the block, its values
    # as Python floats, and their text), and one 1,024-row block at a time
    # it is 0.16. The bound is one table, which any whole copy reaches
    # alone.
    table = np.random.default_rng(0).standard_normal((50_000, 8))
    table[-1, 0] = -0.0               # in the last block
    path = tmp_path / "t.csv"
    _, _, peak = traced_memory(
        lambda: cli._write_csv(str(path), list("abcdefgh"), table))
    assert peak < 1.0 * table.nbytes
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(table)
    assert lines[-1].startswith("0,")
    assert np.signbit(table[-1, 0])   # the caller's table is untouched


def test_spectrum_sweep_holds_one_table(tmp_path, traced_memory):
    # 301 steps x 3 overlays x 33 states: a 1.9 MB table. With a block per
    # point, their concatenation and a normalised copy of that, the peak
    # was 3.9 tables; filled in place and written a block at a time it is
    # 2.0: the table, one block's Python floats and text, and the solver.
    # The bound sits about one table from each.
    text = (SMALL_SWEEP_CFG.replace("n_max = 4\nl_max = 6",
                                    "n_max = 3\nl_max = 10")
            .replace("steps = 3\nb_y_values = 0.0, 0.1",
                     "steps = 301\nb_y_values = 0.0, 0.1, 0.2"))
    path = _write(tmp_path, text)
    out_dir = tmp_path / "o"
    code, _, peak = traced_memory(lambda: cli.main(
        ["spectrum-sweep", "--config", path, "--out", str(out_dir)]))
    assert code == 0
    rows = 301 * 3 * 33
    assert len(_data_lines(out_dir / "t_spectrum.csv")) == rows
    assert peak < 3.0 * rows * 8 * 8


class _Rows:
    """A sized row sequence with only len() and slicing, as _write_csv
    reads one; it records the length of every slice asked for."""

    def __init__(self, table):
        self.table = table
        self.slices = []

    def __len__(self):
        return len(self.table)

    def __getitem__(self, rows):
        assert isinstance(rows, slice)
        block = self.table[rows]
        self.slices.append(len(block))
        return block


def test_write_csv_prints_a_sized_row_sequence_by_slices(tmp_path):
    table = np.random.default_rng(1).standard_normal((10_000, 5))
    table[::7, 2] = -0.0
    table[:, 3] = np.arange(len(table)) % 97
    header = list("abcde")
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cli._write_csv(str(want), header, table)
    rows = _Rows([tuple(row) for row in table.tolist()])
    cli._write_csv(str(got), header, rows)
    assert got.read_bytes() == want.read_bytes()
    assert sum(rows.slices) == len(table)
    assert max(rows.slices) <= 1024

    rows = _Rows([tuple(row) for row in table.tolist()])
    rows.table[5000] = rows.table[5000][:4]   # one short row, in block 2
    with pytest.raises(ValueError):
        cli._write_csv(str(got), header, rows)
    with pytest.raises(ValueError):            # every row one too wide
        cli._write_csv(str(got), header[:4], _Rows(table))


def test_spectrum_sweep_holds_compact_rows(tmp_path, traced_memory):
    # The config of test_spectrum_sweep_holds_one_table, peak in units of
    # its 64 B-a-row float table. Held as that table the peak was 2.02;
    # held as compact columns (18 B a row) and expanded one 4,096-row slice
    # at a time 1.28, and one 1,024-row slice at a time it is 0.62. The
    # bound sits between the first two.
    text = (SMALL_SWEEP_CFG.replace("n_max = 4\nl_max = 6",
                                    "n_max = 3\nl_max = 10")
            .replace("steps = 3\nb_y_values = 0.0, 0.1",
                     "steps = 301\nb_y_values = 0.0, 0.1, 0.2"))
    path = _write(tmp_path, text)
    out_dir = tmp_path / "o"
    code, _, peak = traced_memory(lambda: cli.main(
        ["spectrum-sweep", "--config", path, "--out", str(out_dir)]))
    assert code == 0
    rows = 301 * 3 * 33
    assert len(_data_lines(out_dir / "t_spectrum.csv")) == rows
    assert peak < 1.65 * rows * 8 * 8


def _data_lines(path) -> list[str]:
    return Path(path).read_text().splitlines()[1:]


def test_spectrum_sweep_csv_cells_are_the_solver_values(tmp_path):
    path = _write(tmp_path, SMALL_SWEEP_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["spectrum-sweep", "--config", path,
                     "--out", str(out_dir)]) == 0
    cfg = load_run_config(path)
    base = cfg.field_config()
    vs = solve_vertical(cfg.material(), base.e_perp, cfg.n_max, cfg.grid())
    blocks = HamiltonianBlocks(vs, cfg.basis())
    want = []
    for b_y in cfg.b_y_values:
        for b_z in np.linspace(cfg.sweep_start, cfg.sweep_stop,
                               cfg.sweep_steps):
            with _single_threaded_blas:
                spec = blocks.solve(base.replace(b_z=float(b_z), b_y=b_y))
            energies = spec.eigenvalues
            ground = energies[spec.locate(1, 0)]
            n_dom, l_dom, weight = spec.dominant_labels()
            for k in range(blocks.basis.size):
                want.append(",".join(map(_cell, (
                    float(b_z), b_y, k, energies[k] / GHZ,
                    (energies[k] - ground) / GHZ, int(n_dom[k]),
                    int(l_dom[k]), weight[k]))))
    assert _data_lines(out_dir / "t_spectrum.csv") == want


def test_absorption_map_csv_cells_are_the_library_map(tmp_path):
    path = _write(tmp_path, MAP_CFG)
    out_dir = tmp_path / "o"
    assert cli.main(["absorption-map", "--config", path,
                     "--out", str(out_dir)]) == 0
    cfg = load_run_config(path)
    sweep = np.linspace(cfg.map_sweep_start, cfg.map_sweep_stop,
                        cfg.map_sweep_steps)
    e_grid = np.linspace(cfg.map_e_perp_start, cfg.map_e_perp_stop,
                         cfg.map_e_perp_steps)
    with _single_threaded_blas:
        amap = absorption_map(
            cfg.material(), cfg.field_config(), cfg.map_sweep_axis, sweep,
            e_grid, cfg.mw_frequency_ghz, broadening=cfg.broadening(),
            basis=cfg.basis(), grid=cfg.grid(), l_cut=cfg.l_cut,
            band_ghz=cfg.band_ghz)
    assert not amap.failures
    want = [",".join(map(_cell, (s, e, amap.intensity[i, j])))
            for i, s in enumerate(sweep) for j, e in enumerate(e_grid)]
    assert _data_lines(out_dir / "t_map.csv") == want
    # the line-center traces, one CSV row per center, labels as integers
    lines = (out_dir / "t_lines.csv").read_text().splitlines()
    assert lines[0] == "b_y,e_perp_v_cm,initial_l,final_n,final_l,area"
    want = [",".join(map(_cell, (s, e, int(l0), int(n_f), int(l_f), area)))
            for s, e, l0, n_f, l_f, area in zip(*amap.lines)]
    assert want and lines[1:] == want
    sidecar = json.loads((out_dir / "t_map.json").read_text())
    assert sidecar["line_centers"] == {"file": "t_lines.csv",
                                       "rows": len(want)}


# e_perp = 0 with n_max = 8 on the default grid passes validate, and the one
# vertical solve fails with GridTooSmall: state n = 8 reaches the box edge
UNSOLVED_CFGS = {
    "spectrum-sweep": (SMALL_SWEEP_CFG, "t_spectrum.csv"),
    "shifts": (SHIFTS_CFG, "t_shifts.csv"),
    "crossings": (CROSSINGS_CFG, "t_crossings.csv"),
    "rates": (RATES_CFG.format(occupation="false"), None),
}


@pytest.mark.parametrize("task", list(UNSOLVED_CFGS))
def test_failed_vertical_solve_still_writes_artifacts(tmp_path, capsys,
                                                       task):
    text, csv_name = UNSOLVED_CFGS[task]
    lines = [line for line in text.splitlines()
             if not line.startswith(("[basis]", "n_max", "l_max", "[grid]",
                                     "n_points", "z_max"))]
    text = "\n".join(lines).replace("e_perp_v_cm = 15.0", "e_perp_v_cm = 0.0")
    path = _write(tmp_path, text + "\n[basis]\nn_max = 8\nl_max = 20\n")
    assert cli.main(["validate", "--config", path]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "o"
    assert cli.main([task, "--config", path, "--out", str(out_dir)]) == 3
    out = capsys.readouterr().out
    if csv_name is None:
        json_path = out_dir / "t_rates.json"
        assert out == f"wrote {json_path}\n"
    else:
        csv_path = out_dir / csv_name
        json_path = csv_path.with_suffix(".json")
        assert csv_path.read_text().count("\n") == 1
        assert out == f"wrote {csv_path} (0 rows, 1 failed)\n"
    body = json.loads(json_path.read_text())
    [failure] = body["failures"]
    assert failure["error"].startswith("GridTooSmall: state n=8")
    assert body["resolved_config"]["n_max"] == 8
