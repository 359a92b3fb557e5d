"""Tests of the benchmark itself: the metrics it emits, its output checks and
its seeded inputs. Each workload has a tiny size (``--size tiny``) that runs in
seconds.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import JITTER, SHIFTS_B_Y_CEILING, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
REPEATABLE = [m["name"] for m in BENCHMARK["per_layer"]
              if m["name"].endswith("_count") or m["name"] in (
                  "cli.csv_rows", "coupled.eigh_unique_ratio",
                  "coupled.eigvec_used_ratio",
                  "spectroscopy.lines_deposited_ratio")]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == RESULT_KEYS
    return res


def tiny(workload: str, trace: int, seed: int = 7) -> dict:
    return result(bench("--workload", workload, "--size", "tiny", "--seconds",
                        "1", "--trace", str(trace), "--seed", str(seed)))


@pytest.fixture(scope="module")
def traced():
    return {name: tiny(name, 1) for name in WORKLOADS}


def test_benchmark_json_names_match_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    res = tiny(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == run.END_TO_END_UNITS
    assert all(v["value"] > 0.0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(traced, workload):
    res = traced[workload]
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.LAYER_UNITS
    unique = res["metrics"]["coupled.eigh_unique_ratio"]["value"]
    if workload == "fan":
        assert 0.0 < unique < 1.0      # shifts solves each point once per l
    else:
        assert unique == 1.0
        assert res["metrics"]["spectroscopy.pixel_count"]["value"] == 12


def test_traced_counts_repeat_exactly(traced):
    again = tiny("map-coupling", 1)
    first = traced["map-coupling"]["metrics"]
    assert {n: again["metrics"][n]["value"] for n in REPEATABLE} \
        == {n: first[n]["value"] for n in REPEATABLE}


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fan", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# output checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Tiny fan and map-coupling outputs, written in-process."""
    from heliumjcm import cli

    out = {}
    for name in ("fan", "map-coupling"):
        base = tmp_path_factory.mktemp(name)
        invs = WORKLOADS[name].invocations(0, "tiny")
        for index, inv in enumerate(invs):
            cfg = base / f"{index}.cfg"
            cfg.write_text(inv.ini())
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([inv.task, "--config", str(cfg), "--out",
                                 str(base / "out"), "--threads", "1"])
            assert code == 0
            out[inv.task] = (inv, str(base / "out"))
    return out


def corrupted(artifacts, task, tmp_path, edit):
    """Copy one invocation's outputs and apply edit(list of CSV rows)."""
    inv, src = artifacts[task]
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    csv_path = checks.output_paths(inv, str(dst))[0]
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    with open(csv_path, "w") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return checks.check_invocation(inv, str(dst), 0)


def test_clean_artifacts_pass(artifacts):
    for inv, out_dir in artifacts.values():
        res = checks.check_invocation(inv, out_dir, 0)
        assert not res.failed, res.problems


@pytest.mark.parametrize("state", [0, 7])
def test_rejects_overlay_energy_off_by_one_ppm(artifacts, tmp_path, state):
    def edit(rows):
        row = next(r for r in rows if float(r[1]) == 0.0 and int(r[2]) == state)
        row[3] = f"{float(row[3]) * (1.0 + 1e-6):.10g}"

    res = corrupted(artifacts, "spectrum-sweep", tmp_path, edit)
    assert res.failed == {0}


def test_rejects_energies_out_of_order(artifacts, tmp_path):
    def edit(rows):
        rows[0][3], rows[1][3] = rows[1][3], rows[0][3]

    res = corrupted(artifacts, "spectrum-sweep", tmp_path, edit)
    assert 0 in res.failed


def test_rejects_map_value_above_one(artifacts, tmp_path):
    def edit(rows):
        rows[5][2] = "1.5"

    # The maximum is then not 1, so the normalization of every pixel is wrong.
    res = corrupted(artifacts, "absorption-map", tmp_path, edit)
    assert len(res.failed) == res.points


def test_rejects_negative_map_value(artifacts, tmp_path):
    def edit(rows):
        rows[5][2] = "-0.1"

    res = corrupted(artifacts, "absorption-map", tmp_path, edit)
    assert res.failed == {5}


def test_rejects_map_not_normalized(artifacts, tmp_path):
    def edit(rows):
        for r in rows:
            r[2] = f"{0.5 * float(r[2]):.10g}"

    res = corrupted(artifacts, "absorption-map", tmp_path, edit)
    assert len(res.failed) == res.points


def test_rejects_flipped_light_shift(artifacts, tmp_path):
    def edit(rows):
        row = next(r for r in rows if float(r[0]) > 0.0 and int(r[1]) == 1)
        row[3] = row[3].lstrip("-")

    res = corrupted(artifacts, "shifts", tmp_path, edit)
    assert len(res.failed) == 1


def test_rejects_vacuum_shift_outside_band(artifacts, tmp_path):
    def edit(rows):
        row = next(r for r in rows if float(r[0]) > 0.0 and int(r[1]) == 0)
        row[3] = f"{1.2 * float(row[2]):.10g}"

    res = corrupted(artifacts, "shifts", tmp_path, edit)
    assert len(res.failed) == 1


def test_rejects_gap_off_by_twenty_percent(artifacts, tmp_path):
    def edit(rows):
        rows[1][4] = f"{1.2 * float(rows[1][4]):.10g}"

    res = corrupted(artifacts, "crossings", tmp_path, edit)
    assert res.failed == {1}


def test_nonzero_exit_fails_every_point(artifacts):
    inv, out_dir = artifacts["absorption-map"]
    res = checks.check_invocation(inv, out_dir, 3)
    assert len(res.failed) == inv.points


# seeded inputs ---------------------------------------------------------

def _axes(inv):
    if inv.task == "absorption-map":
        m = inv.sections["map"]
        return [(m["sweep_axis"], m["sweep_start"], m["sweep_stop"],
                 m["sweep_steps"]),
                ("e_perp", m["e_perp_start_v_cm"], m["e_perp_stop_v_cm"],
                 m["e_perp_steps"])]
    if inv.task in ("spectrum-sweep", "shifts"):
        s = inv.sections["sweep"]
        return [(s["axis"], s["start"], s["stop"], s["steps"])]
    return []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_moves_endpoints_within_a_quarter_step(workload):
    runs = [WORKLOADS[workload].invocations(seed) for seed in range(40)]
    assert [i.ini() for i in runs[0]] == [
        i.ini() for i in WORKLOADS[workload].invocations(0)]
    for column in zip(*runs):
        assert len({inv.points for inv in column}) == 1
        for axis in zip(*(_axes(inv) for inv in column)):
            name, starts, stops, steps = zip(*axis)
            step = (stops[0] - starts[0]) / (steps[0] - 1)
            for ends in (starts, stops):
                assert max(ends) - min(ends) <= 2 * JITTER * step * 1.001
            if name == "b_y":
                assert set(starts) == {0.0}
            if name == "b_z" and column[0].task == "absorption-map":
                assert set(starts) == {0.05}
            if column[0].task == "shifts":
                assert max(stops) <= SHIFTS_B_Y_CEILING

