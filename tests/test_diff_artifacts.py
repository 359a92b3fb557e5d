"""scripts/diff_artifacts.py on synthetic artifact directories."""

import importlib.util
import io
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "diff_artifacts.py")
_spec = importlib.util.spec_from_file_location("diff_artifacts", _PATH)
diff_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_artifacts)


def _write(directory, csv_text, sidecar):
    directory.mkdir()
    (directory / "t_map.csv").write_text(csv_text)
    (directory / "t_map.json").write_text(json.dumps(sidecar))
    return str(directory)


CSV = "b_y,e_perp_v_cm,intensity\n0,10,0.5\n0,20,1\n"


def _compare(a, b, tol=0.0):
    out = io.StringIO()
    return diff_artifacts.compare(a, b, tol, out), out.getvalue()


def test_identical_directories(tmp_path):
    a = _write(tmp_path / "a", CSV, {"vertical": {"solver": "laguerre"}})
    b = _write(tmp_path / "b", CSV, {"vertical": {"solver": "laguerre"}})
    status, out = _compare(a, b)
    assert status == 0
    assert out == "t_map.csv: 0 of 6 cells changed\n"


@pytest.mark.parametrize("tol, status", [(0.0, 1), (1e-3, 0)])
def test_one_moved_cell(tmp_path, tol, status):
    a = _write(tmp_path / "a", CSV, {"vertical": {"solver": "a"}})
    b = _write(tmp_path / "b", CSV.replace("0.5", "0.5001"),
               {"vertical": {"solver": "b"}})
    code, out = _compare(a, b, tol)
    assert code == status
    assert "t_map.csv: 1 of 6 cells changed\n" in out
    assert "  intensity: largest change 0.0001 absolute, 0.0001 of the " \
        "column's largest magnitude\n" in out
    assert "t_map.json: keys differ: vertical.solver\n" in out


def test_key_on_one_side_only(tmp_path):
    # a dropped key is listed even where the other side held null
    config = {"n_max": 6, "z_max": None, "n_points": None}
    a = _write(tmp_path / "a", CSV, {"resolved_config": config})
    b = _write(tmp_path / "b", CSV, {"resolved_config": {"n_max": 6}})
    status, out = _compare(a, b)
    assert status == 0
    assert "t_map.json: keys differ: resolved_config.n_points, " \
        "resolved_config.z_max\n" in out
    _, out = _compare(b, a)
    assert "t_map.json: keys differ: resolved_config.n_points, " \
        "resolved_config.z_max\n" in out


def test_header_mismatch(tmp_path):
    a = _write(tmp_path / "a", CSV, {})
    b = _write(tmp_path / "b", CSV.replace("b_y", "b_z"), {})
    status, out = _compare(a, b)
    assert status == 1
    assert out.startswith("t_map.csv: header differs")


def test_cell_turned_nan_exceeds_any_tol(tmp_path):
    # a failed point reads nan; its change is not one nanmax may skip
    a = _write(tmp_path / "a", CSV, {})
    b = _write(tmp_path / "b", CSV.replace("0.5", "nan"), {})
    status, out = _compare(a, b, tol=1.0)
    assert status == 1
    assert "  intensity: largest change inf absolute" in out
