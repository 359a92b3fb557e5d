"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name. Renaming or deleting one of them breaks the traced benchmark run, so
this checks the names here, in milliseconds, and that the wrapped names
are the ones the command line's coupled solves go through."""

from pathlib import Path

from heliumjcm import cli, coupled

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    with t.installed():
        wrapped = list(t._restore)
        assert wrapped
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original, attr
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, attr


SWEEP_CFG = """
[run]
task = spectrum-sweep
[material]
isotope = he3
[fields]
e_perp_v_cm = 15.0
[basis]
n_max = 4
l_max = 6
[sweep]
axis = b_z
start = 0.5
stop = 1.5
steps = 3
b_y_values = 0.0, 0.1
[output]
prefix = t
"""


def test_tracer_counts_each_dense_solve_once(tmp_path, monkeypatch):
    # every assembly and every dense solve of a traced run is counted once;
    # the b_y = 0 overlay is read off its diagonal and adds to neither
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    eighs = []
    eigh = coupled._eigh_in_place

    def counted_eigh(a):
        eighs.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(coupled, "_eigh_in_place", counted_eigh)
    path = tmp_path / "run.cfg"
    path.write_text(SWEEP_CFG)
    t = tracer.Tracer()
    with t.installed():
        assert cli.main(["spectrum-sweep", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 0
    metrics = t.layer_metrics()
    assert (metrics["coupled.assemble_count"] == metrics["coupled.eigh_count"]
            == len(eighs) > 0)
    assert len(eighs) == 3   # the three b_z points of the b_y = 0.1 overlay
