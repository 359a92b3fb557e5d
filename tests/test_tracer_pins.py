"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name. Renaming or deleting one of them breaks the traced benchmark run, so
this checks the names here, in milliseconds."""

from pathlib import Path

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
