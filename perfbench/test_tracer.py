"""Tests of the benchmark's outside-in tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered once
        span("a.child", 2.0, 3.0, 1),
        span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_on_synthetic_tree():
    spans = [
        span("trivialize.torsion", 0.0, 10.0),
        span("trivialize.lift_check", 1.0, 5.0, 0, {"checked": 16}),
        span("trivialize.indexed_sweep", 2.0, 5.0, 1),
        span("cochains.solve", 6.0, 9.0, 0),
        span("intlinalg.solve", 6.5, 8.5, 3),
        span("intlinalg.solve", 7.0, 8.0, 4),  # nested: one call, not two
        span("trivialize.verify", 20.0, 30.0),
        span("cochains.cocycle_check", 20.0, 22.0, 6),
        span("trivialize.lift_check", 22.0, 26.0, 6, {"checked": 64}),
        span("trivialize.verify_restriction", 26.0, 29.0, 6),
        span("cochains.cocycle_check", 27.0, 29.0, 9),
    ]
    m = tracing.layer_metrics(spans, {"extensions.mul.calls": 7})
    assert m["trivialize.check.s"] == 1.0
    assert m["trivialize.indexed_sweep.s"] == 3.0
    assert m["trivialize.fallback.calls"] == 1
    assert m["intlinalg.solve.calls"] == 1
    assert m["trivialize.tuples_checked"] == 80
    assert m["trivialize.verify_alpha.s"] == 4.0
    assert m["trivialize.verify_tuples_per_s"] == 16.0
    # only the cocycle check made directly by the verifier, not the one
    # inside the restriction check
    assert m["trivialize.verify_cocycles.s"] == 2.0
    assert m["cochains.cocycle_check.calls"] == 2
    assert m["cochains.cocycle_check.s"] == 4.0
    assert m["trivialize.verify_restriction.s"] == 1.0
    assert m["extensions.mul.calls"] == 7
    assert m["modules.elem_ops.calls"] == 0


def trivialize_bytes(tmp_path, name):
    omega = workloads.write_json(str(tmp_path / "omega.json"), workloads.cochain_json(
        ["e", "g"], 3, {(1, 1, 1): (1,)}))
    out = str(tmp_path / name)
    code, _, err = workloads.run_cli(["trivialize", "--group", "cyclic:2", "--module",
                                      "trivial:2", "--cocycle", omega, "--degree", "3",
                                      "--out", out])
    assert code == 0, err
    with open(out, "rb") as fh:
        return fh.read()


def test_certificate_bytes_identical_with_tracing(tmp_path):
    import groupcoh.cochains
    import groupcoh.trivialize

    original = groupcoh.cochains.coboundary_value
    plain = trivialize_bytes(tmp_path, "plain.json")
    tracer = tracing.Tracer()
    assert groupcoh.trivialize.coboundary_value is original  # no-op until installed
    tracer.install()
    try:
        assert groupcoh.trivialize.coboundary_value is not original
        traced = trivialize_bytes(tmp_path, "traced.json")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert groupcoh.cochains.coboundary_value is original
    assert groupcoh.trivialize.coboundary_value is original
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"cli.main", "trivialize.torsion", "trivialize.lift_check"} <= names
    counts = tracer.take_counts()
    assert counts["cochains.delta_value.calls"] > 0
    assert counts["extensions.mul.calls"] > 0
