"""Tests of the benchmark itself: inputs, validators and tracing.

Run from the repository root with

    python3 -m pytest perfbench/bench_selftest.py

The file name keeps it out of the library's own test run.
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

LIB = {name: importlib.import_module(f"slag3.{name}")
       for name in ("cubics", "geometry", "gallery", "ambient")}
cubics, geometry, gallery = LIB["cubics"], LIB["geometry"], LIB["gallery"]


# --- inputs -----------------------------------------------------------------

def _cubic_chunks(seed, n=2):
    stream = inputs.CubicStream(seed)
    return [stream.chunk() for _ in range(n)]


def _audit_points(seed):
    points = inputs.unit_points_stream(seed)
    return [next(points) for _ in range(2)]


def test_same_seed_same_inputs():
    for a, b in zip(_cubic_chunks(4), _cubic_chunks(4)):
        assert a["family"] == b["family"]
        for key in ("coeffs", "base", "r", "s", "scale"):
            assert np.array_equal(a[key], b[key])
    for a, b in zip(_audit_points(4), _audit_points(4)):
        assert np.array_equal(a, b)
    for name in gallery.default_gallery():
        q1, t1 = inputs.motion(4, name)
        q2, t2 = inputs.motion(4, name)
        assert np.array_equal(q1, q2) and np.array_equal(t1, t2)


def test_other_seed_other_inputs():
    a, b = _cubic_chunks(4, 1)[0], _cubic_chunks(5, 1)[0]
    assert not np.allclose(a["coeffs"], b["coeffs"])
    assert not np.allclose(_audit_points(4)[0], _audit_points(5)[0])
    assert not np.allclose(inputs.motion(4, "plane")[0],
                           inputs.motion(5, "plane")[0])


def _norm(c):
    return math.sqrt(np.dot(inputs.MULTIPLICITY * c, c))


def test_generated_cubics_are_moved_representatives():
    ch = _cubic_chunks(6, 1)[0]
    for i in range(16):
        assert _norm(ch["coeffs"][i]) == pytest.approx(
            ch["scale"][i] * _norm(ch["base"][i]), rel=1e-12)
        cubics.HarmonicCubic(ch["coeffs"][i])  # traceless
    su3 = inputs.motion(6, "plane")[0]
    assert np.allclose(su3.conj().T @ su3, np.eye(3))
    assert np.linalg.det(su3) == pytest.approx(1.0)


# --- validators ---------------------------------------------------------------

def test_classify_check():
    h = cubics.HarmonicCubic(inputs.P0 + 2.0 * inputs.XYZ6)
    fit = cubics.classify(h)
    assert checks.check_classify(fit, "Z2", 1.0, 2.0) is None
    swapped = dataclasses.replace(fit, type=cubics.StabilizerType.S3)
    assert checks.check_classify(swapped, "Z2", 1.0, 2.0) == "wrong_type"
    off_scale = dataclasses.replace(fit, r=10.0 * fit.r)
    assert checks.check_classify(off_scale, "Z2", 1.0, 2.0) == "inaccurate"


def test_singular_check():
    h = cubics.HarmonicCubic(inputs.XYZ6)
    dirs = cubics.singular_directions(h)

    def grad(w):
        return cubics.evaluate_and_gradient(h, w)[1]

    assert checks.check_singular(h.coeffs, dirs, 3, grad) is None
    assert checks.check_singular(h.coeffs, dirs[:2], 3, grad) == "wrong_type"
    tilted = [dirs[0] + np.array([0.0, 0.1, 0.0])] + list(dirs[1:])
    tilted[0] /= np.linalg.norm(tilted[0])
    assert checks.check_singular(h.coeffs, tilted, 3, grad) == "inaccurate"


def test_sweep_node_check():
    node = geometry.point_report(gallery.plane(), np.zeros(3))
    assert checks.check_node(node, "Full") is None
    assert checks.check_node(node, "S3") == "wrong_type"
    broken = dataclasses.replace(
        node, error="StepTooSmallError: residual grows")
    assert checks.check_node(broken, "Full") == "StepTooSmallError"
    odd = dataclasses.replace(node, error="KeyError: 'x'")
    assert checks.check_node(odd, "Full") == "other_error"


def test_scale_induced_wrong_type_is_no_wrong_answer():
    load = workloads.Classify(LIB, 1)
    rng = np.random.default_rng(0)
    # a Trivial cubic 1% from a Z2 cubic, at norm 1e-3
    h = cubics.HarmonicCubic(inputs.P0 + 2.0 * inputs.XYZ6 + 0.01
                             * inputs.traceless(rng.normal(size=10)))
    small = h.scaled(1e-3 / h.norm())
    assert load._scale_induced(small, lambda fit: fit.type.value == "Trivial")
    assert not load._scale_induced(small, lambda fit: fit.type.value == "S3")
    tally = workloads.Tally()
    tally.record(0, "wrong_type", scale_induced=lambda: True)
    tally.record(1, "ValueError")
    assert (tally.failed, tally.wrong_answers) == (2, 0)
    tally.record(2, "wrong_type")
    assert (tally.failed, tally.wrong_answers) == (3, 1)


def test_later_checks_count_once_and_must_agree():
    tally = workloads.Tally()
    tally.record(0, "ValueError")
    tally.record(1)
    tally.record(0, "ValueError")
    tally.record(1)
    assert (tally.items, tally.attempted, tally.failed) == (4, 2, 1)
    assert tally.unsteady == 0
    tally.record(1, "inaccurate")
    assert (tally.attempted, tally.failed, tally.unsteady) == (2, 1, 1)


def test_audit_check():
    res = geometry.codazzi_gauss_residual(gallery.plane(), np.zeros(3))
    assert checks.check_audit(res) is None
    assert checks.check_audit((2e-3, 0.0)) == "inaccurate"
    assert checks.check_audit((0.0, math.nan)) == "inaccurate"


# --- tracing ------------------------------------------------------------------

def _module_bindings():
    return {(name, attr): value for name, mod in LIB.items()
            for attr, value in vars(mod).items()}


def test_trace_counts_self_time_and_unpatch():
    before = _module_bindings()
    tracer = layertrace.Tracer()
    patch = tracer.wrap_patch(gallery.plane())
    tracer.patch(LIB)
    try:
        assert geometry.classify is cubics.classify
        assert geometry.classify is not before[("cubics", "classify")]
        t0 = time.perf_counter()
        reports = geometry.sweep(patch, (1, 1, 1))
        wall = time.perf_counter() - t0
    finally:
        tracer.unpatch()
    assert len(reports) == 1 and reports[0].error is None
    calls = {name: st.calls for name, st in tracer.stats.items()}
    assert calls["geometry.sweep"] == 1
    assert calls["geometry.point_report"] == 1
    assert calls["gallery.eval"] == 2        # position, then frame origin
    # the plane's cubic is zero, so classify stops before the axis search
    assert calls["cubics.classify"] == 1
    assert calls["cubics.find_symmetry_axes"] == 0
    # self times add up to the outermost span, which the wall time bounds
    assert tracer.total_self_s() <= wall
    assert tracer.total_self_s() == pytest.approx(wall, rel=0.05, abs=2e-4)
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_trace_counts_errors():
    tracer = layertrace.Tracer()
    tracer.patch(LIB)
    try:
        with pytest.raises(ValueError):
            cubics.find_symmetry_axes(cubics.HarmonicCubic.zero())
    finally:
        tracer.unpatch()
    st = tracer.stats["cubics.find_symmetry_axes"]
    assert (st.calls, st.errors) == (1, 1)


def _calls_per_item(seed):
    tracer = layertrace.Tracer()
    load = workloads.Audit(LIB, seed, tracer.wrap_patch)
    tracer.patch(LIB)
    try:
        tally = workloads.run(load, calls=8, calibrated=False)
    finally:
        tracer.unpatch()
    return {name: tracer.stats[name].calls / tally.items
            for name in ("gallery.eval", "gallery.jac", "geometry.jacobian")}


def test_calls_per_item_repeat_for_one_seed():
    first = _calls_per_item(3)
    assert first["gallery.eval"] > 0
    assert _calls_per_item(3) == first


def _small_audit(seed):
    load = workloads.Audit(LIB, seed)
    load.pool = 16
    return load


def test_counts_depend_on_the_seed_alone():
    # a run covers its pool at least once, however fast the machine is, and
    # the counts come from the pool, however often it is stepped through
    once = workloads.run(_small_audit(2), seconds=0.0, calibrated=False)
    thrice = workloads.run(_small_audit(2), calls=48, calibrated=False)
    assert once.calls == 16 and thrice.items == 48
    assert once.attempted == thrice.attempted == 16
    assert once.outcomes == thrice.outcomes
    assert thrice.unsteady == 0


# --- the runner ---------------------------------------------------------------

def test_runner_fails_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        command + ["--workload", "classify", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
