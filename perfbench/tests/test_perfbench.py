"""Tests of the benchmark itself: input generators, span wrappers, the
self-time arithmetic, the speed meter, and a small run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import random
import signal
import sys
from time import perf_counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen      # noqa: E402
import oracle   # noqa: E402
import run      # noqa: E402
import spans    # noqa: E402
import speed    # noqa: E402


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """The package freshly imported for one test, with the benchmark's
    work directory in tmp_path; the modules the rest of the test run
    imported are put back afterwards."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "plstrat" or k.startswith("plstrat.")}
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_WARM", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    yield run.fresh_import
    for k in [k for k in sys.modules if k == "plstrat" or k.startswith("plstrat.")]:
        del sys.modules[k]
    sys.modules.update(saved)


# ---------------------------------------------------------------------------
# generators

def _write_all(seed, directory, mods):
    for cls in (run.TorusK1, run.TorusK2):
        cls().setup(seed, mods)
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def test_generators_are_byte_deterministic(fresh, monkeypatch, tmp_path):
    monkeypatch.setattr(gen, "TORUS_K1_SIZE", 4)
    monkeypatch.setattr(gen, "TORUS_K2_SIZE", 3)
    mods = fresh()
    first = _write_all(gen.DEFAULT_SEED, str(tmp_path), mods)
    again = _write_all(gen.DEFAULT_SEED, str(tmp_path), fresh())
    other = _write_all(gen.HOLDOUT_SEED, str(tmp_path), fresh())
    assert len(first) == 2 * gen.MAPS_PER_WORKLOAD
    assert first == again
    assert all(first[k] != other[k] for k in first)


def test_torus_sizes_and_values():
    rng = random.Random(0)
    doc = gen.torus_height_map(10, rng)
    assert gen.closure_size(doc["facets"]) == 600
    assert sorted(doc["values"].values()) == list(range(100))
    planar, = gen.torus_projections(3, [rng], lambda d: True)
    values = {v: tuple(p) for v, p in planar["values"].items()}
    assert gen.planar_position_is_general(planar["facets"], values)


def test_general_position_rejects_collinear_and_triple_crossings():
    facets = [["a", "b"], ["c", "d"], ["e", "f"]]
    collinear = {"a": (0, 0), "b": (2, 2), "c": (4, 4), "d": (0, 5),
                 "e": (9, 1), "f": (7, 3)}
    assert not gen.planar_position_is_general(facets, collinear)
    triple = {"a": (0, 0), "b": (4, 4), "c": (0, 4), "d": (4, 0),
              "e": (2, -5), "f": (2, 7)}
    assert not gen.planar_position_is_general(facets, triple)
    triple["f"] = (3, 7)
    assert gen.planar_position_is_general(facets, triple)


# ---------------------------------------------------------------------------
# spans

def _bindings(mods):
    out = {}
    for name, mod in mods.items():
        out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (mods["posets"].Poset, mods["arrangement"].PlanarArrangement):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_install_wraps_every_binding_and_restore_undoes_it(fresh):
    mods = fresh()
    before = _bindings(mods)
    tracer = spans.Tracer()
    patches = spans.install(tracer, mods)
    assert mods["reeb"].jacobi_set is not before[("reeb", "jacobi_set")]
    assert mods["cli"].jacobi_set is not before[("cli", "jacobi_set")]
    assert mods["jacobi"].link is not before[("jacobi", "link")]
    assert mods["geometry"].on_segment is not before[("geometry", "on_segment")]
    assert mods["arrangement"].on_segment is not before[("arrangement", "on_segment")]
    assert "open" in vars(mods["cli"])
    f = mods["io"].example_map("octahedron")
    tracer.op_id = 0
    mods["reeb"].reeb_graph(f)
    names = {tracer.names[i] for i in tracer.name}
    assert {"reeb.reeb_graph", "jacobi.jacobi_set", "complexes.link",
            "homology.reduced_betti"} <= names
    # the sweep visits at most every vertex value and every gap between two
    levels = tracer.counters[0]["reeb.reeb_graph.levels"]
    assert 1 <= levels <= 2 * len({f.value(v) for v in f.domain.vertices}) - 1
    # a fiber outside the sweep is not a level
    mods["reeb"].fiber_components(f, f.value("a"))
    assert tracer.counters[0]["reeb.reeb_graph.levels"] == levels
    patches.restore()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert "open" not in vars(mods["cli"])


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]
    # a child reaching past its parent only counts inside the parent
    assert spans.self_times([0.0, 2.0], [4.0, 6.0], [-1, 0]) == [2.0, 4.0]


def test_layer_metrics_from_synthetic_spans():
    t = spans.Tracer()
    t.op_id = 7
    root, top, kid = (t.name_id(n) for n in
                      (spans.OP_SPAN, "reeb.reeb_scaffold", "reeb.fiber_components"))
    t.name.extend([root, top, kid, kid])
    t.start.extend([0.0, 1.0, 2.0, 4.0])
    t.end.extend([10.0, 6.0, 3.0, 5.0])
    t.parent.extend([-1, 0, 1, 1])
    t.op.extend([7, 7, 7, 7])
    t.count("reeb.scaffold.covers", 4)
    row = spans.layer_metrics(t)[7]
    assert row["cli.self_s"] == 5.0
    assert row["cli.stage.scaffold_s"] == 5.0
    assert row["reeb.reeb_scaffold.s"] == 5.0
    assert row["reeb.fiber_components.calls"] == 2
    assert row["reeb.fiber_components.self_s"] == 2.0
    assert row["reeb.scaffold.fiber_calls_per_cover"] == 0.5


# ---------------------------------------------------------------------------
# speed meter

def test_speed_meter_scales_by_the_kernel_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        token = meter.begin()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            speed.kernel()
        elapsed = perf_counter() - t0
        first = token[0]
        net, scaled = meter.end(token, elapsed)
    # the handler ran during the interval, and its time is not the op's
    assert len(meter.samples) - first > 2
    assert 0 < net < elapsed
    kernel_s = sum(meter.samples[first:]) / len(meter.samples[first:])
    assert scaled == pytest.approx(net * speed.KERNEL_NOMINAL_S / kernel_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.WallClock().end(None, 1.5) == (1.5, 1.5)


# ---------------------------------------------------------------------------
# oracle

def test_oracle_recomputes_euler_and_reeb_rank():
    codomain = {"euler": {"vertices": 3, "edges": 3, "faces": 2, "components": 1},
                "geometry": {"v0": ["0", "0"], "v1": ["1", "0"], "v2": ["0", "1"],
                             "e0": [["0", "0"], ["1", "0"]],
                             "e1": [["1", "0"], ["0", "1"]],
                             "e2": [["0", "1"], ["0", "0"]],
                             "f0": {}, "f_out": {}}}
    assert oracle.euler_problems(codomain) == []
    codomain["geometry"].pop("e2")
    assert oracle.euler_problems(codomain)
    reeb = {"nodes": ["r0", "r1", "r2", "r3"], "cycle_rank": 1,
            "edges": [["r0", "r1"], ["r1", "r2"], ["r1", "r2"], ["r2", "r3"]]}
    jac = {"verdicts": [{"simplex": [v], "h_critical": True} for v in "abcd"]}
    assert oracle.reeb_problems(reeb, jac, torus=True) == []
    reeb["edges"].pop(1)
    assert oracle.reeb_problems(reeb, jac, torus=True)


# ---------------------------------------------------------------------------
# small runs of every workload

def test_torus_k1_smoke_and_count_bounds(fresh, monkeypatch, tmp_path):
    monkeypatch.setattr(gen, "TORUS_K1_SIZE", 4)
    result, _ = run.measure("torus_k1", 5, 0, traced=False)
    assert result["correct"] and result["failed"] == 0
    m = result["metrics"]
    assert m.keys() == {"op_s", "cold_op_s", "simplices_per_s", "setup_s", "peak_rss_mb"}
    assert all(v > 0 for v in m.values())

    result, _ = run.measure("torus_k1", 5, 0, traced=True)
    assert result["correct"]
    m = result["metrics"]
    # counts a faster program may lower: bounded here, not pinned
    assert m["jacobi.jacobi_set.calls_per_op"] >= 1
    assert 1 <= m["reeb.reeb_graph.levels"] <= 2 * 16 - 1
    # the traced op is the last of the round; its audit lists the critical
    # values
    with open(os.path.join(str(tmp_path), "torus_k1", "out", "audit.json")) as fh:
        crit = len(json.load(fh)["critical_values"])
    assert 1 <= m["reeb.fiber_components.calls"] <= 3 * (crit + 1)
    assert m["geometry.orient.calls"] == 0
    assert m["trace.overhead"] > 0
    assert os.path.exists(os.path.join(str(tmp_path), "trace-torus_k1.tsv"))


def test_torus_k2_smoke(fresh, monkeypatch):
    monkeypatch.setattr(gen, "TORUS_K2_SIZE", 3)
    result, _ = run.measure("torus_k2", 5, 0, traced=True)
    assert result["correct"] and result["failed"] == 0
    m = result["metrics"]
    assert m["jacobi.jacobi_set.calls_per_op"] >= 1
    assert m["reeb.fiber_components.calls"] == 0
    assert m["arrangement.vertices"] > 0 and m["geometry.orient.calls"] > 0


def test_examples_smoke_counts_the_known_exit_3_runs(fresh):
    result, report = run.measure("examples", 0, 0, traced=True)
    # one round is three passes: cold, warm, traced; only the runs recorded
    # as exiting 3 may fail, and a fix may make them pass
    expected = oracle.load_expected()
    known = sum(1 for k, v in expected.items()
                if k.startswith("examples/") and v["exit"][-1] == 3)
    assert result["attempted"] == 3 * 21
    assert result["failed"] <= 3 * known
    assert result["correct"], report
    m = result["metrics"]
    assert m["reeb.scaffold.fiber_calls_per_cover"] > 0
    assert m["cli.stage.scaffold_s"] > 0 and m["arrangement.locate.calls"] > 0
