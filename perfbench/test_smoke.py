"""Smoke test of the benchmark itself: every workload at tiny size, and span self-time accounting.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Filled in by run.main from the untraced runs and the machine, not by a traced run.
FROM_PARENT = {"trace.overhead_s", "experiments.output_bytes", "machine.copy_gbps"}


def span(sid, start, end, parent, thread=0):
    return [sid, f"s{sid}", start, end, parent, thread, None]


def test_self_times_subtract_children():
    tree = [span(0, 0, 10, None), span(1, 1, 4, 0), span(2, 2, 3, 1), span(3, 5, 6, 0)]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_times_split_overlapping_threads():
    # Two worker threads run under a root span that waits for both.
    tree = [span(0, 0, 10, None), span(1, 1, 5, 0, thread=1), span(2, 3, 7, 0, thread=2)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_and_reports_missing_layers():
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    tracer = spans.Tracer()
    root = tracer.open("cli")
    assert tracer.wrap(owner, "inner", "grid.inner")
    assert tracer.wrap(owner, "outer", "kinetic.outer")
    assert not tracer.wrap(owner, "gone", "potential.gone")
    assert owner.outer(1) == 4
    tracer.close(root)
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {s[1]: names.get(s[4]) for s in tracer.spans}
    assert parents == {"cli": None, "kinetic.outer": "cli", "grid.inner": "kinetic.outer"}
    metrics = spans.layer_metrics(tracer)
    assert metrics["potential.build_s"] is None and metrics["potential.self_s"] is None
    assert metrics["kinetic.self_s"] is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tiny(name):
    record = run.run_workload(name, seed=3, seconds=0, trace=True, tiny=True)
    runs = record["runs"]
    assert [r["traced"] for r in runs] == [False, True]
    assert not [r["problems"] for r in runs if "problems" in r]

    e2e = [m["name"] for m in SPEC["end_to_end"]]
    values = run.summarize(dict(record, trace=False), e2e)["values"]
    assert all(values[m] > 0 for m in e2e)

    layers = runs[1]["layers"]
    assert runs[1]["missing"] == []
    for m in SPEC["per_layer"]:
        assert m["name"] in FROM_PARENT or layers[m["name"]] is not None, m["name"]
    layer_self = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_self == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["evolution.steps"] > 0 and layers["kinetic.apply_calls"] > 0
    if name == "mol2d_2e_n5_strang":
        assert layers["potential.coulomb_s"] > 0
    else:
        assert layers["analytic.series_s"] > 0 and layers["potential.coulomb_s"] == 0


def test_seed_changes_only_the_molecule_geometry():
    for name, w in WORKLOADS.items():
        same = w.config(1, False) == w.config(2, False)
        assert same != w.seeded, name
        assert w.config(5, False) == w.config(5, False)
