"""The span tracer: wrapping, restoring, self times and the layer metrics."""

import sys

import pytest

import tracing
from interference_lab import cli, clickstream, clustering, demand


def _bindings():
    """Every (module, name) -> object binding of a traced function."""
    originals = {id(getattr(sys.modules[f"interference_lab.{m}"], a))
                 for m, a, _ in tracing.TARGETS}
    return {(mod.__name__, name): value
            for mod in tracing._package_modules()
            for name, value in vars(mod).items() if id(value) in originals}


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    load = demand.DemandSystem.__dict__["load"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert clustering.exposure_share is clickstream.exposure_share
        assert clustering.exposure_share.__wrapped__ is before[
            ("interference_lab.clickstream", "exposure_share")]
        assert all(getattr(sys.modules[m], n) is not v for (m, n), v in before.items())
        assert demand.DemandSystem.__dict__["load"] is not load
    finally:
        tracer.restore()
    assert _bindings() == before
    assert all(getattr(sys.modules[m], n) is v for (m, n), v in before.items())
    assert demand.DemandSystem.__dict__["load"] is load


def test_self_times_add_up_to_the_parent_span():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")          # 0
    child = tracer.begin("child")        # 1
    grandchild = tracer.begin("leaf")    # 2
    tracer.end(grandchild)               # 4
    tracer.end(child)                    # 5
    other = tracer.begin("other")        # 8
    tracer.end(other)                    # 9
    tracer.end(root)                     # 10
    own = tracer.self_times()
    duration = [s.end - s.start for s in tracer.spans]
    assert own == [5.0, 2.0, 2.0, 1.0]
    assert sum(own) == duration[root]
    assert own[root] + duration[child] + duration[other] == duration[root]
    assert own[child] + duration[grandchild] == duration[child]


def test_layer_metrics_of_a_small_traced_run(tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for argv in (["gen", "--n", "200", "--seed", "3", "--out", f"{tmp_path}/s.json"],
                     ["simulate", "--system", f"{tmp_path}/s.json", "--p", "10",
                      "--workers", "1", "--seed", "3", "--out", f"{tmp_path}/b.csv"]):
            assert tracer.call(f"cli.{argv[0]}", cli.main, argv) == 0
    finally:
        tracer.restore()
    m = tracing.layer_metrics(tracer)
    assert m["experiment.draws"] == m["experiment.run_experiment.calls"] == 10
    assert m["demand.demand_at.calls"] == 10 + 2   # the global treatment effect adds 2
    assert m["reports.bytes_written"] == (tmp_path / "b.csv").stat().st_size
    assert m["cli.meta.s"] == 0 and m["cli.simulate.s"] > 0
    assert all(t >= 0 for t in tracer.self_times())
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.gen", "cli.simulate"]
    assert sum(tracer.self_times()) == pytest.approx(sum(s.end - s.start for s in roots))
