"""Tests for the repro.obs instrumentation subsystem."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid import EventLoop
from repro.obs import (
    NOOP,
    Counter,
    Gauge,
    Histogram,
    ManualClock,
    MetricsRegistry,
    Obs,
    Tracer,
    as_obs,
    jsonable,
    render_json,
)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a.b")
        c1.inc(3)
        assert reg.counter("a.b") is c1
        assert reg.counter("a.b").value == 3.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")
        with pytest.raises(ConfigurationError):
            reg.histogram("x")

    def test_counter_cannot_decrease(self):
        c = Counter("c")
        with pytest.raises(ConfigurationError):
            c.inc(-1)
        c.inc(0)
        c.inc(2.5)
        assert c.value == 2.5

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(7.0)
        assert g.value == 7.0

    def test_histogram_summary_is_exact(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["p50"] == 2.5

    def test_empty_histogram_summary(self):
        s = Histogram("h").summary()
        assert s["count"] == 0
        assert s["mean"] == 0.0

    def test_conveniences(self):
        reg = MetricsRegistry()
        reg.inc("n", 2)
        reg.set_gauge("level", 0.5)
        reg.observe("wait", 3.0)
        assert reg.counter("n").value == 2.0
        assert reg.gauge("level").value == 0.5
        assert reg.histogram("wait").count == 1

    def test_matching_respects_name_boundaries(self):
        reg = MetricsRegistry()
        reg.inc("grid.queue")
        reg.inc("grid.queue.NCSA")
        reg.inc("grid.queue_wait")  # shares the prefix string, not the path
        names = [inst.name for inst in reg.matching("grid.queue")]
        assert names == ["grid.queue", "grid.queue.NCSA"]

    def test_introspection(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.set_gauge("a", 1.0)
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "nope" not in reg
        assert len(reg) == 2
        with pytest.raises(ConfigurationError):
            reg.get("nope")

    def test_as_dict_buckets_by_kind(self):
        reg = MetricsRegistry()
        reg.inc("c", 4)
        reg.set_gauge("g", 2.0)
        reg.observe("h", 1.0)
        d = reg.as_dict()
        assert d["counters"] == {"c": 4.0}
        assert d["gauges"] == {"g": 2.0}
        assert d["histograms"]["h"]["count"] == 1


class TestTracer:
    def test_nesting_paths_and_completion_order(self):
        clock = ManualClock()
        tr = Tracer(clock)
        with tr.span("outer"):
            clock.advance(1.0)
            with tr.span("inner"):
                clock.advance(2.0)
        assert [r.name for r in tr.records] == ["inner", "outer"]
        inner, outer = tr.records
        assert inner.path == ("outer", "inner")
        assert inner.depth == 1
        assert outer.path == ("outer",)
        assert inner.duration == 2.0
        assert outer.duration == 3.0

    def test_active_path_tracks_stack(self):
        tr = Tracer(ManualClock())
        assert tr.active_path == ()
        with tr.span("a"):
            with tr.span("b"):
                assert tr.active_path == ("a", "b")
            assert tr.active_path == ("a",)
        assert tr.active_path == ()

    def test_span_attrs_and_result_attachment(self):
        tr = Tracer(ManualClock())
        with tr.span("work", kappa=100.0) as rec:
            rec.attrs["result"] = "ok"
        assert tr.records[0].attrs == {"kappa": 100.0, "result": "ok"}

    def test_event_is_zero_duration(self):
        clock = ManualClock(5.0)
        tr = Tracer(clock)
        rec = tr.event("outage", site="PSC")
        assert rec.start == rec.end == 5.0
        assert rec.duration == 0.0
        assert rec.attrs == {"site": "PSC"}

    def test_exception_unwinds_stack_and_records(self):
        tr = Tracer(ManualClock())
        with pytest.raises(RuntimeError):
            with tr.span("broken"):
                raise RuntimeError("boom")
        assert tr.active_path == ()
        assert [r.name for r in tr.records] == ["broken"]

    def test_total_duration_and_clock_override(self):
        default = ManualClock()
        other = ManualClock(100.0)
        other.unit = "h"
        tr = Tracer(default)
        with tr.span("step"):
            default.advance(1.0)
        with tr.span("step", clock=other):
            other.advance(4.0)
        assert tr.total_duration("step") == 5.0
        assert [r.unit for r in tr.named("step")] == ["s", "h"]


class TestNoopHandle:
    def test_as_obs_normalization(self):
        assert as_obs(None) is NOOP
        real = Obs()
        assert as_obs(real) is real

    def test_noop_is_disabled_and_stateless(self):
        NOOP.inc("x", 5)
        NOOP.set_gauge("y", 1.0)
        NOOP.observe("z", 2.0)
        with NOOP.span("phase", attr=1) as rec:
            NOOP.event("tick")
            assert rec is not None
        assert NOOP.enabled is False
        assert len(NOOP.metrics) == 0
        assert NOOP.tracer.records == []
        assert NOOP.metrics.counter("x").value == 0.0

    def test_real_handle_records(self):
        obs = Obs(clock=ManualClock())
        with obs.span("phase"):
            obs.inc("events")
        assert obs.enabled is True
        assert obs.metrics.counter("events").value == 1.0
        assert [r.name for r in obs.tracer.records] == ["phase"]


class TestDESTimestamps:
    def _run(self):
        obs = Obs()
        loop = EventLoop(obs=obs)
        loop.schedule(1.0, lambda: obs.event("tick", clock=loop.clock))
        loop.schedule(2.5, lambda: obs.event("tick", clock=loop.clock))
        loop.run()
        return obs, loop

    def test_sim_clock_stamps_simulated_hours(self):
        obs, loop = self._run()
        ticks = obs.tracer.named("tick")
        assert [r.start for r in ticks] == [1.0, 2.5]
        assert all(r.unit == "h" for r in ticks)
        assert obs.metrics.counter("des.events").value == 2.0
        assert obs.metrics.gauge("des.sim_time_hours").value == loop.now == 2.5

    def test_timestamps_are_deterministic(self):
        obs_a, _ = self._run()
        obs_b, _ = self._run()
        assert (render_json(obs_a.tracer.records)
                == render_json(obs_b.tracer.records))
        assert render_json(obs_a.metrics) == render_json(obs_b.metrics)


class TestExport:
    def test_jsonable_sanitizes(self):
        obj = {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "nan": float("nan"),
            "inf": float("inf"),
            "arr": np.arange(3),
            "tup": (1, 2),
            5: "non-string key",
        }
        out = jsonable(obj)
        assert out["i"] == 3 and isinstance(out["i"], int)
        assert out["f"] == 1.5 and isinstance(out["f"], float)
        assert out["nan"] is None and out["inf"] is None
        assert out["arr"] == [0, 1, 2]
        assert out["tup"] == [1, 2]
        assert out["5"] == "non-string key"

    def test_render_json_round_trips(self):
        doc = {"a": np.float64(2.0), "b": [np.int32(1)]}
        parsed = json.loads(render_json(doc))
        assert parsed == {"a": 2.0, "b": [1]}
        assert math.isfinite(parsed["a"])


class TestRunReportPhysics:
    @pytest.mark.parametrize("layout", ["vectorized", "batched", "reference"])
    def test_je_rate_is_reported_for_every_kernel(self, reduced_model,
                                                  layout):
        """One engine call per group, the plan's stacked call and the
        scalar oracle all integrate inside ``smd.ensemble`` spans, so the
        run report's JE-samples/sec never degrades to None."""
        from types import SimpleNamespace

        from repro.obs import campaign_run_report
        from repro.smd import PullingProtocol, run_pulling_ensemble
        from repro.smd.plan import run_cells

        obs = Obs()
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=2.0,
                                equilibration_ns=0.0)
        if layout == "batched":
            run_cells(reduced_model, [(proto, ())], 2, 2, seed=3,
                      n_records=5, obs=obs)
        else:
            for seed in (3, 4):
                run_pulling_ensemble(reduced_model, proto, 2, seed=seed,
                                     n_records=5, kernel=layout, obs=obs)
        campaign = SimpleNamespace(
            per_resource_utilization={}, per_resource_jobs={},
            total_cpu_hours=0.0, makespan_hours=0.0, mean_wait_hours=0.0,
            requeues=0, unplaced=[], completed=[])
        result = SimpleNamespace(batch=SimpleNamespace(campaign=campaign),
                                 summary=lambda: {})
        physics = campaign_run_report(result, obs)["physics"]
        assert physics["je_samples"] == 4
        assert physics["ensemble_wall_s"] > 0.0
        assert physics["je_samples_per_sec"] == pytest.approx(
            4 / physics["ensemble_wall_s"])
