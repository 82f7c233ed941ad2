"""Self-time arithmetic, patching and the blocking-path split."""

import types

import pytest

import tracer as tracing
from tracer import END, NAME, PARENT, SELF, START, Target, Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return Clock()


def by_name(tracer):
    return {span[NAME]: span for span in tracer.spans}


class TestSelfTime:
    def test_nested_spans_subtract_children(self, clock):
        tracer = Tracer(clock)

        def leaf():
            clock.advance(2.0)

        leaf = tracer.instrument(leaf, "leaf")

        def middle():
            clock.advance(1.0)
            leaf()
            leaf()
            clock.advance(0.5)

        middle = tracer.instrument(middle, "middle")

        def root():
            clock.advance(0.25)
            middle()
            clock.advance(0.25)

        tracer.instrument(root, "root")()
        spans = by_name(tracer)
        assert spans["root"][SELF] == pytest.approx(0.5)
        assert spans["middle"][SELF] == pytest.approx(1.5)
        assert spans["root"][END] - spans["root"][START] == pytest.approx(6.0)
        # Self times under one root add up to the root's duration.
        assert sum(s[SELF] for s in tracer.spans) == pytest.approx(6.0)
        leaves = [s for s in tracer.spans if s[NAME] == "leaf"]
        assert {s[PARENT] for s in leaves} == {spans["middle"][0]}
        assert spans["root"][PARENT] is None

    def test_aggregated_callable_keeps_totals_not_spans(self, clock):
        tracer = Tracer(clock)

        def inner():
            clock.advance(0.1)

        inner = tracer.instrument(inner, "inner", aggregate=True)

        def step():
            clock.advance(0.4)
            inner()

        step = tracer.instrument(step, "step", aggregate=True)

        def outer():
            for _ in range(3):
                step()
            clock.advance(1.0)

        tracer.instrument(outer, "outer")()
        assert [s[NAME] for s in tracer.spans] == ["outer"]
        assert tracer.spans[0][SELF] == pytest.approx(1.0)
        totals = tracer.aggregated()
        assert totals["step"][0] == 3
        assert totals["step"][1] == pytest.approx(1.2)
        assert totals["inner"] == (3, pytest.approx(0.3))

    def test_exception_still_closes_the_span(self, clock):
        tracer = Tracer(clock)

        def boom():
            clock.advance(1.0)
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.instrument(boom, "boom")()
        assert tracer.spans[0][SELF] == pytest.approx(1.0)
        assert tracer._state().stack == []

    def test_ident_is_inherited_and_label_renames(self, clock):
        tracer = Tracer(clock)
        child = tracer.instrument(lambda: None, "child")
        parent = tracer.instrument(
            lambda cid: child(), "parent",
            ident=lambda cid: cid,
            label=lambda cid: "parent.special" if cid == "c-2" else "parent")
        parent("c-1")
        parent("c-2")
        idents = [(s[NAME], s[tracing.IDENT]) for s in tracer.spans]
        assert idents == [("child", "c-1"), ("parent", "c-1"),
                          ("child", "c-2"), ("parent.special", "c-2")]


class TestInstall:
    def make_module(self, monkeypatch):
        import sys

        defining = types.ModuleType("fakepkg.defining")
        importer = types.ModuleType("fakepkg.importer")

        def work(x):
            return x + 1

        class Thing:
            def method(self):
                return "m"

            @classmethod
            def build(cls):
                return cls()

        class Child(Thing):
            pass

        defining.work = work
        defining.Thing = Thing
        defining.Child = Child
        importer.work = work  # `from .defining import work`
        monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
        monkeypatch.setitem(sys.modules, "fakepkg.defining", defining)
        monkeypatch.setitem(sys.modules, "fakepkg.importer", importer)
        return defining, importer, work

    def test_patches_every_binding_and_restores(self, monkeypatch, clock):
        defining, importer, work = self.make_module(monkeypatch)
        tracer = Tracer(clock)
        tracer.install([
            Target("fakepkg.defining", "work", "pkg.work"),
            Target("fakepkg.defining", "Child.method", "pkg.method"),
            Target("fakepkg.defining", "Thing.build", "pkg.build"),
            Target("fakepkg.defining", "Thing.gone", "pkg.gone"),
            Target("fakepkg.nowhere", "f", "pkg.nowhere"),
        ])
        assert tracer.missing == ["pkg.gone", "pkg.nowhere"]
        assert importer.work is defining.work is not work
        assert importer.work(1) == 2
        assert defining.Child().method() == "m"
        assert isinstance(defining.Child.build(), defining.Child)
        assert sorted(s[NAME] for s in tracer.spans) == [
            "pkg.build", "pkg.method", "pkg.work"]
        tracer.uninstall()
        assert importer.work is defining.work is work
        assert "method" not in vars(defining.Child)  # inherited again
        before = len(tracer.spans)
        defining.Child().method()
        assert len(tracer.spans) == before


def span(name, start, end, *, thread="bench-http", ident=None, parent=None,
         self_s=None, root_start=None, span_id=0):
    return (span_id, parent, name, ident, thread, start, end,
            end - start if self_s is None else self_s,
            start if root_start is None else root_start)


class TestBlockingPath:
    WORKER = tracing.RUNNER_THREAD_PREFIX + "_0"

    def campaign_spans(self):
        return [
            span("service.state.transition", 10.0, 10.1, thread=self.WORKER,
                 ident="c-1"),
            span("workflow.streaming.run_streamed_study", 10.2, 14.2,
                 thread=self.WORKER, self_s=1.0),
            span("store.sharded.put", 11.0, 14.0, thread=self.WORKER,
                 parent=1, self_s=3.0, root_start=10.2),
            span("core.estimate_pmf", 14.3, 14.4, thread=self.WORKER),
            span("service.state.transition", 14.5, 14.6, thread=self.WORKER,
                 ident="c-1"),
        ]

    def test_run_window_and_glue(self):
        (window, glue), = tracing.run_windows(self.campaign_spans())
        assert window == (10.0, 14.6)
        # 4.6 s window, roots cover 0.1 + 4.0 + 0.1 + 0.1.
        assert glue == pytest.approx(0.3)

    def test_polling_is_counted_apart(self):
        spans = self.campaign_spans() + [
            # a status poll while the campaign runs: waiting on the GIL
            span("service.api.handle", 12.0, 12.5, self_s=0.1),
            span("service.state.get", 12.1, 12.5, parent=7, self_s=0.4,
                 root_start=12.0),
            # a long-poll that began before the window
            span("service.api.longpoll", 9.9, 14.7, thread="pool-2"),
            # the result fetch after the run: on the blocking path
            span("service.api.handle", 15.0, 15.2, self_s=0.05),
            span("service.state.load_result", 15.05, 15.2, parent=9,
                 self_s=0.15, root_start=15.0),
        ]
        windows = [w for w, _ in tracing.run_windows(spans)]
        totals = tracing.family_totals(spans, {"md.step": (5, 1.5)}, windows)
        assert totals["service.api.poll"] == (2, pytest.approx(0.5 + 4.8))
        assert totals["service.api.handle"] == (1, pytest.approx(0.05))
        assert totals["service.state.load_result"] == (
            1, pytest.approx(0.15))
        assert "service.state.get" not in totals
        assert totals["store.sharded.put"] == (1, pytest.approx(3.0))
        assert totals["md.step"] == (5, 1.5)

    def test_requests_match_the_handler_they_contain(self):
        spans = [span("service.api.handle", 1.2, 1.6),
                 span("service.api.longpoll", 3.1, 3.9),
                 span("service.state.get", 1.3, 1.4)]
        requests = [("a", 1.0, 2.0), ("healthz", 2.1, 2.2), ("b", 3.0, 4.0)]
        assert tracing.handler_durations(spans, requests) == [
            pytest.approx(0.4), None, pytest.approx(0.8)]
