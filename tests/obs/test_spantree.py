"""Span-tree reconstruction: depth-exact nesting, flat traces, summaries."""

from repro.obs.analysis import build_span_tree, critical_path, tree_summary, walk
from repro.obs.spans import Span, SpanRecorder


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _recorded_forest():
    """solve > (recovery > construct, checkpoint) recorded live."""
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, timebase="sim")
    with rec.span("solve", scheme="LI"):
        clock.t = 1.0
        with rec.span("recovery"):
            with rec.span("construct"):
                clock.t = 3.0
        with rec.span("checkpoint"):
            clock.t = 4.0
        clock.t = 10.0
    return rec.spans


class TestDepthReconstruction:
    def test_rebuilds_recorded_nesting(self):
        roots = build_span_tree(_recorded_forest())
        assert [r.name for r in roots] == ["solve"]
        solve = roots[0]
        assert [c.name for c in solve.children] == ["recovery", "checkpoint"]
        assert [c.name for c in solve.children[0].children] == ["construct"]

    def test_zero_duration_siblings_stay_siblings(self):
        # Containment cannot tell these apart; depth stamping can: a
        # zero-cost recovery closes at the very instant a restart opens.
        clock = FakeClock()
        rec = SpanRecorder(clock=clock, timebase="sim")
        with rec.span("solve"):
            clock.t = 2.0
            with rec.span("recovery"):
                pass  # zero duration at t=2
            with rec.span("restart"):
                pass  # zero duration at t=2
            clock.t = 5.0
        roots = build_span_tree(rec.spans)
        assert [c.name for c in roots[0].children] == ["recovery", "restart"]
        assert all(not c.children for c in roots[0].children)

    def test_open_spans_at_teardown_become_roots(self):
        # recorder torn down mid-span: the orphan (depth 1, parent never
        # closed) surfaces as a root instead of vanishing
        spans = [Span(name="orphan", t_start=1.0, t_end=2.0, depth=1)]
        roots = build_span_tree(spans)
        assert [r.name for r in roots] == ["orphan"]

    def test_children_sorted_by_start_time(self):
        roots = build_span_tree(_recorded_forest())
        starts = [c.span.t_start for c in roots[0].children]
        assert starts == sorted(starts)


class TestFlatTraces:
    def test_zero_duration_depth0_siblings_stay_two_roots(self):
        # A flat trace (every span at depth 0) is nested by depths alone:
        # a recovery closing at the instant a restart opens and closes
        # is not inside it, though its interval is.
        clock = FakeClock()
        rec = SpanRecorder(clock=clock, timebase="sim")
        clock.t = 2.0
        with rec.span("recovery"):
            pass
        with rec.span("restart"):
            pass
        assert [s.depth for s in rec.spans] == [0, 0]
        roots = build_span_tree(rec.spans)
        assert [r.name for r in roots] == ["recovery", "restart"]
        assert all(not r.children for r in roots)


class TestAggregates:
    def test_walk_yields_depths(self):
        pairs = [(n.name, d) for n, d in walk(build_span_tree(_recorded_forest()))]
        assert pairs == [
            ("solve", 0),
            ("recovery", 1),
            ("construct", 2),
            ("checkpoint", 1),
        ]

    def test_tree_summary_carries_depth_and_totals(self):
        rows = tree_summary(_recorded_forest())
        by_name = {r["name"]: r for r in rows}
        assert by_name["solve"]["depth"] == 0
        assert by_name["recovery"]["depth"] == 1
        assert by_name["construct"]["depth"] == 2
        assert by_name["solve"]["total_s"] == 10.0
        assert by_name["recovery"]["count"] == 1
        assert by_name["recovery"]["mean_s"] == 2.0

    def test_tree_summary_groups_repeats(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock, timebase="sim")
        with rec.span("solve"):
            for dt in (1.0, 3.0):
                with rec.span("recovery"):
                    clock.t += dt
        rows = tree_summary(rec.spans)
        rec_row = next(r for r in rows if r["name"] == "recovery")
        assert rec_row["count"] == 2
        assert rec_row["total_s"] == 4.0
        assert rec_row["max_s"] == 3.0

    def test_self_time_excludes_children(self):
        roots = build_span_tree(_recorded_forest())
        solve = roots[0]
        # solve covers 10s; recovery (2s) + checkpoint (1s) leave 7s
        assert solve.self_time_s == 7.0

    def test_critical_path_descends_longest_child(self):
        path = critical_path(build_span_tree(_recorded_forest()))
        assert [n.name for n in path] == ["solve", "recovery", "construct"]

    def test_critical_path_of_empty_forest(self):
        assert critical_path([]) == []
