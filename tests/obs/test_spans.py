"""Tests for lifecycle spans and the span tracker."""

import pytest

from repro.obs import Span, SpanTracker


class TestSpan:
    def test_open_close_duration(self):
        t = SpanTracker()
        s = t.open("running", "task", 10.0)
        assert not s.closed and s.duration == 0.0
        t.close(s, 25.0)
        assert s.closed and s.duration == 15.0 and not s.is_instant

    def test_instant_has_zero_duration(self):
        t = SpanTracker()
        s = t.instant("preempted", "task", 5.0)
        assert s.closed and s.is_instant and s.duration == 0.0

    def test_double_close_rejected(self):
        t = SpanTracker()
        s = t.open("x", "task", 0.0)
        t.close(s, 1.0)
        with pytest.raises(ValueError):
            t.close(s, 2.0)

    def test_close_before_start_rejected(self):
        t = SpanTracker()
        s = t.open("x", "task", 5.0)
        with pytest.raises(ValueError):
            t.close(s, 4.0)

    def test_children_inherit_task_and_track(self):
        t = SpanTracker()
        root = t.open("task:7", "task", 0.0, task_id=7, track="task:7")
        child = t.open("queued", "task", 0.0, parent=root)
        assert child.parent_id == root.span_id
        assert child.task_id == 7
        assert child.track == "task:7"


class TestTrackerRetention:
    def test_capacity_drops_oldest_and_counts(self):
        t = SpanTracker(capacity=2)
        for i in range(5):
            t.instant(f"i{i}", "task", float(i))
        assert len(t) == 2
        assert t.dropped == 3
        assert [s.name for s in t.finished] == ["i3", "i4"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanTracker(capacity=0)

