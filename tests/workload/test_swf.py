"""Tests for SWF (Standard Workload Format) interchange."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.scheduling import FirstPrice
from repro.site import simulate_site
from repro.workload import economy_spec, generate_trace
from repro.workload.spec import BimodalSpec
from repro.workload.swf import dump_swf, load_swf, parse_swf, save_swf


def swf_line(job=1, submit=0.0, run=100.0, req_time=-1.0, status=1):
    fields = ["-1"] * 18
    fields[0] = str(job)
    fields[1] = str(submit)
    fields[3] = str(run)
    fields[7] = "1"
    fields[8] = str(req_time)
    fields[10] = str(status)
    return " ".join(fields)


SAMPLE = "\n".join(
    [
        "; Comment header",
        "; UnixStartTime: 0",
        swf_line(1, submit=100.0, run=50.0, req_time=60.0),
        swf_line(2, submit=0.0, run=30.0),
        swf_line(3, submit=200.0, run=10.0, status=0),  # failed
        swf_line(4, submit=150.0, run=0.0),  # zero-length
    ]
)


class TestParse:
    def test_skips_comments_failed_and_zero_length(self):
        trace = parse_swf(SAMPLE, seed=0)
        assert len(trace) == 2

    def test_sorted_and_normalized_arrivals(self):
        trace = parse_swf(SAMPLE, seed=0)
        assert trace.arrival[0] == 0.0
        assert trace.arrival[1] == 100.0  # 100 - 0
        assert trace.runtime[0] == 30.0

    def test_requested_time_becomes_estimate(self):
        trace = parse_swf(SAMPLE, seed=0)
        # job 2 has no requested time -> estimate = runtime
        assert trace.estimate[0] == 30.0
        assert trace.estimate[1] == 60.0

    def test_keep_failed(self):
        trace = parse_swf(SAMPLE, seed=0, keep_failed=True)
        assert len(trace) == 3

    def test_value_synthesis_uses_class_model(self):
        lines = "\n".join(swf_line(i, submit=float(i), run=100.0) for i in range(2000))
        trace = parse_swf(
            lines, seed=0, value=BimodalSpec(low_mean=2.0, skew=5.0, cv=0.1)
        )
        unit = trace.value / trace.runtime
        spec = BimodalSpec(low_mean=2.0, skew=5.0, cv=0.1)
        expected = (1 - spec.high_fraction) * spec.low_mean + spec.high_fraction * spec.high_mean
        assert unit.mean() == pytest.approx(expected, rel=0.1)

    def test_synthesis_reproducible(self):
        a = parse_swf(SAMPLE, seed=7)
        b = parse_swf(SAMPLE, seed=7)
        c = parse_swf(SAMPLE, seed=8)
        assert np.array_equal(a.value, b.value)
        assert not np.array_equal(a.value, c.value)

    def test_penalty_bound_applied(self):
        trace = parse_swf(SAMPLE, seed=0, penalty_bound=0.0)
        assert (trace.bound == 0.0).all()

    def test_short_line_rejected(self):
        with pytest.raises(WorkloadError):
            parse_swf("1 2 3\n")

    def test_garbage_field_rejected(self):
        bad = swf_line().split()
        bad[1] = "xyz"
        with pytest.raises(WorkloadError):
            parse_swf(" ".join(bad))

    def test_empty_input(self):
        assert len(parse_swf("; nothing here\n")) == 0


class TestRoundTrip:
    def test_dump_then_parse_preserves_shape(self):
        original = generate_trace(economy_spec(n_jobs=50), seed=3)
        text = dump_swf(original, comment="round trip")
        rebuilt = parse_swf(text, seed=3)
        assert len(rebuilt) == 50
        assert np.allclose(rebuilt.arrival, original.arrival, atol=0.01)
        assert np.allclose(rebuilt.runtime, original.runtime, atol=0.01)
        assert np.allclose(rebuilt.estimate, original.estimate, atol=0.01)

    def test_file_roundtrip(self, tmp_path):
        original = generate_trace(economy_spec(n_jobs=20), seed=4)
        path = tmp_path / "trace.swf"
        save_swf(original, str(path), comment="unit test")
        rebuilt = load_swf(str(path), seed=0)
        assert len(rebuilt) == 20
        assert "unit test" in path.read_text()

    def test_parsed_trace_is_simulatable(self):
        lines = "\n".join(
            swf_line(i, submit=float(i * 10), run=50.0 + i) for i in range(40)
        )
        trace = parse_swf(lines, seed=0, penalty_bound=0.0)
        result = simulate_site(trace, FirstPrice(), processors=4)
        assert result.ledger.completed == 40
