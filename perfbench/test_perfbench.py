"""Tests of the benchmark's own arithmetic (``measure.py``) and compare step.

No program code runs here.

Run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from types import SimpleNamespace

import pytest

import measure
import run as launcher


# ------------------------------------------------------------ percentile rule
def test_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(99, 1000) == 10
    assert measure.percentile_supported(99, 1000)
    assert not measure.percentile_supported(99, 999)
    assert measure.percentile_supported(50, 20)
    assert not measure.percentile_supported(50, 19)
    assert not measure.percentile_supported(99, 0)


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    values = list(range(1, 1001))  # 1..1000
    assert measure.percentile(values, 99) == 990
    assert measure.percentile(values[::-1], 50) == 500
    with pytest.raises(ValueError, match="10 samples beyond"):
        measure.percentile(values[:999], 99)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert measure.quartiles(values) == (q1, q2, q3)
    assert measure.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# --------------------------------------------------------- per-pair ratios
def test_pair_ratio_median_is_the_median_of_ratios_not_a_ratio_of_medians():
    dense = [1.0, 2.0, 10.0]
    sparse = [2.0, 1.0, 4.0]
    # ratios 0.5, 2.0, 2.5 -> median 2.0; a ratio of medians would give 1.0
    assert measure.pair_ratio_median(dense, sparse) == 2.0
    assert statistics.median(dense) / statistics.median(sparse) == 1.0


def test_pair_ratio_median_cancels_a_slow_spell_shared_by_both_arms():
    base_dense, base_sparse = 0.3, 1.2
    slowdowns = [1.0, 1.3, 0.9, 2.0, 1.1]
    dense = [base_dense * s for s in slowdowns]
    sparse = [base_sparse * s for s in slowdowns]
    assert measure.pair_ratio_median(dense, sparse) == pytest.approx(0.25)


def test_pair_ratio_median_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        measure.pair_ratio_median([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        measure.pair_ratio_median([], [])


# ----------------------------------------------------------------- ok_pct
def test_raised_exception_counts_as_failed():
    tally = measure.Tally()

    def boom():
        raise ValueError("length not divisible by M")

    assert tally.attempt(lambda: 7) == (True, 7)
    assert tally.attempt(boom) == (False, None)
    assert tally.attempt(boom) == (False, None)
    assert tally.attempted == 3 and tally.failed == 2
    assert tally.failures == {"ValueError": 2}
    assert tally.correct  # a refusal is a failure, not a wrong answer
    assert tally.ok_pct() == pytest.approx(100.0 / 3)


def test_wrong_output_fails_and_clears_correct():
    tally = measure.Tally()
    tally.attempt(lambda: None)
    tally.attempt(lambda: None)
    tally.wrong()
    assert tally.failed == 1 and not tally.correct
    assert tally.ok_pct() == 50.0
    with pytest.raises(ValueError):
        measure.ok_pct(0, 0)


# ---------------------------------------------------------------- open loop
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds


class FakeServer:
    """Batches everything queued; each ``step`` with work costs ``service`` s."""

    def __init__(self, clock, service, refuse=()):
        self.clock, self.service, self.refuse = clock, service, set(refuse)
        self.queue = []

    def enqueue(self, request):
        if request in self.refuse:
            raise ValueError(request)
        self.queue.append(request)

    def step(self):
        if not self.queue:
            return []
        self.clock.now += self.service
        done, self.queue = self.queue, []
        return [SimpleNamespace(request_id=r) for r in done]

    @property
    def pending_count(self):
        return len(self.queue)

    def next_deadline(self):
        return None


def test_open_loop_latency_runs_from_the_scheduled_time():
    clock = FakeClock()
    server = FakeServer(clock, service=0.5)
    run = measure.run_open_loop(
        ["a", "b", "c"], [0.0, 0.1, 2.0], server, str, clock=clock, sleep=clock.sleep
    )
    # "a" is sent on time and served in 0.5 s.  "b" was due at 0.1 but the
    # loop was busy serving "a" until 0.5: it is sent 0.4 s late and its
    # latency counts that stall (0.5 + 0.5 - 0.1 = 0.9), not just its service.
    assert run.latency["a"] == pytest.approx(0.5)
    assert run.latency["b"] == pytest.approx(0.9)
    assert run.latency["c"] == pytest.approx(0.5)
    assert run.lateness == pytest.approx([0.0, 0.4, 0.0])
    assert run.busy_s == pytest.approx(1.5)
    assert run.wall_s == pytest.approx(2.5)
    assert run.failures == {}


def test_open_loop_keeps_its_schedule_when_the_server_is_idle():
    clock = FakeClock()
    server = FakeServer(clock, service=0.01)
    offsets = [0.0, 1.0, 1.5, 4.0]
    run = measure.run_open_loop(
        list("wxyz"), offsets, server, str, clock=clock, sleep=clock.sleep
    )
    assert max(run.lateness) == 0.0
    assert [run.scheduled[r] - 100.0 for r in "wxyz"] == pytest.approx(offsets)
    assert all(t == pytest.approx(0.01) for t in run.latency.values())


def test_open_loop_counts_refused_and_lost_requests_as_failures():
    clock = FakeClock()

    class Flaky(FakeServer):
        def step(self):
            if "lost" in self.queue:
                self.queue = []
                raise RuntimeError("batch failed")
            return super().step()

    server = Flaky(clock, service=0.1, refuse={"bad"})
    run = measure.run_open_loop(
        ["ok", "bad", "lost"], [0.0, 1.0, 2.0], server, str,
        clock=clock, sleep=clock.sleep,
    )
    assert set(run.latency) == {"ok"}
    assert run.failures == {"bad": "ValueError", "lost": "RuntimeError"}


def test_open_loop_rejects_a_schedule_that_runs_backwards():
    clock = FakeClock()
    with pytest.raises(ValueError):
        measure.run_open_loop(["a", "b"], [1.0, 0.5], FakeServer(clock, 0.1), str,
                              clock=clock, sleep=clock.sleep)


# ------------------------------------------------------------ instrumentation
class Stage:
    def inner(self, n):
        return n + 1

    def outer(self, n):
        return self.inner(n) * 2


def test_span_recorder_nests_wrapped_calls_and_restores_them():
    ticks = iter(range(100))
    rec = measure.SpanRecorder(clock=lambda: float(next(ticks)))
    original = Stage.__dict__["inner"]
    targets = [(Stage, "outer", "outer", lambda self, n: {"n": n}),
               (Stage, "inner", "inner", None, lambda r: {"result": r})]
    with rec.installed(targets):
        with rec.region("op"):
            assert Stage().outer(3) == 8
    assert Stage.__dict__["inner"] is original
    names = [s.name for s in rec.spans]
    assert names == ["op", "outer", "inner"]
    op, outer, inner = rec.spans
    assert outer.parent == 0 and inner.parent == 1
    assert outer.attrs == {"n": 3} and inner.attrs == {"result": 4}
    assert rec.within(0, "inner") == inner.duration == 1.0
    assert rec.per_root("op", "inner") == [1.0]


def test_memory_probe_keeps_outer_peaks_exact_across_nested_resets():
    probe = measure.MemoryProbe()
    with probe.tracing():
        with probe.region("outer"):
            big = bytearray(8 << 20)
            del big
            with probe.region("inner"):
                small = bytearray(1 << 20)
                del small
    assert tracemalloc.is_tracing() is False
    assert probe.peaks["outer"][0] >= 8 << 20
    assert (1 << 20) <= probe.peaks["inner"][0] < 2 << 20
    assert probe.mib("missing") == 0.0


# ------------------------------------------------------------------ compare
def _record(nproc, threads, speedup):
    return {
        "env": {"nproc": nproc, "blas": {"threads": threads}},
        "result": {"metrics": {"speedup_vs_dense": {"value": speedup, "unit": "x"}}},
    }


@pytest.mark.parametrize("other", [(4, 1), (2, 2)])
def test_compare_refuses_different_cpu_or_blas_thread_counts(tmp_path, capsys, other):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record(2, 1, 10.0)))
    b.write_text(json.dumps(_record(*other, 10.0)))
    assert launcher.compare(str(a), str(b)) == 2
    assert "refusing" in capsys.readouterr().out


def test_compare_flags_a_change_beyond_the_bound(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record(2, 1, 1.0)))
    b.write_text(json.dumps(_record(2, 1, 0.7)))
    assert launcher.compare(str(a), str(b)) == 0
    assert "WORSE" in capsys.readouterr().out
