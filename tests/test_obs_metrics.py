"""Metrics-registry contract: determinism, window math, wire shape.

The registry is the source of every scraped payload, so its contract
is determinism under an injectable clock: two registries fed the same
events at the same clock readings must produce identical snapshots —
that is what makes ``MetricsReply`` frames comparable across replicas
and runs.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, WindowedHistogram, items_to_dict


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- counters and gauges ------------------------------------------------------


def test_counters_are_get_or_create_and_monotonic():
    registry = MetricsRegistry(clock=FakeClock())
    counter = registry.counter("net.frames_in")
    counter.inc()
    counter.inc(4)
    assert registry.counter("net.frames_in") is counter
    assert registry.snapshot()["net.frames_in"] == 5.0
    counter.set(2)
    assert registry.snapshot()["net.frames_in"] == 2.0


def test_gauges_hold_the_last_set_value():
    registry = MetricsRegistry(clock=FakeClock())
    registry.gauge("mempool.depth").set(7)
    registry.gauge("mempool.depth").set(3)
    assert registry.snapshot()["mempool.depth"] == 3.0


# -- windowed histogram math --------------------------------------------------


def test_window_evicts_samples_older_than_the_window():
    clock = FakeClock()
    hist = WindowedHistogram("commit", window=2.0, clock=clock)
    hist.record(1.0)
    clock.advance(1.0)
    hist.record(1.0)
    assert hist.count == 2
    clock.advance(1.5)  # first sample (t=0) now outside [0.5, 2.5]
    assert hist.count == 1
    clock.advance(2.0)
    assert hist.count == 0
    assert hist.stats() == {
        "count": 0.0,
        "rate": 0.0,
        "mean": 0.0,
        "p50": 0.0,
        "p95": 0.0,
        "max": 0.0,
    }


def test_rate_is_events_per_second_over_the_window():
    clock = FakeClock()
    hist = WindowedHistogram("commit", window=2.0, clock=clock)
    for _ in range(10):
        hist.record(1.0)  # a meter: constant 1.0 per event
    assert hist.rate == 5.0  # 10 events / 2s window


def test_rate_of_a_young_instrument_divides_by_its_age():
    """Before a whole window has elapsed the rate is over the time the
    instrument has existed, not the full window; after, over the window."""
    clock = FakeClock(100.0)
    hist = WindowedHistogram("commit", window=2.0, clock=clock)
    clock.advance(0.5)
    for _ in range(10):
        hist.record(1.0)
    assert hist.rate == 20.0  # 10 events / 0.5 s, not / 2 s
    assert hist.stats()["rate"] == 20.0
    clock.advance(1.0)
    assert hist.rate == 10.0 / 1.5
    clock.advance(1.0)  # age 2.5 s: capped at the window, samples still live
    assert hist.rate == 5.0
    clock.advance(1.0)  # the samples aged out
    assert hist.rate == 0.0


def test_percentiles_are_nearest_rank():
    clock = FakeClock()
    hist = WindowedHistogram("lat", window=100.0, clock=clock)
    for v in range(1, 101):  # 1..100
        hist.record(float(v))
    stats = hist.stats()
    assert stats["p50"] == 50.0
    assert stats["p95"] == 95.0
    assert stats["max"] == 100.0
    assert stats["mean"] == 50.5
    assert hist.percentile(50) == 50.0


def test_maxlen_bounds_memory_oldest_first():
    clock = FakeClock()
    hist = WindowedHistogram("hot", window=1000.0, maxlen=8, clock=clock)
    for v in range(100):
        hist.record(float(v))
    assert hist.count == 8
    assert hist.stats()["max"] == 99.0


# -- determinism / wire shape -------------------------------------------------


def _feed(registry: MetricsRegistry, clock: FakeClock) -> None:
    registry.counter("consensus.commits").inc(40)
    registry.gauge("consensus.view").set(2)
    meter = registry.histogram("consensus.commit", window=2.0)
    for _ in range(6):
        meter.record(1.0)
        clock.advance(0.1)


def test_two_registries_same_events_same_clock_identical_snapshots():
    clock_a, clock_b = FakeClock(), FakeClock()
    a, b = MetricsRegistry(clock=clock_a), MetricsRegistry(clock=clock_b)
    _feed(a, clock_a)
    _feed(b, clock_b)
    assert a.snapshot() == b.snapshot()
    assert a.snapshot_items() == b.snapshot_items()


def test_snapshot_items_are_sorted_and_round_trip():
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    _feed(registry, clock)
    items = registry.snapshot_items()
    assert list(items) == sorted(items)
    assert all(isinstance(v, float) for _, v in items)
    assert items_to_dict(items) == registry.snapshot()
    # Histograms expand into the flat namespace.
    names = [name for name, _ in items]
    assert "consensus.commit.rate" in names and "consensus.commit.p95" in names
