"""Unit tests for the discrete-event queue."""

import random

import pytest

from repro.hadoop.events import COMPACT_MIN_CANCELLED, EventQueue


def test_events_fire_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(5.0, lambda: fired.append("b"))
    q.schedule(1.0, lambda: fired.append("a"))
    q.schedule(9.0, lambda: fired.append("c"))
    q.run()
    assert fired == ["a", "b", "c"]


def test_same_time_fifo_by_seq():
    q = EventQueue()
    fired = []
    for i in range(5):
        q.schedule(1.0, lambda i=i: fired.append(i))
    q.run()
    assert fired == [0, 1, 2, 3, 4]


def test_priority_orders_same_time():
    q = EventQueue()
    fired = []
    q.schedule(1.0, lambda: fired.append("low"), priority=5)
    q.schedule(1.0, lambda: fired.append("high"), priority=-1)
    q.run()
    assert fired == ["high", "low"]


def test_clock_advances():
    q = EventQueue()
    seen = []
    q.schedule(3.0, lambda: seen.append(q.now))
    q.run()
    assert seen == [3.0]
    assert q.now == 3.0


def test_schedule_in_relative():
    q = EventQueue()
    out = []
    q.schedule(2.0, lambda: q.schedule_in(1.5, lambda: out.append(q.now)))
    q.run()
    assert out == [3.5]


def test_scheduling_in_past_rejected():
    q = EventQueue()
    q.schedule(5.0, lambda: None)
    q.step()
    with pytest.raises(ValueError, match="before now"):
        q.schedule(1.0, lambda: None)


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule_in(-1.0, lambda: None)


def test_cancellation():
    q = EventQueue()
    fired = []
    h = q.schedule(1.0, lambda: fired.append("x"))
    h.cancel()
    q.run()
    assert fired == []
    assert h.cancelled


def test_events_scheduled_during_run():
    q = EventQueue()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            q.schedule_in(1.0, lambda: chain(n + 1))

    q.schedule(0.0, lambda: chain(0))
    q.run()
    assert fired == [0, 1, 2, 3]
    assert q.now == 3.0


def test_run_until_stops_clock():
    q = EventQueue()
    fired = []
    q.schedule(1.0, lambda: fired.append(1))
    q.schedule(10.0, lambda: fired.append(10))
    q.run(until=5.0)
    assert fired == [1]
    assert q.now == 5.0


def test_max_events_guard():
    q = EventQueue()

    def forever():
        q.schedule_in(1.0, forever)

    q.schedule(0.0, forever)
    with pytest.raises(RuntimeError, match="max_events"):
        q.run(max_events=100)


def test_peek_skips_cancelled():
    q = EventQueue()
    h = q.schedule(1.0, lambda: None)
    q.schedule(2.0, lambda: None)
    h.cancel()
    assert q.peek_time() == 2.0


def test_len_counts_live_events():
    q = EventQueue()
    h = q.schedule(1.0, lambda: None)
    q.schedule(2.0, lambda: None)
    assert len(q) == 2
    h.cancel()
    assert len(q) == 1


class TestCompaction:
    """Cancelled entries must not accumulate in the heap forever."""

    def test_heap_compacts_when_cancelled_dominate(self):
        q = EventQueue()
        handles = [q.schedule(float(i), lambda: None) for i in range(300)]
        keep = q.schedule(1000.0, lambda: None)
        for h in handles:
            h.cancel()
        # compaction fired somewhere along the way and evicted the garbage
        assert q.compactions >= 1
        assert len(q._heap) < 300
        assert len(q) == 1
        assert q.peek_time() == keep.time

    def test_small_heaps_stay_lazy(self):
        q = EventQueue()
        handles = [q.schedule(float(i), lambda: None) for i in range(20)]
        for h in handles:
            h.cancel()
        # below the floor, lazy skipping is cheaper than rebuilding
        assert q.compactions == 0

    def test_cancel_is_idempotent_in_the_accounting(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert len(q) == 1  # double-cancel must not double-count

    def test_ordering_survives_compaction(self):
        q = EventQueue()
        fired = []
        cancels = [
            q.schedule(float(i), (lambda i=i: fired.append(i)))
            for i in range(200)
        ]
        survivors = [
            q.schedule(500.0 + i, (lambda i=i: fired.append(500 + i)), priority=i)
            for i in range(5)
        ]
        for h in cancels:
            h.cancel()
        assert q.compactions >= 1
        q.run()
        assert fired == [500, 501, 502, 503, 504]
        assert all(not h.cancelled for h in survivors)

    def test_compaction_preserves_pop_results(self):
        # the same schedule/cancel interleaving with and without compaction
        # must fire the identical event sequence
        def run(compact_min):
            import repro.hadoop.events as ev

            old = ev.COMPACT_MIN_CANCELLED
            ev.COMPACT_MIN_CANCELLED = compact_min
            try:
                q = EventQueue()
                fired = []
                handles = {}
                for i in range(150):
                    handles[i] = q.schedule(
                        float(i % 17), (lambda i=i: fired.append(i)), priority=i % 3
                    )
                for i in range(0, 150, 2):
                    handles[i].cancel()
                q.run()
                return fired
            finally:
                ev.COMPACT_MIN_CANCELLED = old
        assert run(compact_min=8) == run(compact_min=10**9)


class TestHeapOrderEquivalence:
    """Seeded schedule/cancel sequences pop in ``(time, priority, seq)`` order."""

    @pytest.mark.parametrize("seed", range(20))
    def test_pops_match_a_reference_sort(self, seed):
        rng = random.Random(seed)
        q = EventQueue()
        fired = []
        events = []  # (time, priority, seq, label), seq = scheduling order
        handles = {}
        cancelled = set()
        #: label -> labels its callback cancels when it fires, if still pending
        cancels_on_fire = {}

        def fire(label):
            fired.append(label)
            for other in cancels_on_fire.get(label, ()):
                if other not in fired:
                    handles[other].cancel()

        for label in range(rng.randint(50, 400)):
            # few distinct times and priorities, so ties are common
            time = float(rng.randint(0, 6))
            priority = rng.choice([-3, -1, 0, 0, 5])
            handles[label] = q.schedule(time, lambda label=label: fire(label), priority)
            events.append((time, priority, label, label))
            assert handles[label].time == time and not handles[label].cancelled
            if rng.random() < 0.3:
                victim = rng.randrange(label + 1)
                handles[victim].cancel()
                cancelled.add(victim)
            if rng.random() < 0.2:
                cancels_on_fire[label] = [rng.randrange(label + 1) for _ in range(3)]
            limit = max(2 * len(q), len(q) + COMPACT_MIN_CANCELLED)
            assert len(q._heap) <= limit  # compaction bounds the heap
        q.run()

        want = []
        for _time, _priority, _seq, label in sorted(events):
            if label in cancelled:
                continue
            want.append(label)
            cancelled.update(o for o in cancels_on_fire.get(label, ()) if o not in want)
        assert fired == want
        for label, handle in handles.items():
            assert handle.cancelled == (label in cancelled)
        assert len(q) == 0

    def test_handle_time_is_clamped_to_now(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.step()
        handle = q.schedule(5.0 - 1e-12, lambda: None)  # within the tolerance
        assert handle.time == 5.0
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled and len(q) == 0
