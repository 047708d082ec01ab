"""MetricsRegistry under concurrent writers: exact totals, safe iteration.

The serving tier's scrape endpoint iterates the registry while worker
threads write into it — the creation lock must keep registration,
``items()``, and ``snapshot()`` from ever observing a mid-resize dict,
and counter increments must not lose updates.
"""

import threading
import time

from repro.obs import MetricsRegistry, render_openmetrics


def _run_threads(n, fn):
    barrier = threading.Barrier(n)

    def body(i):
        barrier.wait()
        fn(i)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestConcurrentWriters:
    def test_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        rounds = 2000

        def writer(i):
            for _ in range(rounds):
                reg.inc("hits")

        _run_threads(8, writer)
        assert reg.snapshot()["counters"]["hits"] == 8 * rounds

    def test_histogram_observation_count_is_exact(self):
        reg = MetricsRegistry()
        rounds = 2000

        def writer(i):
            for j in range(rounds):
                reg.observe("lat", float(j % 7))

        _run_threads(8, writer)
        h = reg.histogram("lat")
        assert h.count == 8 * rounds
        assert sum(h.counts) == 8 * rounds  # no bucket update lost

    def test_concurrent_registration_yields_one_instrument(self):
        reg = MetricsRegistry()
        seen = []

        def register(i):
            seen.append(reg.counter("shared"))

        _run_threads(16, register)
        assert all(c is seen[0] for c in seen)

    def test_snapshot_while_writers_register_fresh_instruments(self):
        """Every write registers a fresh name until the readers finish, so
        each snapshot races registration (a resizing dict), not only
        updates of instruments that already exist."""
        reg = MetricsRegistry()
        stop = threading.Event()
        start = threading.Barrier(6)
        errors = []
        grew = []

        def writer(i):
            start.wait(timeout=10)
            n = 0
            while not stop.is_set():
                reg.inc(f"c.{i}.{n}")
                reg.set_gauge(f"g.{i}.{n}", float(n))
                reg.observe(f"h.{i}.{n}", float(n % 9))
                n += 1
                # yield, so a reader never waits out long writer slices
                # while the registry (and each snapshot) keeps growing
                time.sleep(0)

        def reader():
            start.wait(timeout=10)
            # let the writers fill the registry first, so every snapshot
            # takes long enough for them to register more while it runs
            deadline = time.monotonic() + 10.0
            while len(reg) < 3000 and time.monotonic() < deadline:
                time.sleep(0.001)
            sizes = []
            try:
                for _ in range(3):
                    snap = reg.snapshot()
                    for value in snap["counters"].values():
                        assert value >= 0
                    for kind, name, inst in reg.items():
                        assert name
                    text = render_openmetrics(reg)
                    assert text.endswith("# EOF\n")
                    sizes.append(sum(len(snap[k]) for k in ("counters", "gauges", "histograms")))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            grew.append(len(sizes) > 1 and sizes[-1] > sizes[0])

        writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join(timeout=60)
        stop.set()
        for t in writers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        assert grew == [True, True]
