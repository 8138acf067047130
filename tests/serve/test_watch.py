"""The ``watch`` op under stress: concurrency, reconnects, cancellation."""

from __future__ import annotations

import threading

import pytest

from repro.parallel.executor import Executor
from repro.serve.jobs import JobHandle
from repro.serve import (
    JobManager,
    ReproServer,
    ServeClient,
    register_job_kind,
)

_GATES: dict[str, threading.Event] = {}


def _gated(params):
    _GATES[params["gate"]].wait(timeout=30.0)
    return {"gate": params["gate"]}


register_job_kind("w-echo", lambda p: {"echo": p.get("x")}, replace=True)
register_job_kind("w-gated", _gated, replace=True)


@pytest.fixture()
def server():
    srv = ReproServer(JobManager(
        workers=2, queue_size=16,
        executor=Executor("thread", retries=0)))
    srv.serve_in_thread()
    yield srv
    srv.close(drain=False)


def _connect(server) -> ServeClient:
    host, port = server.address
    return ServeClient.connect(host=host, port=port)


def test_watch_ordering_under_concurrent_submits(server):
    """Each watcher sees only its own job, in transition order."""
    n = 6
    results: dict[str, list[str]] = {}
    errors: list[Exception] = []

    def submit_and_watch(i: int) -> None:
        try:
            with _connect(server) as client:
                job = client.submit("w-echo", {"x": i})
                frames = list(client.watch(job["id"], timeout=10))
                final = frames[-1]
                assert final["final"] is True
                assert final["job"]["id"] == job["id"]
                assert final["job"]["result"] == {"echo": i}
                results[job["id"]] = [f["event"]["state"]
                                      for f in frames if "event" in f]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=submit_and_watch, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(results) == n
    order = {"pending": 0, "running": 1, "done": 2}
    for states in results.values():
        assert states[0] == "pending" and states[-1] == "done"
        ranks = [order[s] for s in states]
        assert ranks == sorted(ranks)


def test_watch_sends_the_terminal_event_of_a_job_ending_mid_batch(
        server, monkeypatch):
    """A job that ends after a batch of events was read still reports it."""
    gate = _GATES["w-mid-batch"] = threading.Event()
    real_wait_events = JobHandle.wait_events

    def read_then_let_the_job_end(self, seen, timeout=None):
        events = real_wait_events(self, seen, timeout)
        gate.set()
        self.wait(timeout=10)
        return events

    monkeypatch.setattr(JobHandle, "wait_events", read_then_let_the_job_end)
    with _connect(server) as client:
        job = client.submit("w-gated", {"gate": "w-mid-batch"})
        frames = list(client.watch(job["id"], timeout=10))
    states = [f["event"]["state"] for f in frames if "event" in f]
    assert states[0] == "pending" and states[-1] == "done"
    assert frames[-1]["final"] is True


def test_watch_reconnect_mid_job_sees_remaining_lifecycle(server):
    gate = _GATES["w-reconnect"] = threading.Event()
    try:
        with _connect(server) as first:
            job = first.submit("w-gated", {"gate": "w-reconnect"})
            stream = first.watch(job["id"], timeout=10)
            assert next(stream)["event"]["state"] == "pending"
            # Drop the connection mid-watch; the job keeps running.
        gate.set()
        with _connect(server) as second:
            frames = list(second.watch(job["id"], timeout=10))
    finally:
        gate.set()
    final = frames[-1]
    assert final["final"] is True
    assert final["job"]["state"] == "done"
    # A late watcher still replays the full recorded history.
    states = [f["event"]["state"] for f in frames if "event" in f]
    assert states[0] == "pending" and states[-1] == "done"


def test_watch_cancelled_job_ends_with_cancelled_final(server):
    gate = _GATES["w-cancel"] = threading.Event()
    blocker = _GATES["w-block"] = threading.Event()
    try:
        with _connect(server) as client:
            # Fill both workers so the victim stays queued and
            # cancellation takes synchronously.
            for name in ("a", "b"):
                _GATES[f"w-block-{name}"] = blocker
                client.submit("w-gated", {"gate": f"w-block-{name}"})
            victim = client.submit("w-gated", {"gate": "w-cancel"})
            assert client.cancel(victim["id"]) is True
            frames = list(client.watch(victim["id"], timeout=10))
    finally:
        blocker.set()
        gate.set()
    final = frames[-1]
    assert final["final"] is True
    assert final["job"]["state"] == "cancelled"
    states = [f["event"]["state"] for f in frames if "event" in f]
    assert states == ["pending", "cancelled"]


def test_watch_unknown_job_errors(server):
    from repro.serve import ServeError

    with _connect(server) as client:
        with pytest.raises(ServeError) as err:
            list(client.watch("job-999999", timeout=2))
    assert err.value.code == "unknown-job"
