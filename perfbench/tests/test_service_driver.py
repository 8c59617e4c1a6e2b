"""The open-loop driver keeps a verdict per request, not its rows."""

from __future__ import annotations

import threading
from concurrent.futures import Future

from workloads import Arrival, Outcome, ServiceDriver, answer_key


class Rows:
    def __init__(self, rows):
        self._rows = rows

    def rows(self):
        return self._rows


class FakeSession:
    """Answers each statement from ``replies`` on another thread, the
    way a service worker completes a future."""

    def __init__(self, replies):
        self.replies = replies

    def submit(self, sql, timeout_s=None):
        from repro.service import AdmissionRejected

        reply = self.replies[sql]
        if reply == "shed":
            raise AdmissionRejected("queue full", "queue_full", 0.1)
        future = Future()

        def complete():
            if isinstance(reply, Exception):
                future.set_exception(reply)
            else:
                future.set_result(Rows(reply))

        threading.Timer(0.01, complete).start()
        return future


def test_play_checks_each_answer_as_it_completes():
    from repro.engine.errors import QueryTimeout

    good = [(1, "a"), (2, "b")]
    pool = {"answers": {"k": [answer_key(good)]}}
    replies = {
        "ok": good,
        "wrong": [(1, "a")],
        "timeout": QueryTimeout("too slow"),
        "error": RuntimeError("boom"),
        "shed": "shed",
    }
    arrivals = [Arrival(0.001 * i, 0, "k", 0, sql)
                for i, sql in enumerate(replies)]
    ServiceDriver.play([FakeSession(replies)], pool, arrivals, None)

    assert {a.sql: a.status for a in arrivals} == {
        "ok": "ok", "wrong": "wrong", "timeout": "timeout",
        "error": "error", "shed": "shed"}
    assert all(a.latency_s > 0 for a in arrivals if a.status != "shed")

    strict, lenient = Outcome(), Outcome()
    ServiceDriver.settle(strict, arrivals, strict=True)
    ServiceDriver.settle(lenient, arrivals, strict=False)
    assert (strict.attempted, strict.failed) == (5, 4)
    assert (lenient.attempted, lenient.failed) == (5, 2)
