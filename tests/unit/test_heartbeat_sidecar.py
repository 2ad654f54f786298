"""Heartbeat sidecar timing consistency (PR 10 satellite).

The original ``_write_heartbeat`` read ``time.time()`` twice — once for
``elapsed`` and once for ``updated`` — so ``updated - elapsed`` drifted
from the true start instant. The fix reads the clock once; these tests
pin that and the sidecar's atomic-replace publication.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import reporting


class TickingClock:
    """A fake ``time.time`` that advances on every read.

    Any implementation reading the clock twice for one heartbeat gets
    two different instants and fails the consistency assertion below.
    """

    def __init__(self, start: float):
        self.now = start

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_heartbeat_uses_one_instant_for_elapsed_and_updated(
    tmp_path, monkeypatch
):
    started = 1000.0
    monkeypatch.setattr(reporting.time, "time", TickingClock(started + 40.0))
    path = tmp_path / "heartbeat.json"
    reporting._write_heartbeat(
        path,
        done=3,
        total=10,
        last_index=2,
        started=started,
        shard=(1, 4),
    )
    payload = json.loads(path.read_text())
    assert payload["kind"] == "heartbeat"
    assert payload["rows_done"] == 3
    assert payload["rows_total"] == 10
    assert payload["last_index"] == 2
    assert payload["shard"] == {"index": 1, "count": 4}
    # One clock read: updated minus elapsed reconstructs the start
    # instant exactly. With two reads the ticking clock makes this off
    # by the inter-read tick.
    assert payload["updated"] - payload["elapsed"] == pytest.approx(
        started, abs=0.0
    )


def test_heartbeat_is_always_one_complete_json_object(tmp_path):
    path = tmp_path / "heartbeat.json"
    reporting._write_heartbeat(
        path, done=0, total=5, last_index=None, started=0.0, shard=None
    )
    first = path.read_text()
    assert json.loads(first)["rows_done"] == 0
    reporting._write_heartbeat(
        path, done=5, total=5, last_index=4, started=0.0, shard=None
    )
    assert json.loads(path.read_text())["rows_done"] == 5
    # Atomic replace: no staging files left beside the sidecar.
    assert list(tmp_path.glob("*.tmp-*")) == []
