"""Wall-clock reporting of a grid execution: elapsed time and heartbeat.

The runner's summaries are pure functions of their run specs; the wall
clock only ever feeds metadata written *beside* them — the ``completed``
footer's ``elapsed`` and the ``<out>.heartbeat`` sidecar a monitoring
process polls to tell a slow shard from a dead one. Every clock read of
the execution path lives here, so this is the one module the linter's
DET002 rule sanctions.
"""

# reprolint: disable-file=DET002 -- wall-clock here feeds only the
# heartbeat sidecar and the completed-footer elapsed metadata; no
# estimation value, run line or aggregate ever derives from it.

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import ioutil

#: Rows written between two refreshes of the heartbeat sidecar.
HEARTBEAT_EVERY = 8


def _write_heartbeat(
    path: Path,
    done: int,
    total: int,
    last_index: int | None,
    started: float,
    shard: tuple[int, int] | None,
) -> None:
    """Atomically refresh the shard's heartbeat sidecar.

    A monitoring process (or a human with ``cat``) reads progress
    without touching — or racing — the JSONL stream itself. Atomic
    replace means the sidecar is always one complete JSON object.
    """
    # One instant for both fields: computing them from separate
    # time.time() calls let `updated - elapsed` drift from the true
    # start, confusing staleness monitors that subtract them.
    now = time.time()
    payload = {
        "kind": "heartbeat",
        "rows_done": done,
        "rows_total": total,
        "last_index": last_index,
        "elapsed": now - started,
        "updated": now,
        "shard": (
            None if shard is None else {"index": shard[0], "count": shard[1]}
        ),
    }
    ioutil.atomic_write_text(path, json.dumps(payload) + "\n")


class RunClock:
    """Times one grid execution and keeps its heartbeat sidecar fresh.

    ``rows_done`` counts the rows in the output file: the ``done`` rows
    it already held (an appended partial), plus each row written since.
    The sidecar ``<out>.heartbeat`` is refreshed every
    :data:`HEARTBEAT_EVERY` written rows and once more at
    :meth:`finish`; without ``out`` there is no sidecar.
    """

    def __init__(
        self,
        out: str | Path | None,
        total: int,
        done: int = 0,
        shard: tuple[int, int] | None = None,
    ):
        self._sidecar = None if out is None else Path(f"{out}.heartbeat")
        self._total = total
        self._done = done
        self._last: int | None = None
        self._shard = shard
        self._started = time.time()

    def row_written(self, index: int) -> None:
        """Count one row written to the output file."""
        self._done += 1
        self._last = index
        if self._done % HEARTBEAT_EVERY == 0:
            self._beat()

    def finish(self) -> float:
        """Refresh the sidecar a last time; the seconds since start."""
        self._beat()
        return time.time() - self._started

    def _beat(self) -> None:
        if self._sidecar is not None:
            _write_heartbeat(
                self._sidecar,
                self._done,
                self._total,
                self._last,
                self._started,
                self._shard,
            )
