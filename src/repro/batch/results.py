"""Campaign results: per-run summaries, JSONL persistence, reload.

One campaign run produces one :class:`RunSummary` — the Table 1
quantities for that (scenario, seed, FPR, variant) cell: collision
outcome, max estimated FPR, ``max(F_c1 + F_c2 + F_c3)``, fraction of
provision and the per-camera maxima. Summaries are pure functions of
the run spec, so they compare byte-identical between sequential and
parallel executions; wall-clock timings live next to them in the
:class:`CampaignResult`, never inside them.

The on-disk format is JSONL: a header line naming the grid kind
(``kind: campaign``, schema 2, or ``kind: replay``, schema 1) with the
grid, schema version and optional shard tag, then one ``kind: run`` line
per summary in run-index order — appended by :class:`CampaignWriter`
*as each run finishes*, so a killed campaign keeps everything it
completed — and a ``kind: completed`` footer with the execution
metadata, written only when the whole grid ran. A file without the
footer is a resumable partial; ``repro campaign --resume`` executes
exactly the missing indices. Campaign schema 1 files (header carries
``workers``/``elapsed``, no footer) still load. See docs/CAMPAIGNS.md
for the field-by-field schema comparison.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

from repro import ioutil
from repro.batch.campaign import Campaign, Grid, RunSpec
from repro.errors import ConfigurationError, TraceError


def _grid_kind(kind: object) -> type[Grid] | None:
    """The grid class a file header's ``kind`` names, if any."""
    if kind == Campaign.KIND:
        return Campaign
    if kind == "replay":
        from repro.store.replay import ReplayPlan

        return ReplayPlan
    return None


@dataclass(frozen=True)
class RunSummary:
    """The Table 1 quantities of one campaign run.

    Attributes:
        index: position in the campaign's deterministic run order.
        scenario / seed / fpr / variant: the grid cell.
        collided: whether the closed loop ended in a collision (the
            paper's "N/A" convention: no Zhuyi evaluation then).
        collision_time: first collision time, or ``None``.
        max_fpr: highest estimated FPR across cameras and ticks.
        max_total_fpr: peak summed demand over the analyzed cameras.
        fraction_of_provision: peak demand over the provision.
        camera_max_fpr: per-camera maximum estimated FPR.
        ticks: evaluation ticks produced.
        duration: simulated seconds covered by the trace.
        error: captured failure ("ErrorType: message"), or ``None``.
    """

    index: int
    scenario: str
    seed: int
    fpr: float
    variant: str
    collided: bool
    collision_time: float | None = None
    max_fpr: float | None = None
    max_total_fpr: float | None = None
    fraction_of_provision: float | None = None
    camera_max_fpr: Mapping[str, float] = field(default_factory=dict)
    ticks: int = 0
    duration: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the run completed without a captured failure."""
        return self.error is None

    def to_dict(self) -> dict:
        """JSON-ready representation (field order fixed for diffing)."""
        return {
            "index": self.index,
            "scenario": self.scenario,
            "seed": self.seed,
            "fpr": self.fpr,
            "variant": self.variant,
            "collided": self.collided,
            "collision_time": self.collision_time,
            "max_fpr": self.max_fpr,
            "max_total_fpr": self.max_total_fpr,
            "fraction_of_provision": self.fraction_of_provision,
            "camera_max_fpr": dict(self.camera_max_fpr),
            "ticks": self.ticks,
            "duration": self.duration,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSummary":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                index=int(data["index"]),
                scenario=data["scenario"],
                seed=int(data["seed"]),
                fpr=float(data["fpr"]),
                variant=data["variant"],
                collided=bool(data["collided"]),
                collision_time=data.get("collision_time"),
                max_fpr=data.get("max_fpr"),
                max_total_fpr=data.get("max_total_fpr"),
                fraction_of_provision=data.get("fraction_of_provision"),
                camera_max_fpr=dict(data.get("camera_max_fpr", {})),
                ticks=int(data.get("ticks", 0)),
                duration=float(data.get("duration", 0.0)),
                error=data.get("error"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed run summary: {exc}") from exc


class CampaignResult:
    """All summaries of one grid — a campaign or a replay plan — or of
    one shard of it.

    Attributes:
        campaign: the grid the summaries belong to.
        summaries: per-run summaries, sorted by grid index.
        workers: worker count the runs executed with (1 when unknown,
            e.g. a partial file with no footer yet).
        elapsed: wall-clock seconds (0.0 when unknown).
        shard: ``(index, count)`` when this result holds one
            :meth:`Grid.shard` of the grid, else ``None``.
        store_root: the trace store the runs read, which a replay
            file header names (``None`` when unknown).
    """

    def __init__(
        self,
        campaign: Grid,
        summaries: Sequence[RunSummary],
        workers: int = 1,
        elapsed: float = 0.0,
        shard: tuple[int, int] | None = None,
        store_root: str | None = None,
    ):
        self.campaign = campaign
        self.summaries = sorted(summaries, key=lambda s: s.index)
        self.workers = workers
        self.elapsed = elapsed
        self.shard = shard
        self.store_root = store_root
        #: Set by :meth:`load_jsonl`: the file's schema version,
        #: whether it carried a ``completed`` footer, and whether its
        #: tail was torn (no trailing newline / dropped final line).
        #: ``None`` for results that never touched disk. Resume uses
        #: these to pick between appending in place and an atomic
        #: canonical rewrite.
        self.source_schema: int | None = None
        self.source_footer: bool | None = None
        self.source_torn: bool | None = None

    def __len__(self) -> int:
        return len(self.summaries)

    # ------------------------------------------------------------------
    # coverage
    # ------------------------------------------------------------------

    def expected_runs(self) -> list[RunSpec]:
        """The runs this result is supposed to cover.

        The full grid normally; the shard's slice when :attr:`shard`
        is set. Determinism guarantee: this is a pure function of the
        campaign spec, so a reloaded partial file computes exactly the
        remainder an uninterrupted run would have executed.
        """
        if self.shard is None:
            return self.campaign.runs()
        return self.campaign.shard(*self.shard)

    def run_indices(self) -> set[int]:
        """Grid indices with a recorded summary."""
        return {summary.index for summary in self.summaries}

    def missing_runs(self) -> list[RunSpec]:
        """Expected runs with no summary yet (ascending grid index)."""
        present = self.run_indices()
        return [
            spec for spec in self.expected_runs() if spec.index not in present
        ]

    @property
    def is_complete(self) -> bool:
        """True when every expected run has a summary."""
        return not self.missing_runs()

    def resume_cache(self, retry_failed: bool = False) -> dict[int, RunSummary]:
        """The summaries a resume may reuse, keyed by grid index.

        Everything except ``WorkerError`` failures: those record a
        worker process dying (OOM kill, crash), an environment accident
        rather than a function of the run spec, so resume re-executes
        them. Deterministic failures (the run itself raising) keep
        their summaries — re-running them would reproduce the error —
        unless ``retry_failed`` forces them back into the queue (the
        escape hatch for failures that were environmental after all, or
        that a code fix has since cured).
        """
        return {
            summary.index: summary
            for summary in self.summaries
            if summary.ok
            or (
                not retry_failed
                and not (summary.error or "").startswith("WorkerError")
            )
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def failures(self) -> list[RunSummary]:
        """Runs whose execution raised (not collisions — real failures)."""
        return [summary for summary in self.summaries if not summary.ok]

    def collisions(self) -> list[RunSummary]:
        """Runs that ended in a collision."""
        return [summary for summary in self.summaries if summary.collided]

    def for_scenario(
        self, scenario: str, variant: str | None = None
    ) -> list[RunSummary]:
        """Summaries of one scenario (optionally one variant)."""
        return [
            summary
            for summary in self.summaries
            if summary.scenario == scenario
            and (variant is None or summary.variant == variant)
        ]

    def scenario_max_fpr(self, scenario: str) -> float | None:
        """Highest estimated FPR across a scenario's collision-free runs."""
        values = [
            summary.max_fpr
            for summary in self.for_scenario(scenario)
            if summary.ok and not summary.collided and summary.max_fpr is not None
        ]
        return max(values) if values else None

    def scenario_max_fraction(self, scenario: str) -> float | None:
        """Worst fraction-of-provision across a scenario's clean runs."""
        values = [
            summary.fraction_of_provision
            for summary in self.for_scenario(scenario)
            if summary.ok
            and not summary.collided
            and summary.fraction_of_provision is not None
        ]
        return max(values) if values else None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        """Write the result as one JSONL file of its grid's kind.

        Header, then every summary in grid-index order, then — only
        when the result covers its whole expected grid — the
        ``completed`` footer. Writing an incomplete result therefore
        produces a file that ``--resume`` recognizes as partial.
        """
        with CampaignWriter.create(
            path, self.campaign, shard=self.shard, store_root=self.store_root
        ) as w:
            for summary in self.summaries:
                w.write(summary)
            if self.is_complete:
                w.finish(workers=self.workers, elapsed=self.elapsed)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "CampaignResult":
        """Reload a campaign (schema 1 or 2) or replay (schema 1) file.

        A schema-2 file with no ``completed`` footer — a campaign that
        was killed mid-flight — loads fine: the summaries present are
        kept and :meth:`missing_runs` names the remainder. Execution
        metadata defaults to ``workers=1, elapsed=0.0`` until the
        footer exists. A torn *final* line (a kill landed mid-write,
        leaving no trailing newline) is dropped — that run simply
        counts as missing; malformed JSON anywhere else, including a
        newline-terminated final line, is still an error.

        Raises:
            TraceError: empty file, malformed JSON before the final
                line, missing or malformed header, or an unsupported
                schema version.
            ConfigurationError: a header whose grid settings are
                invalid.
        """
        text = Path(path).read_text()
        # Every record is written as one "line\n" write, so a clean
        # file always ends in a newline; its absence marks a tail torn
        # by a kill mid-write (resume then rewrites instead of
        # appending onto the damaged line).
        torn = bool(text) and not text.endswith("\n")
        raw_lines = [line for line in text.splitlines() if line.strip()]
        if not raw_lines:
            raise TraceError(f"empty campaign file: {path}")
        records = []
        for number, line in enumerate(raw_lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                # Only a final line missing its newline is a torn kill
                # tail; a malformed but newline-terminated line (the
                # writer emits line+newline in one write) is corruption
                # and stays fatal.
                if torn and number == len(raw_lines) - 1 and number > 0:
                    break
                raise TraceError(
                    f"invalid campaign JSONL in {path}: {exc}"
                ) from exc
        header = records[0]
        grid_kind = _grid_kind(header.get("kind"))
        if grid_kind is None:
            raise TraceError(
                f"campaign file {path} does not start with a campaign "
                "or replay header"
            )
        schema = header.get("schema")
        supported = sorted({1, grid_kind.SCHEMA})
        if schema not in supported:
            raise TraceError(
                f"{grid_kind.KIND} schema {schema!r} unsupported "
                f"(expected one of {supported})"
            )
        try:
            campaign = grid_kind.from_dict(header[grid_kind.PAYLOAD])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"malformed {grid_kind.KIND} header in {path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        summaries = [
            RunSummary.from_dict(record)
            for record in records[1:]
            if record.get("kind") == "run"
        ]
        shard = None
        if header.get("shard") is not None:
            shard = (
                int(header["shard"]["index"]),
                int(header["shard"]["count"]),
            )
        workers = int(header.get("workers", 1))
        elapsed = float(header.get("elapsed", 0.0))
        footers = [r for r in records[1:] if r.get("kind") == "completed"]
        if footers:
            workers = int(footers[-1].get("workers", workers))
            elapsed = float(footers[-1].get("elapsed", elapsed))
        result = cls(
            campaign=campaign,
            summaries=summaries,
            workers=workers,
            elapsed=elapsed,
            shard=shard,
            store_root=header.get("store"),
        )
        result.source_schema = schema
        result.source_footer = bool(footers)
        result.source_torn = torn
        return result

    # ------------------------------------------------------------------
    # shard recombination
    # ------------------------------------------------------------------

    @classmethod
    def merge(cls, parts: Sequence["CampaignResult"]) -> "CampaignResult":
        """Recombine shard results into one monolithic result.

        Because a shard keeps each run's full-grid index, merging is a
        pure reindex-free union: the merged result aggregates (Table 1
        rows, MRF verdicts) exactly as if the whole grid had run on one
        machine.

        Args:
            parts: shard results of the *same* campaign grid. Order
                does not matter.

        Returns:
            One result over the union of the parts' summaries, with
            ``elapsed`` summed (total compute) and ``workers`` the
            maximum across parts; ``shard`` is cleared and
            ``store_root`` is the first part's.

        Raises:
            ConfigurationError: no parts, grid mismatch between parts,
                overlapping run indices, or an index outside the grid.
        """
        if not parts:
            raise ConfigurationError("nothing to merge: no campaign parts")
        campaign = parts[0].campaign
        for part in parts[1:]:
            if part.campaign != campaign:
                raise ConfigurationError(
                    "cannot merge campaign parts with different grids"
                )
        size = campaign.size
        seen: dict[int, RunSummary] = {}
        for part in parts:
            for summary in part.summaries:
                if summary.index in seen:
                    raise ConfigurationError(
                        f"overlapping run index {summary.index} "
                        f"({summary.scenario} seed={summary.seed} "
                        f"fpr={summary.fpr:g} [{summary.variant}]) "
                        "across merged parts"
                    )
                if not 0 <= summary.index < size:
                    raise ConfigurationError(
                        f"run index {summary.index} outside the "
                        f"{size}-run grid"
                    )
                seen[summary.index] = summary
        return cls(
            campaign=campaign,
            summaries=list(seen.values()),
            workers=max(part.workers for part in parts),
            elapsed=sum(part.elapsed for part in parts),
            shard=None,
            store_root=parts[0].store_root,
        )


class CampaignWriter:
    """Streams a grid's result to JSONL as runs complete.

    The write protocol is what makes campaigns kill-safe: the header
    goes out before the first run, every summary line is flushed the
    moment it is written, and the ``completed`` footer exists only
    after :meth:`finish` — so a file without a footer is by definition
    a resumable partial, and a crash can lose at most the line being
    written. The grid shapes the header and the run lines (see
    :meth:`Grid.header` and :meth:`Grid.row`). Use as a context manager;
    an exception inside the block closes the file *without* the footer.
    """

    def __init__(
        self,
        path: str | Path,
        handle: IO[str],
        grid: Grid,
        target: Path | None = None,
    ):
        self._path = Path(path)
        self._target = self._path if target is None else target
        self._handle = handle
        self._grid = grid
        self._finished = False

    @classmethod
    def create(
        cls,
        path: str | Path,
        campaign: Grid,
        shard: tuple[int, int] | None = None,
        atomic: bool = False,
        store_root: str | None = None,
    ) -> "CampaignWriter":
        """Start a fresh file: truncate and write the grid's header.

        ``atomic=True`` stages the output in ``<path>.tmp`` and renames
        it over ``path`` only after :meth:`finish` — so rewriting an
        existing partial (resume's canonical-rewrite path) can never
        destroy it: a crash mid-rewrite leaves the original untouched
        and discards the temp file on close. Without ``atomic``, the
        file is published via :func:`repro.ioutil.atomic_create_stream`
        with the header already on the device, so kill-during-create
        can never leave a torn header under the final name.
        ``store_root`` is the trace store a replay header names.
        """
        header = campaign.header(store_root)
        if shard is not None:
            header["shard"] = {"index": shard[0], "count": shard[1]}
        final = Path(path)
        if atomic:
            target = final.with_name(final.name + ".tmp")
            handle = target.open("w")  # reprolint: disable=IO005 -- staged .tmp: committed by rename only after the finish-time fsync; a torn temp is discarded at close, never published
            writer = cls(final, handle, campaign, target=target)
            writer._emit(header)
            return writer
        handle = ioutil.atomic_create_stream(
            final, json.dumps(header) + "\n"
        )
        return cls(final, handle, campaign)

    @classmethod
    def append_to(cls, path: str | Path, campaign: Grid) -> "CampaignWriter":
        """Continue a partial file (header already present) in place."""
        return cls(path, Path(path).open("a"), campaign)

    def write(self, summary: RunSummary) -> None:
        """Append one run line and flush it to disk."""
        self.write_row(self._grid.row(summary))

    def write_row(self, record: Mapping) -> None:
        """Append one caller-shaped record line and flush it to disk."""
        self._emit(dict(record))

    def finish(self, workers: int, elapsed: float) -> None:
        """Append the ``completed`` footer — the campaign ran fully.

        The footer is also the durability point: per-line flushes hand
        runs to the OS (kill-safe), but only the fsync here forces the
        finished file to the device, so a completed campaign survives
        power loss — not just a process kill.
        """
        self._emit(
            {
                "kind": "completed",
                "workers": workers,
                "elapsed": elapsed,
            }
        )
        os.fsync(self._handle.fileno())
        self._finished = True

    def close(self) -> None:
        """Close the file; atomic writers commit or roll back here."""
        if not self._handle.closed:
            self._handle.close()
        if self._target != self._path:
            if self._finished:
                # The temp file's contents are already on the device
                # (finish fsyncs before setting _finished); making the
                # rename itself durable needs the directory entry
                # synced too.
                os.replace(self._target, self._path)
                ioutil.fsync_dir(self._path.parent)
            else:
                self._target.unlink(missing_ok=True)

    def _emit(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def __enter__(self) -> "CampaignWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
