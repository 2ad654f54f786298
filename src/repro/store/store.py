"""The persistent trace store: versioned, memory-mapped, race-safe.

Layout under the store root::

    <root>/
      index.jsonl          # one {"key", "bundle"} line per record
      bundles/<digest>/    # one bundle per (scenario, seed, fpr,
        meta.json          #   sim_version, code fingerprint) key
        times.npy ego.npy actor_masks.npy actor_columns.npy
        mode_codes.npy camera_codes.npy camera_values.npy
        camera_offsets.npy

Durability follows :class:`repro.batch.results.CampaignWriter`'s
contract: a bundle is staged in a temp directory, every file fsynced,
then atomically renamed into place (and the parent directory synced) —
readers never observe a half-written bundle. Two workers recording the
same key race safely: the first rename wins, the loser discards its
staging and reuses the winner's bundle. ``meta.json`` records a sha256
per column file; a corrupt or truncated bundle fails verification on
open and reads as a miss (the caller re-simulates — and the next
``put`` replaces the damaged bundle).

The index file is an *advisory* append-only log used for enumeration
(``repro replay`` iterates it); lookups never trust it — a key's bundle
path is a pure function of the key — and :meth:`TraceStore.rebuild_index`
regenerates it from the bundle directories at any time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import ioutil
from repro.sim.trace import COLUMNS, ScenarioTrace
from repro.store.fingerprint import code_fingerprint

#: Bundle layout version — bumped when the on-disk column set changes.
STORE_SCHEMA = 1

#: Trace *semantics* version — bumped when simulation output changes
#: meaning without a source diff (e.g. a recording convention change).
#: Part of every key, so stale bundles read as misses, never as data.
SIM_VERSION = 1

_tmp_counter = itertools.count()


@dataclass(frozen=True)
class StoreKey:
    """Identity of one stored trace."""

    scenario: str
    seed: int
    fpr: float
    sim_version: int
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "fpr": self.fpr,
            "sim_version": self.sim_version,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StoreKey":
        return cls(
            scenario=data["scenario"],
            seed=int(data["seed"]),
            fpr=float(data["fpr"]),
            sim_version=int(data["sim_version"]),
            fingerprint=data["fingerprint"],
        )

    @property
    def cell(self) -> tuple[str, int, float]:
        """The campaign cell this key records."""
        return (self.scenario, self.seed, self.fpr)

    def digest(self) -> str:
        """The bundle directory name — a pure function of the key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _close_mmaps(columns: dict[str, np.ndarray]) -> None:
    for array in columns.values():
        mm = getattr(array, "_mmap", None)
        if mm is not None:
            try:
                mm.close()
            except (BufferError, ValueError):
                # Views still alive; refcounting closes the fd as soon
                # as they go unreachable.
                pass


class TraceStore:
    """Record-once / re-analyze-many storage for scenario traces.

    Picklable (plain configuration, no open handles), so a
    :class:`~repro.batch.runner.CampaignRunner` can carry one into its
    worker processes; each worker opens bundle memmaps read-only on
    demand and the store never pickles trace payloads through the pool.

    Attributes:
        root: store directory (created on first record).
        sim_version: trace-semantics version participating in keys.
        fingerprint: simulation-code digest participating in keys
            (default: the running tree's
            :func:`~repro.store.fingerprint.code_fingerprint`).
        verify: checksum every column file on open (cheap — traces are
            megabytes — and what turns corruption into a clean miss).
    """

    def __init__(
        self,
        root: str | Path,
        sim_version: int = SIM_VERSION,
        fingerprint: str | None = None,
        verify: bool = True,
    ):
        self.root = Path(root)
        self.sim_version = int(sim_version)
        self.fingerprint = (
            code_fingerprint() if fingerprint is None else fingerprint
        )
        self.verify = bool(verify)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------

    def key(self, scenario: str, seed: int, fpr: float) -> StoreKey:
        """The store key of a campaign cell under this store's version."""
        return StoreKey(
            scenario=scenario,
            seed=int(seed),
            fpr=float(fpr),
            sim_version=self.sim_version,
            fingerprint=self.fingerprint,
        )

    def bundle_dir(self, key: StoreKey) -> Path:
        return self.root / "bundles" / key.digest()

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def __contains__(self, key: StoreKey) -> bool:
        return (self.bundle_dir(key) / "meta.json").is_file()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, key: StoreKey) -> ScenarioTrace | None:
        """The stored trace for ``key``, or ``None`` on a miss.

        A miss is a miss whatever its cause: no bundle, a bundle from a
        different sim_version/fingerprint (different key → different
        directory), or a bundle that fails schema, size or checksum
        verification. Callers re-simulate; nothing here raises for
        damaged data.
        """
        bundle = self.bundle_dir(key)
        try:
            meta = json.loads((bundle / "meta.json").read_text())
            if meta.get("schema") != STORE_SCHEMA:
                return None
            if meta.get("key") != key.to_dict():
                return None
            columns = self._open_columns(bundle, meta)
            return ScenarioTrace.from_columns(
                meta["trace"],
                columns,
                actor_order=meta["actors"]["order"],
                actor_offsets=meta["actors"]["offsets"],
                mode_vocab=meta["modes"],
                camera_vocab=meta["cameras"],
                closer=functools.partial(_close_mmaps, columns),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _open_columns(self, bundle: Path, meta: dict) -> dict[str, np.ndarray]:
        columns: dict[str, np.ndarray] = {}
        for name in COLUMNS:
            spec = meta["arrays"][name]
            path = bundle / spec["file"]
            raw = path.read_bytes()
            if len(raw) != int(spec["bytes"]):
                raise ValueError(f"truncated column {name}")
            if self.verify:
                if hashlib.sha256(raw).hexdigest() != spec["sha256"]:
                    raise ValueError(f"checksum mismatch on column {name}")
            array = np.load(path, mmap_mode="r", allow_pickle=False)
            if list(array.shape) != list(spec["shape"]):
                raise ValueError(f"shape mismatch on column {name}")
            columns[name] = array
        return columns

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, key: StoreKey, trace: ScenarioTrace) -> Path:
        """Record a trace under ``key``; returns the bundle directory.

        Stages the bundle in a temp directory, fsyncs, then renames —
        the :class:`~repro.batch.results.CampaignWriter` durability
        contract. Losing a rename race to another recorder is success:
        the winner's (verified) bundle is reused. A pre-existing bundle
        that fails verification is replaced.
        """
        final = self.bundle_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = final.parent / (
            f"{final.name}.tmp-{os.getpid()}-{next(_tmp_counter)}"
        )
        try:
            self._write_bundle(staging, key, trace)
            self._commit(staging, final)
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        ioutil.fsync_dir(final.parent)
        self._append_index(key)
        return final

    def _write_bundle(
        self, staging: Path, key: StoreKey, trace: ScenarioTrace
    ) -> None:
        staging.mkdir(parents=True)
        files_meta: dict[str, dict] = {}
        for name in COLUMNS:
            column = trace.columns[name]
            path = staging / f"{name}.npy"
            with ioutil.fsynced_file(path, "wb") as handle:
                np.save(handle, np.ascontiguousarray(column))
            raw = path.read_bytes()
            files_meta[name] = {
                "file": path.name,
                "bytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest(),
                "shape": list(column.shape),
                "dtype": str(np.asarray(column).dtype),
            }
        meta = {
            "kind": "trace-bundle",
            "schema": STORE_SCHEMA,
            "key": key.to_dict(),
            "trace": trace.header_dict(),
            "actors": {
                "order": trace.actor_ids(),
                "offsets": list(trace.actor_offsets),
            },
            "modes": list(trace.mode_vocab),
            "cameras": list(trace.camera_vocab),
            "arrays": files_meta,
        }
        meta_path = staging / "meta.json"
        with ioutil.fsynced_file(meta_path, "w") as handle:
            json.dump(meta, handle)
        ioutil.fsync_dir(staging)

    def _commit(self, staging: Path, final: Path) -> None:
        try:
            os.rename(staging, final)
        except OSError:
            # Another recorder won the rename (or a previous bundle
            # exists). A verifiable winner is reused; a damaged one is
            # swept aside and replaced.
            if self._verifiable(final):
                return
            stale = final.parent / (
                f"{final.name}.stale-{os.getpid()}-{next(_tmp_counter)}"
            )
            try:
                os.rename(final, stale)
            except OSError:
                pass
            else:
                shutil.rmtree(stale, ignore_errors=True)
            os.rename(staging, final)

    def _verifiable(self, bundle: Path) -> bool:
        """Whether an existing bundle passes this store's verification."""
        try:
            meta = json.loads((bundle / "meta.json").read_text())
            if meta.get("schema") != STORE_SCHEMA:
                return False
            self._open_columns(bundle, meta)
        except (OSError, ValueError, KeyError, TypeError):
            return False
        return True

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------

    def _append_index(self, key: StoreKey) -> None:
        line = json.dumps({"key": key.to_dict(), "bundle": key.digest()})
        self.root.mkdir(parents=True, exist_ok=True)
        # O_APPEND keeps concurrent recorders from interleaving lines;
        # duplicates (two recorders of one key) dedupe on read.
        with self.index_path.open("a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def keys(self) -> list[StoreKey]:
        """Recorded keys matching this store's version and fingerprint.

        Reads the index log (deduplicated, existence-checked) — keys
        whose bundles a crash orphaned out of the index appear after
        :meth:`rebuild_index`.
        """
        seen: dict[str, StoreKey] = {}
        for key in self._index_entries():
            if (
                key.sim_version == self.sim_version
                and key.fingerprint == self.fingerprint
                and key in self
            ):
                seen.setdefault(key.digest(), key)
        return sorted(seen.values(), key=lambda k: k.cell)

    def _index_entries(self) -> Iterator[StoreKey]:
        try:
            text = self.index_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                yield StoreKey.from_dict(json.loads(line)["key"])
            except (ValueError, KeyError, TypeError):
                continue  # torn tail / foreign line: enumeration only

    def rebuild_index(self) -> int:
        """Regenerate ``index.jsonl`` from the bundle directories.

        Returns the number of bundles indexed. Atomic (temp file +
        rename), so readers never observe a half-written index.
        """
        bundles_dir = self.root / "bundles"
        entries = []
        if bundles_dir.is_dir():
            for bundle in sorted(bundles_dir.iterdir()):
                meta_path = bundle / "meta.json"
                if not meta_path.is_file():
                    continue
                try:
                    meta = json.loads(meta_path.read_text())
                    key = StoreKey.from_dict(meta["key"])
                except (ValueError, KeyError, TypeError, OSError):
                    continue
                entries.append(
                    json.dumps({"key": key.to_dict(), "bundle": bundle.name})
                )
        self.root.mkdir(parents=True, exist_ok=True)
        ioutil.atomic_write_text(
            self.index_path, "".join(line + "\n" for line in entries)
        )
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStore(root={str(self.root)!r}, "
            f"sim_version={self.sim_version}, "
            f"fingerprint={self.fingerprint!r})"
        )
