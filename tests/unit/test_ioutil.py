"""The shared staged-fsync / atomic-rename helpers (PR 10 satellite).

These are the vocabulary the IO005 lint rule checks durability-critical
modules against, so their own semantics get pinned here: bytes reach
the device before a rename publishes them, and a failure mid-create
never leaves a torn file under the final name.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import ioutil
from repro.batch.campaign import Campaign
from repro.batch.results import CampaignWriter

CAMPAIGN = Campaign(scenarios=("cut_in",))


def test_atomic_write_text_publishes_content(tmp_path):
    target = tmp_path / "sidecar.json"
    ioutil.atomic_write_text(target, "first\n")
    assert target.read_text() == "first\n"
    ioutil.atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    # The staging file never survives.
    assert list(tmp_path.glob("*.tmp-*")) == []


def test_atomic_write_text_failure_leaves_no_target(tmp_path, monkeypatch):
    target = tmp_path / "sidecar.json"

    def boom(src, dst):
        raise OSError("simulated kill before rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        ioutil.atomic_write_text(target, "half\n")
    assert not target.exists()


def test_fsynced_file_fsyncs_before_close(tmp_path, monkeypatch):
    synced: list[int] = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    staging = tmp_path / "column.bin"
    with ioutil.fsynced_file(staging, "wb") as handle:
        handle.write(b"\x00\x01")
        assert synced == []  # fsync happens at block exit, after writes
    assert synced
    assert staging.read_bytes() == b"\x00\x01"


def test_fsynced_file_skips_fsync_on_error(tmp_path, monkeypatch):
    synced: list[int] = []
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
    with pytest.raises(RuntimeError):
        with ioutil.fsynced_file(tmp_path / "staging", "w") as handle:
            handle.write("partial")
            raise RuntimeError("abandon the staging file")
    assert synced == []


def test_atomic_create_stream_publishes_header_then_appends(tmp_path):
    target = tmp_path / "stream.jsonl"
    handle = ioutil.atomic_create_stream(target, "header\n")
    try:
        # The header is already durable and complete before any append.
        assert target.read_text() == "header\n"
        handle.write("row\n")
        handle.flush()
    finally:
        handle.close()
    assert target.read_text() == "header\nrow\n"


def test_fsync_dir_tolerates_unsyncable_paths(tmp_path):
    ioutil.fsync_dir(tmp_path)  # normal directory: no error
    ioutil.fsync_dir(tmp_path / "does-not-exist")  # missing: tolerated


def test_campaign_writer_create_is_kill_safe(tmp_path, monkeypatch):
    """A kill before the header rename must not publish the campaign file.

    This is the satellite fix for the bare ``target.open("w")`` creation:
    the durable (non-atomic-finish) path now routes through
    ``atomic_create_stream``, so the file either exists with a complete
    header or not at all.
    """
    target = tmp_path / "campaign.jsonl"

    def boom(src, dst):
        raise OSError("simulated kill before rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        CampaignWriter.create(target, CAMPAIGN, atomic=False)
    assert not target.exists()


def test_campaign_writer_create_header_is_complete_immediately(tmp_path):
    target = tmp_path / "campaign.jsonl"
    writer = CampaignWriter.create(target, CAMPAIGN, atomic=False)
    try:
        header = json.loads(target.read_text().splitlines()[0])
        assert header["kind"] == "campaign"
    finally:
        writer.close()
