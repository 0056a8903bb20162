"""Legacy TBSZ1 containers stay readable.

TBSZ1 (no body length, no per-blob CRCs) is a read-only format: the
writer emits TBSZ2 only.  ``data/snap_v1.tbsz`` is a small TBSZ1
archive of a divide-by-zero snap, written by the last writer that still
produced the format; every read path must keep decoding it.
"""

import os

from repro.fleet.store import content_digest
from repro.runtime.archive import (
    MAGIC_V1,
    compress_snap,
    decompress_snap,
    inspect_container,
    salvage_decompress,
)
from repro.tools.tb import main

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "snap_v1.tbsz")
#: ``content_digest`` of the snap the fixture holds.
DIGEST = "b77b92dbf35dec8950bbf1b6a32de79f"


def fixture_bytes() -> bytes:
    with open(FIXTURE, "rb") as fh:
        return fh.read()


def test_fixture_is_tbsz1():
    assert fixture_bytes().startswith(MAGIC_V1)


def test_decompress_reads_v1():
    snap = decompress_snap(fixture_bytes())
    assert content_digest(snap) == DIGEST
    assert snap.reason == "unhandled"
    assert snap.process_name == "tiny"
    assert len(snap.buffers) == 5 and len(snap.threads) == 1


def test_salvage_reads_v1_clean():
    snap, notes = salvage_decompress(fixture_bytes())
    assert notes == []
    assert content_digest(snap) == DIGEST


def test_salvage_recovers_torn_v1():
    data = fixture_bytes()
    snap, notes = salvage_decompress(data[: len(data) - 40])
    assert any("truncated" in note for note in notes)
    assert snap is not None and snap.reason == "unhandled"


def test_v1_rewrites_as_v2():
    snap = decompress_snap(fixture_bytes())
    again = decompress_snap(compress_snap(snap))
    assert content_digest(again) == DIGEST


def test_inspect_v1():
    info = inspect_container(fixture_bytes())
    assert info["version"] == 1
    assert info["crc_ok"] is None
    assert info["problems"] == []
    assert len(info["blobs"]) == 5


def test_cli_info_reads_v1(capsys):
    assert main(["info", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "container: TBSZ1, 694 bytes" in out
    assert "CRC no checksums (v1)" in out
    assert "snap: unhandled in tiny on machine at clock 193" in out
    assert "replayable: seed-only" in out
