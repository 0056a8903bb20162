"""Snap archiving: compressed snap files.

The paper notes that "trace buffers are themselves readily compressible
by a factor of 10 or more for ease of archiving or transmission"
(§2.1) — DAG records repeat heavily (loops emit identical words), and
zeroed sub-buffer space is pure runs.  This module provides the
compressed snap container the eBay anecdote implies ("sent the trace,
in real time, to another author back at corporate headquarters").

Container format v2 (``TBSZ2``)::

    magic  b"TBSZ2\\n"
    <I>    uncompressed body length        (container-level length check)
    zlib-compressed body:
        <I> header length
        header JSON (buffer word lists replaced by
                     ["blob", index, byte size, crc32] markers)
        blob bytes, concatenated

The CRC32 per blob and the body-length word exist because snaps travel:
a connection cut mid-transfer used to yield a silently short word list
or a raw ``struct.error``.  v1 containers (``TBSZ1``: no checksums,
no length word) remain readable but are no longer written.
:func:`salvage_decompress` recovers what it can from a torn or
bit-flipped container instead of raising.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import zlib
from array import array

from repro.runtime.snap import SnapFile

#: Magic prefix of current (checksummed) compressed snap containers.
MAGIC = b"TBSZ2\n"

#: Magic prefix of legacy containers (no checksums, no length word).
MAGIC_V1 = b"TBSZ1\n"


class ArchiveError(ValueError):
    """The container is damaged: torn, truncated, or checksum-corrupt."""


#: Precompiled length-word codec: building ``f"<{n}I"`` format strings
#: per call made ``struct`` re-parse the format on every buffer; the
#: bulk paths below go through ``array`` instead, and the one-word
#: header fields use this single compiled Struct.
_U32 = struct.Struct("<I")

_NATIVE_IS_LE = sys.byteorder == "little"


def pack_words(words: list[int]) -> bytes:
    """Serialize a word list to little-endian bytes."""
    try:
        packed = array("I", words)
    except (OverflowError, TypeError, ValueError):
        # Out-of-range values (hand-built snaps): mask and retry.
        packed = array("I", [w & 0xFFFFFFFF for w in words])
    if not _NATIVE_IS_LE:
        packed.byteswap()
    return packed.tobytes()


def unpack_words(data: bytes) -> list[int]:
    """Inverse of :func:`pack_words`."""
    count = len(data) // 4
    unpacked = array("I")
    unpacked.frombytes(data[: count * 4])
    if not _NATIVE_IS_LE:
        unpacked.byteswap()
    return unpacked.tolist()


def compress_snap(snap: SnapFile, level: int = 6) -> bytes:
    """One self-contained compressed ``TBSZ2`` artifact for a snap.

    Buffer words are packed as raw little-endian 32-bit data (where the
    repetitive structure lives) and the metadata rides along as JSON;
    the whole payload is deflated.  Legacy ``TBSZ1`` containers are
    read, never written.
    """
    payload = snap.to_dict()
    blobs: list[bytes] = []
    for buffer in payload["buffers"]:
        blob = pack_words(buffer["words"])
        buffer["words"] = ["blob", len(blobs), len(blob), zlib.crc32(blob)]
        blobs.append(blob)
    header = json.dumps(payload).encode()
    body = _U32.pack(len(header)) + header + b"".join(blobs)
    return MAGIC + _U32.pack(len(body)) + zlib.compress(body, level)


def _parse_body(
    body: bytes, strict: bool, notes: list[str]
) -> SnapFile | None:
    """Shared v1/v2 body parser.

    In strict mode any damage raises :class:`ArchiveError`; otherwise
    problems land in ``notes`` and damaged blobs are recovered as far as
    the surviving bytes allow.
    """
    if len(body) < 4:
        if strict:
            raise ArchiveError("container body too short for a header")
        notes.append("container body too short for a header")
        return None
    (header_len,) = _U32.unpack(body[:4])
    if 4 + header_len > len(body):
        if strict:
            raise ArchiveError(
                f"container torn inside the metadata header "
                f"({header_len} bytes declared, {len(body) - 4} present)"
            )
        notes.append("container torn inside the metadata header")
        return None
    try:
        payload = json.loads(body[4 : 4 + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        if strict:
            raise ArchiveError(f"metadata header unparseable: {exc}") from exc
        notes.append(f"metadata header unparseable: {exc}")
        return None
    cursor = 4 + header_len
    for buffer in payload.get("buffers", []):
        marker = buffer.get("words")
        if not (isinstance(marker, list) and marker and marker[0] == "blob"):
            continue
        size = marker[2]
        crc = marker[3] if len(marker) > 3 else None
        blob = body[cursor : cursor + size]
        if len(blob) < size:
            message = (
                f"buffer {buffer.get('index', '?')}: blob truncated "
                f"({len(blob)}/{size} bytes survive)"
            )
            if strict:
                raise ArchiveError(message)
            notes.append(message)
        elif crc is not None and zlib.crc32(blob) != crc:
            message = (
                f"buffer {buffer.get('index', '?')}: blob CRC mismatch "
                "(corrupt words)"
            )
            if strict:
                raise ArchiveError(message)
            notes.append(message)
        buffer["words"] = unpack_words(blob)
        cursor += size
    if strict:
        return SnapFile.from_dict(payload)
    snap, field_notes = SnapFile.from_dict_salvage(payload)
    notes.extend(field_notes)
    return snap


def _inflate_partial(compressed: bytes) -> bytes:
    """Inflate as much of a damaged zlib stream as possible.

    The zlib wrapper's trailing adler32 makes *any* corruption fatal to
    ``zlib.decompress`` even when every deflate block inflated fine, so
    strip the 2-byte wrapper and inflate the raw deflate stream in small
    chunks: a mid-stream error then still keeps everything decoded
    before it, and a corrupt checksum costs nothing.
    """
    if len(compressed) < 3:
        return b""
    inflater = zlib.decompressobj(wbits=-zlib.MAX_WBITS)
    chunks: list[bytes] = []
    raw = compressed[2:]  # past the zlib CMF/FLG header
    for start in range(0, len(raw), 1024):
        try:
            chunks.append(inflater.decompress(raw[start : start + 1024]))
        except zlib.error:
            break
    else:
        try:
            chunks.append(inflater.flush())
        except zlib.error:
            pass
    return b"".join(chunks)


def decompress_snap(data: bytes) -> SnapFile:
    """Inverse of :func:`compress_snap`.  Raises :class:`ArchiveError`
    on any damage (truncation, tearing, CRC mismatch)."""
    if data.startswith(MAGIC_V1):
        try:
            body = zlib.decompress(data[len(MAGIC_V1):])
        except zlib.error as exc:
            raise ArchiveError(f"container deflate stream damaged: {exc}") from exc
        return _parse_body(body, strict=True, notes=[])
    if not data.startswith(MAGIC):
        raise ArchiveError("not a compressed snap container")
    if len(data) < len(MAGIC) + 4:
        raise ArchiveError("container truncated before the length word")
    (body_len,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
    try:
        body = zlib.decompress(data[len(MAGIC) + 4 :])
    except zlib.error as exc:
        raise ArchiveError(f"container deflate stream damaged: {exc}") from exc
    if len(body) != body_len:
        raise ArchiveError(
            f"container length check failed: {len(body)} bytes inflate, "
            f"{body_len} declared (truncated in transit?)"
        )
    return _parse_body(body, strict=True, notes=[])


def salvage_decompress(data: bytes) -> tuple[SnapFile | None, list[str]]:
    """Best-effort read of a damaged container.

    Returns ``(snap, notes)``: ``snap`` is None only when nothing at all
    is recoverable (unreadable metadata); otherwise it carries every
    buffer whose bytes survive, with damage described in ``notes``.
    Never raises on damage.
    """
    notes: list[str] = []
    if data.startswith(MAGIC_V1):
        compressed = data[len(MAGIC_V1):]
        declared = None
    elif data.startswith(MAGIC):
        if len(data) < len(MAGIC) + 4:
            return None, ["container truncated before the length word"]
        (declared,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
        compressed = data[len(MAGIC) + 4 :]
    else:
        return None, ["not a compressed snap container"]
    try:
        body = zlib.decompress(compressed)
    except zlib.error as exc:
        notes.append(f"deflate stream damaged: {exc}")
        body = _inflate_partial(compressed)
    if declared is not None and len(body) != declared:
        notes.append(
            f"length check failed: {len(body)}/{declared} bytes recovered"
        )
    snap = _parse_body(body, strict=False, notes=notes)
    return snap, notes


def compression_ratio(snap: SnapFile, level: int = 6) -> float:
    """Raw-buffer bytes vs compressed container bytes."""
    raw = sum(len(b.words) * 4 for b in snap.buffers)
    packed = len(compress_snap(snap, level))
    return raw / packed if packed else 0.0


def save_compressed(snap: SnapFile, path: str, level: int = 6) -> None:
    """Write a compressed snap container to disk, atomically.

    The bytes land in a sibling temp file first and are moved into
    place with :func:`os.replace`, so an abrupt kill mid-write (the
    exact tear ``repro.chaos`` injects) can never leave a torn
    container at ``path``: readers see the old content or the new,
    never a prefix.
    """
    data = compress_snap(snap, level)
    write_atomic(data, path)


def write_atomic(data: bytes, path: str, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via temp file + ``os.replace``.

    ``fsync=False`` skips the per-file flush-to-disk: callers doing
    group commit (the vault's batched ingest) write many blobs first
    and issue one sync point for the whole batch before recording any
    of them in a manifest, amortising what is otherwise the dominant
    per-snap cost.  The rename is atomic either way — readers see the
    old bytes or the new, never a prefix.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_compressed(path: str) -> SnapFile:
    """Read a container written by :func:`save_compressed`."""
    with open(path, "rb") as fh:
        return decompress_snap(fh.read())


def inspect_container(data: bytes) -> dict:
    """Cheap structural report on a container, without reconstruction.

    Backs ``tbtrace info``: version, body-length check, blob census and
    per-blob CRC status, and the snap metadata (reason, process,
    machine, clock, module/thread counts) straight from the header
    JSON.  Never raises on damage — problems land in ``"problems"``.
    """
    info: dict = {
        "version": None,
        "size": len(data),
        "length_ok": None,
        "blobs": [],
        "crc_ok": None,
        "meta": None,
        "problems": [],
    }
    if data.startswith(MAGIC_V1):
        info["version"] = 1
        compressed = data[len(MAGIC_V1):]
        declared = None
    elif data.startswith(MAGIC):
        info["version"] = 2
        if len(data) < len(MAGIC) + 4:
            info["problems"].append("container truncated before the length word")
            return info
        (declared,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
        compressed = data[len(MAGIC) + 4 :]
    else:
        info["problems"].append("not a compressed snap container")
        return info
    try:
        body = zlib.decompress(compressed)
    except zlib.error as exc:
        info["problems"].append(f"deflate stream damaged: {exc}")
        body = _inflate_partial(compressed)
    if declared is not None:
        info["length_ok"] = len(body) == declared
        if not info["length_ok"]:
            info["problems"].append(
                f"length check failed: {len(body)}/{declared} bytes"
            )
    if len(body) < 4:
        info["problems"].append("container body too short for a header")
        return info
    (header_len,) = _U32.unpack(body[:4])
    if 4 + header_len > len(body):
        info["problems"].append("container torn inside the metadata header")
        return info
    try:
        payload = json.loads(body[4 : 4 + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        info["problems"].append(f"metadata header unparseable: {exc}")
        return info
    from repro.replay.ndlog import replayable_status

    replay = payload.get("replay") or {}
    ndlog = replay.get("ndlog") if isinstance(replay, dict) else None
    info["meta"] = {
        "reason": payload.get("reason"),
        "detail": payload.get("detail"),
        "process_name": payload.get("process_name"),
        "machine_name": payload.get("machine_name"),
        "clock": payload.get("clock"),
        "modules": len(payload.get("modules", [])),
        "threads": len(payload.get("threads", [])),
        "buffers": len(payload.get("buffers", [])),
        "replayable": replayable_status(replay if isinstance(replay, dict) else {}),
        # Wire format of the embedded nondeterminism log, when any
        # ("tb-ndlog/1" plain JSON, "tb-ndlog/2" packed columnar).
        "ndlog_format": (
            ndlog.get("format") if isinstance(ndlog, dict) else None
        ),
    }
    cursor = 4 + header_len
    all_ok: bool | None = None
    for buffer in payload.get("buffers", []):
        marker = buffer.get("words")
        if not (isinstance(marker, list) and marker and marker[0] == "blob"):
            continue
        size = marker[2]
        crc = marker[3] if len(marker) > 3 else None
        blob = body[cursor : cursor + size]
        entry = {
            "index": buffer.get("index"),
            "bytes": size,
            "present": len(blob),
        }
        if len(blob) < size:
            entry["crc"] = "truncated"
            all_ok = False
            info["problems"].append(
                f"buffer {buffer.get('index', '?')}: blob truncated "
                f"({len(blob)}/{size} bytes)"
            )
        elif crc is None:
            entry["crc"] = "absent"
        else:
            ok = zlib.crc32(blob) == crc
            entry["crc"] = "ok" if ok else "mismatch"
            if not ok:
                info["problems"].append(
                    f"buffer {buffer.get('index', '?')}: blob CRC mismatch"
                )
            if all_ok is None:
                all_ok = ok
            else:
                all_ok = all_ok and ok
        info["blobs"].append(entry)
        cursor += size
    info["crc_ok"] = all_ok
    return info
