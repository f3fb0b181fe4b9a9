"""
Binary list-mode event files and flat key-value manifests.

File layout (all integers little endian):

    offset  size  field
    0       4     magic "XPDC"
    4       1     format version (1)
    5       4     clock tick, ns (u32)
    9       1     detector count (u8)
    10      8     config hash, FNV-1a 64 (u64)
    18      ...   records, 13 bytes each:
                    detector_id (u8) | timestamp ns (u64) | energy eV (u32)

Records are non-decreasing in timestamp within each detector id, and
every detector id is in 1..detector count.  Writes go to a temporary
file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .events import EVENT_DTYPE

MAGIC = b"XPDC"
FORMAT_VERSION = 1
HEADER_SIZE = 18
_HEADER_DTYPE = np.dtype(
    [
        ("magic", "S4"),
        ("version", "<u1"),
        ("clock_tick_ns", "<u4"),
        ("detector_count", "<u1"),
        ("config_hash", "<u8"),
    ]
)


class ListModeFormatError(ValueError):
    """Malformed or inconsistent list-mode file."""


@dataclass(frozen=True)
class ListModeHeader:
    clock_tick_ns: int
    detector_count: int
    config_hash: int
    version: int = FORMAT_VERSION


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xpdc-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_listmode(path: str, events: np.ndarray, header: ListModeHeader) -> None:
    """Write a merged event stream to a list-mode file.

    events must be an EVENT_DTYPE array; ordering is validated the same
    way read_listmode validates it.
    """
    events = np.asarray(events, dtype=EVENT_DTYPE)
    _validate_records(events, header.detector_count)
    head = np.zeros(1, dtype=_HEADER_DTYPE)
    head["magic"] = MAGIC
    head["version"] = header.version
    head["clock_tick_ns"] = header.clock_tick_ns
    head["detector_count"] = header.detector_count
    head["config_hash"] = header.config_hash
    _atomic_write(path, head.tobytes() + events.tobytes())


def read_listmode(path: str) -> tuple[np.ndarray, ListModeHeader]:
    """Read and validate a list-mode file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < HEADER_SIZE:
        raise ListModeFormatError("file shorter than header")
    head = np.frombuffer(raw[:HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    if bytes(head["magic"]) != MAGIC:
        raise ListModeFormatError(f"bad magic {bytes(head['magic'])!r}")
    if int(head["version"]) != FORMAT_VERSION:
        raise ListModeFormatError(f"unsupported format version {head['version']}")
    body = raw[HEADER_SIZE:]
    if len(body) % EVENT_DTYPE.itemsize:
        raise ListModeFormatError(
            f"record section size {len(body)} is not a multiple of "
            f"{EVENT_DTYPE.itemsize}"
        )
    events = np.frombuffer(body, dtype=EVENT_DTYPE).copy()
    header = ListModeHeader(
        clock_tick_ns=int(head["clock_tick_ns"]),
        detector_count=int(head["detector_count"]),
        config_hash=int(head["config_hash"]),
        version=int(head["version"]),
    )
    _validate_records(events, header.detector_count)
    return events, header


def _validate_records(events: np.ndarray, detector_count: int) -> None:
    ids = events["detector_id"]
    if len(ids) and (ids.min() < 1 or ids.max() > detector_count):
        raise ListModeFormatError("detector id outside 1..detector count")
    for det in range(1, detector_count + 1):
        t = events["timestamp_ns"][ids == det].astype(np.int64)
        if len(t) > 1 and np.any(np.diff(t) < 0):
            raise ListModeFormatError(
                f"timestamps for detector {det} are not non-decreasing"
            )


def split_streams(events: np.ndarray, detector_count: int = 2) -> list[np.ndarray]:
    """Per-detector time-ordered streams from a merged record array."""
    return [
        events[events["detector_id"] == det]
        for det in range(1, detector_count + 1)
    ]


def merge_streams(*streams: np.ndarray) -> np.ndarray:
    """Merge per-detector streams into one timestamp-sorted array."""
    merged = np.concatenate([np.asarray(s, dtype=EVENT_DTYPE) for s in streams])
    order = np.argsort(merged["timestamp_ns"], kind="stable")
    return merged[order]


def write_events_csv(path: str, events: np.ndarray) -> None:
    """Events as CSV: detector_id,timestamp_ns,energy_ev."""
    lines = ["detector_id,timestamp_ns,energy_ev"]
    lines.extend(
        f"{int(r['detector_id'])},{int(r['timestamp_ns'])},{int(r['energy_ev'])}"
        for r in events
    )
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_manifest(path: str, entries: dict[str, object]) -> None:
    """Flat key = value manifest, one entry per line."""
    lines = [f"{key} = {value}" for key, value in entries.items()]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_manifest(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ListModeFormatError(f"bad manifest line {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries
