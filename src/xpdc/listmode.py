"""
Binary list-mode event files, flat key-value manifests and CSV tables.

File layout (all integers little endian):

    offset  size  field
    0       4     magic "XPDC"
    4       1     format version (1)
    5       4     clock tick, ns (u32)
    9       1     detector count (u8)
    10      8     config hash, FNV-1a 64 (u64)
    18      ...   records, 13 bytes each:
                    detector_id (u8) | timestamp ns (u64) | energy eV (u32)

Records are non-decreasing in timestamp within each detector id, every
timestamp is below 2**63, and every detector id is in 1..detector count.
Records exist only at this file boundary.  write_listmode writes Streams,
merged block by block (merged_blocks); the k-th Stream is detector k + 1,
and a Stream is in order by construction.  The read side checks records:
read_listmode, and split_streams (or read_streams, straight from a file),
which turns them into Streams.  Every output file is written to a
temporary file in the target directory, then renamed atomically.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import stat
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import events as _events
from .events import Stream, stamps_in_order, thread_map

MAGIC = b"XPDC"
FORMAT_VERSION = 1
HEADER_SIZE = 18
EVENT_DTYPE = np.dtype(  # one record, packed to 13 bytes
    [("detector_id", "<u1"), ("timestamp_ns", "<u8"), ("energy_ev", "<u4")]
)
_CSV_HEADER = (",".join(EVENT_DTYPE.names) + "\n").encode()
# CSV rows rendered per chunk, so no CSV is held in memory whole.
_CSV_BLOCK_ROWS = 65536
# Events of the longest Stream merged per block by merged_blocks.
_MERGE_BLOCK = 65536
# Records gathered per block by split_streams.
_SPLIT_BLOCK = 65536
_HEADER_DTYPE = np.dtype([("magic", "S4"), ("version", "<u1"), ("clock_tick_ns", "<u4"),
                          ("detector_count", "<u1"), ("config_hash", "<u8")])


class ListModeFormatError(ValueError):
    """Malformed or inconsistent list-mode file."""


class ListModeHeader(NamedTuple):
    clock_tick_ns: int
    detector_count: int
    config_hash: int


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator:
    """A binary handle on a temporary file beside path, renamed to path when
    the with block ends: the whole file, or, if the block raises, no file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".xpdc-tmp-{os.urandom(8).hex()}")
    # A new file of mode 0666, which the kernel masks with the umask, as open() does.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_listmode(
    path: str, streams: Sequence[Stream], header: ListModeHeader, csv_path: str | None = None
) -> None:
    """Write the Streams as records to a list-mode file and, with csv_path,
    to a CSV file as write_events_csv does, in one pass: each block of
    merged_blocks is written as it comes.  A header naming other than
    len(streams) detectors raises before any file is made; a fault while
    writing leaves no file."""
    if header.detector_count != len(streams):
        raise ListModeFormatError(
            f"header says {header.detector_count} detectors, not {len(streams)}"
        )
    head = (MAGIC, FORMAT_VERSION, header.clock_tick_ns, header.detector_count, header.config_hash)
    with contextlib.ExitStack() as files:
        out = files.enter_context(_atomic_write(path))
        out.write(np.array([head], dtype=_HEADER_DTYPE))
        if csv_path is not None:
            csv = files.enter_context(_atomic_write(csv_path))
            csv.write(_CSV_HEADER)
        for block in merged_blocks(*streams):
            out.write(block)
            if csv_path is not None:
                csv.writelines(_csv_chunks(block))
            del block  # freed before the next block is merged


def _read_records(path: str) -> tuple[np.ndarray, ListModeHeader, mmap.mmap | None]:
    """The unvalidated, writeable records of a list-mode file, its header,
    and the map that holds them, or None.  A regular file's records are a
    copy-on-write map of it: pages are read as they are touched, and writes
    stay in memory.  A pipe, or a file with no records, is read, with no
    map.  Only read_streams uses the map (see _MappedRecords): the callers
    of read_listmode may write to their records, so none of their pages is
    given back."""
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise ListModeFormatError("file shorter than header")
        head = np.frombuffer(raw, dtype=_HEADER_DTYPE)[0]
        if bytes(head["magic"]) != MAGIC:
            raise ListModeFormatError(f"bad magic {bytes(head['magic'])!r}")
        if int(head["version"]) != FORMAT_VERSION:
            raise ListModeFormatError(f"unsupported format version {head['version']}")
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > HEADER_SIZE:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
            body = np.frombuffer(mapped, dtype=np.uint8, offset=HEADER_SIZE)
        else:
            mapped = None
            body = np.frombuffer(bytearray(handle.read()), dtype=np.uint8)
    if len(body) % EVENT_DTYPE.itemsize:
        raise ListModeFormatError(
            f"record section size {len(body)} is not a multiple of {EVENT_DTYPE.itemsize}"
        )
    header = ListModeHeader(*(int(head[name]) for name in ListModeHeader._fields))
    return body.view(EVENT_DTYPE), header, mapped


def read_listmode(path: str) -> tuple[np.ndarray, ListModeHeader]:
    """Read and validate a list-mode file: (EVENT_DTYPE records, header).
    Ids outside 1..detector count raise the format error, else the first
    detector whose stamps decrease or reach 2**63 does."""
    events, header, _ = _read_records(path)
    ids, t = events["detector_id"], events["timestamp_ns"]
    if len(ids) and (ids.min() < 1 or ids.max() > header.detector_count):
        raise ListModeFormatError("detector id outside 1..detector count")
    # Records in global time order pass in one test; else each detector is tested.
    if not stamps_in_order(t):
        for det in range(1, header.detector_count + 1):
            if not stamps_in_order(t[ids == det]):
                raise _order_error(det)
    return events, header


def read_streams(
    path: str, detector_count: int | None = None
) -> tuple[list[Stream], ListModeHeader]:
    """Read a list-mode file as (one Stream per detector, header), by split_streams;
    a header naming other than detector_count detectors, if given, raises first.
    The pages of a mapped file are given back as the split copies them out."""
    events, header, mapped = _read_records(path)
    if detector_count is not None and header.detector_count != detector_count:
        raise ListModeFormatError(
            f"header says {header.detector_count} detectors, not {detector_count}"
        )
    if mapped is not None:
        events = events.view(_MappedRecords)
        events.pages = mapped
    return split_streams(events, header.detector_count), header


class _MappedRecords(np.ndarray):
    """Records from byte HEADER_SIZE of the map .pages, which read_streams
    opened copy-on-write and no one else holds.  split_streams gives back
    the whole pages under each block once it has copied the block out: the
    split never writes to the map, so a page given back too early is only
    read again from the file."""

    pages: mmap.mmap


def _give_back(pages: mmap.mmap, start: int, stop: int) -> None:
    """Drop from the resident set the whole pages of the map that hold
    only bytes of records start..stop."""
    lo = -(-(HEADER_SIZE + start * EVENT_DTYPE.itemsize) // mmap.PAGESIZE) * mmap.PAGESIZE
    hi = (HEADER_SIZE + stop * EVENT_DTYPE.itemsize) // mmap.PAGESIZE * mmap.PAGESIZE
    if hi > lo:
        pages.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _order_error(det: int) -> ListModeFormatError:
    return ListModeFormatError(f"timestamps for detector {det} decrease or reach 2**63 ns")


def split_streams(events: np.ndarray, detector_count: int = 2) -> list[Stream]:
    """One Stream per detector, in file order, from a record array; raises
    read_listmode's ListModeFormatError for ids outside 1..detector_count,
    before any gather, or for the first detector whose stamps are out of
    order.

    One pass over blocks of _SPLIT_BLOCK records, in two stages, each in
    fixed shares of the blocks on plain threads, the caller running one
    (thread_map).  The first copies each block's ids into one column and
    counts each detector's: a count short of the block is the id error,
    and the counts place each block in the detectors' columns.  The second
    copies each block's stamps and energies once into buffers its share
    reuses, and takes each detector's records from them into its columns.
    Beyond the Streams this holds the id column, 1 B per record, and a
    block per share.  Records that read_streams mapped give back the pages
    of each block once its stamps and energies are copied; an array passed
    in gives back none."""
    blocks = [slice(start, min(start + _SPLIT_BLOCK, len(events)))
              for start in range(0, len(events), _SPLIT_BLOCK)]
    shares = range(min(len(blocks), _events.usable_cpus()))  # one per thread_map worker
    dets = range(1, detector_count + 1)
    ids = np.empty(len(events), dtype=np.uint8)
    counts = np.empty((len(blocks), detector_count), dtype=np.intp)

    def count(share: int) -> None:
        for b in range(share, len(blocks), len(shares)):
            block = ids[blocks[b]]
            block[:] = events["detector_id"][blocks[b]]
            counts[b] = [np.count_nonzero(block == det) for det in dets]
            if counts[b].sum() != len(block):
                raise ListModeFormatError("detector id outside 1..detector count")

    thread_map(count, shares)
    ends = np.cumsum(counts, axis=0)
    sizes = counts.sum(axis=0)
    pages = events.pages if isinstance(events, _MappedRecords) else None
    stamps = [np.empty(n, dtype=np.uint64) for n in sizes]
    energies = [np.empty(n, dtype=np.uint32) for n in sizes]

    def gather(share: int) -> None:
        stamp_buffer = np.empty(min(_SPLIT_BLOCK, len(events)), dtype=np.uint64)
        energy_buffer = np.empty(len(stamp_buffer), dtype=np.uint32)
        for b in range(share, len(blocks), len(shares)):
            block, records = ids[blocks[b]], events[blocks[b]]
            stamp_buffer[: len(block)] = records["timestamp_ns"]
            energy_buffer[: len(block)] = records["energy_ev"]
            if pages is not None:
                _give_back(pages, blocks[b].start, blocks[b].stop)
            for det, start, end in zip(dets, ends[b] - counts[b], ends[b]):
                index = np.flatnonzero(block == det)
                # mode="clip" lets take() write into out; "raise" would buffer it.
                np.take(stamp_buffer, index, mode="clip", out=stamps[det - 1][start:end])
                np.take(energy_buffer, index, mode="clip", out=energies[det - 1][start:end])

    thread_map(gather, shares)
    del ids  # freed before the Streams check their order

    def stream(det: int) -> Stream:
        try:
            return Stream(stamps[det - 1], energies[det - 1])
        except ValueError:
            raise _order_error(det) from None

    return thread_map(stream, dets)


def merged_blocks(*streams: Stream) -> Iterator[np.ndarray]:
    """Pack Streams into timestamp-sorted EVENT_DTYPE records, yielded as
    blocks in file order; the k-th Stream gets detector id k + 1.  Tied
    timestamps keep the order of the Streams, and their order within each.

    The longest Stream, k, is cut into blocks of _MERGE_BLOCK events; at
    the cut stamps the Streams before k take side="right" and those after
    it side="left", so each block is a run of the merged order.  Each
    block is sorted stably on its own, so no temporary is longer than a
    block and its share of the other Streams."""
    if not streams:
        return  # a header-only file, which a detector count of 0 allows
    k = int(np.argmax([len(s) for s in streams]))
    cuts = np.arange(_MERGE_BLOCK, len(streams[k]), _MERGE_BLOCK)
    at = streams[k].timestamp_ns[cuts]
    edges = []
    for j, s in enumerate(streams):
        ends = cuts if j == k else np.searchsorted(s.timestamp_ns, at, "right" if j < k else "left")
        edges.append(np.concatenate(([0], ends, [len(s)])))
    for block in range(len(cuts) + 1):
        yield _merge_block([(s, e[block], e[block + 1]) for s, e in zip(streams, edges)])


def _merge_block(parts: list[tuple[Stream, int, int]]) -> np.ndarray:
    """The records of the (Stream, lo, hi) slices, stably sorted by stamp;
    the k-th slice gets detector id k + 1.  A function of its own, so that
    no temporary outlives the block."""
    stamps = np.concatenate([s.timestamp_ns[lo:hi] for s, lo, hi in parts])
    order = np.argsort(stamps, kind="stable")
    records = np.empty(len(stamps), dtype=EVENT_DTYPE)
    ids = np.arange(1, len(parts) + 1, dtype=np.uint8)
    records["detector_id"] = np.repeat(ids, [hi - lo for _, lo, hi in parts])[order]
    records["timestamp_ns"] = stamps[order]
    records["energy_ev"] = np.concatenate([s.energy_ev[lo:hi] for s, lo, hi in parts])[order]
    return records


def merge_streams(*streams: Stream) -> np.ndarray:
    """merged_blocks' records, in one array."""
    merged = np.empty(sum(len(s) for s in streams), dtype=EVENT_DTYPE)
    start = 0
    for block in merged_blocks(*streams):
        merged[start : start + len(block)] = block
        start += len(block)
        del block  # freed before the next block is merged
    return merged


def write_csv(
    path: str, header: str, row_format: str, columns: Sequence[np.ndarray], meta: dict[str, object]
) -> None:
    """CSV file: a `# key = value` line per meta entry, the header line,
    then row_format.format(*values) for each row of the equal-length
    column arrays, rendered _CSV_BLOCK_ROWS rows at a time."""
    row = (row_format + "\n").format
    with _atomic_write(path) as out:
        meta_lines = [f"# {key} = {value}\n" for key, value in meta.items()]
        out.write("".join(meta_lines + [header + "\n"]).encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [column[start : start + _CSV_BLOCK_ROWS].tolist() for column in columns]
            out.write("".join(map(row, *block)).encode())


def _decimal_digits(out: np.ndarray, values: np.ndarray) -> None:
    """Write the digits 0-9 of the unsigned values, zero-padded on the
    left, into the width x rows matrix out, one contiguous row per digit.
    Wider values are split by 10**9 first: divisions on uint32 are
    several times faster."""
    if out.shape[0] > 9:
        high = values // 10**9
        _decimal_digits(out[:-9], high)
        out, values = out[-9:], values - high * 10**9
    values = values.astype(np.uint32)
    for j in range(out.shape[0] - 1, 0, -1):
        rest = values // 10
        out[j] = values - rest * 10
        values = rest
    out[0] = values


def _csv_rows(columns: Sequence[np.ndarray]) -> bytes:
    """Comma-separated decimal lines of non-empty unsigned integer columns,
    from an ASCII matrix of character position x line, with each column as
    wide as its largest value.  Leading zeros are written as NUL bytes and
    removed from the finished text, which holds no other NUL; digit rows
    that even the smallest value fills hold none.  Built transposed, on
    contiguous copies of the columns, so every write is contiguous."""
    columns = [np.ascontiguousarray(column) for column in columns]
    widths = [len(str(int(column.max()))) for column in columns]
    text = np.empty((sum(widths) + len(columns), len(columns[0])), dtype=np.uint8)
    end = 0
    for column, width in zip(columns, widths):
        start, end = end, end + width
        _decimal_digits(text[start:end], column)
        text[start:end] += ord("0")
        filled = end - len(str(int(column.min())))  # first row every value fills
        for j in range(start, filled):  # row j holds the 10**(end-1-j) digit
            text[j] *= column >= 10 ** (end - 1 - j)
        text[end] = ord(",")
        end += 1
    text[-1] = ord("\n")
    return text.T.tobytes().replace(b"\0", b"")


def _csv_chunks(events: np.ndarray) -> Iterator[bytes]:
    """write_events_csv's lines of the records, _CSV_BLOCK_ROWS at a time."""
    for start in range(0, len(events), _CSV_BLOCK_ROWS):
        block = events[start : start + _CSV_BLOCK_ROWS]
        yield _csv_rows([block[name] for name in EVENT_DTYPE.names])


def write_events_csv(path: str, events: np.ndarray) -> None:
    """Events as CSV: the header detector_id,timestamp_ns,energy_ev, then a
    line per record in file order, rendered _CSV_BLOCK_ROWS at a time."""
    with _atomic_write(path) as out:
        out.write(_CSV_HEADER)
        out.writelines(_csv_chunks(events))


def write_manifest(path: str, entries: dict[str, object]) -> None:
    """Flat key = value manifest, one entry per line."""
    with _atomic_write(path) as out:
        out.write("".join(f"{key} = {value}\n" for key, value in entries.items()).encode())


def read_manifest(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ListModeFormatError(f"cannot read {path}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ListModeFormatError(f"bad manifest line {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries
