"""List-mode binary format, manifests, CSV export."""

import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from listmode_files import write_records

from xpdc import events as events_module, listmode
from xpdc.cli import main
from xpdc.config import build_run_config, load_config_file, merge_settings
from xpdc.events import Stream
from xpdc.listmode import (
    EVENT_DTYPE,
    HEADER_SIZE,
    ListModeFormatError,
    ListModeHeader,
    fnv1a64,
    merge_streams,
    merged_blocks,
    read_listmode,
    read_manifest,
    read_streams,
    split_streams,
    write_csv,
    write_events_csv,
    write_listmode,
    write_manifest,
)


def random_events(rng, n, detector_count=2):
    events = np.empty(n, dtype=EVENT_DTYPE)
    events["detector_id"] = rng.integers(1, detector_count + 1, n)
    events["energy_ev"] = rng.integers(1000, 30000, n)
    # merged stream ordered in time, which also orders each detector
    events["timestamp_ns"] = np.sort(rng.integers(0, 10**12, n)) // 20 * 20
    return events


def interleaved_events(rng, n, detector_count=2):
    """Records in time order within each detector, not across them."""
    events = random_events(rng, n, detector_count)
    for det in range(1, detector_count + 1):
        mine = events["detector_id"] == det
        events["timestamp_ns"][mine] = np.sort(rng.integers(0, 10**9, np.count_nonzero(mine)))
    return events


def read_through_a_pipe(tmp_path, path, read):
    """read(fifo), while a thread writes the file at path into the fifo."""
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as sink, open(path, "rb") as source:
            sink.write(source.read())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def columns(streams):
    return [(s.timestamp_ns.tobytes(), s.energy_ev.tobytes()) for s in streams]


HEADER = ListModeHeader(clock_tick_ns=20, detector_count=2, config_hash=0xDEADBEEF)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            events = random_events(rng, int(rng.integers(0, 500)))
            header = ListModeHeader(
                clock_tick_ns=int(rng.integers(1, 100)),
                detector_count=2,
                config_hash=int(rng.integers(0, 2**63)),
            )
            path = str(tmp_path / f"events_{i}.xpdc")
            write_listmode(path, split_streams(events, 2), header)
            back, header_back = read_listmode(path)
            assert back.tobytes() == events.tobytes()
            assert header_back == header

    def test_file_layout(self, tmp_path):
        events = random_events(np.random.default_rng(2), 7)
        path = str(tmp_path / "events.xpdc")
        write_listmode(path, split_streams(events, 2), HEADER)
        size = os.path.getsize(path)
        assert size == HEADER_SIZE + 13 * 7
        with open(path, "rb") as fh:
            assert fh.read(4) == b"XPDC"

    def test_read_from_a_pipe(self, tmp_path):
        events = random_events(np.random.default_rng(3), 300)
        path = str(tmp_path / "events.xpdc")
        write_listmode(path, split_streams(events, 2), HEADER)
        back, header = read_through_a_pipe(tmp_path, path, read_listmode)
        assert back.tobytes() == events.tobytes() and header == HEADER
        assert back.flags.writeable

    def test_read_streams_from_a_pipe(self, tmp_path):
        events = random_events(np.random.default_rng(31), 300)
        path = str(tmp_path / "events.xpdc")
        write_listmode(path, split_streams(events, 2), HEADER)
        streams, header = read_through_a_pipe(tmp_path, path, read_streams)
        assert columns(streams) == columns(split_streams(events, 2)) and header == HEADER

    def test_empty_file_header_only(self, tmp_path):
        path = str(tmp_path / "empty.xpdc")
        write_listmode(path, [Stream([], [])] * 2, HEADER)
        assert os.path.getsize(path) == HEADER_SIZE
        back, header = read_listmode(path)
        assert len(back) == 0 and header.config_hash == 0xDEADBEEF
        streams, header = read_streams(path)
        assert [len(s) for s in streams] == [0, 0] and header == HEADER

    def test_no_streams_write_a_header_only_file(self, tmp_path):
        path = str(tmp_path / "none.xpdc")
        header = ListModeHeader(clock_tick_ns=20, detector_count=0, config_hash=0)
        write_listmode(path, (), header)
        assert os.path.getsize(path) == HEADER_SIZE
        back, header_back = read_listmode(path)
        assert len(back) == 0 and header_back == header
        assert read_streams(path) == ([], header)


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.xpdc")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + bytes(HEADER_SIZE - 4))
        with pytest.raises(ListModeFormatError):
            read_listmode(path)

    def test_bad_version(self, tmp_path):
        events = random_events(np.random.default_rng(3), 3)
        path = str(tmp_path / "v9.xpdc")
        write_listmode(path, split_streams(events, 2), HEADER)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 9
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ListModeFormatError):
            read_listmode(path)

    def test_truncated_record_section(self, tmp_path):
        events = random_events(np.random.default_rng(4), 3)
        path = str(tmp_path / "trunc.xpdc")
        write_listmode(path, split_streams(events, 2), HEADER)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])
        with pytest.raises(ListModeFormatError):
            read_listmode(path)

    def test_detector_id_out_of_range(self, tmp_path):
        events = random_events(np.random.default_rng(5), 3)
        events["detector_id"][1] = 3
        path = str(tmp_path / "x.xpdc")
        write_records(path, events, HEADER)
        for read in (read_listmode, read_streams):
            with pytest.raises(ListModeFormatError, match="^detector id outside "):
                read(path)

    def test_per_detector_ordering_enforced(self, tmp_path):
        events = np.zeros(2, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 1)
        events["timestamp_ns"] = (100, 40)
        events["energy_ev"] = (6000, 6000)
        path = str(tmp_path / "y.xpdc")
        write_records(path, events, HEADER)
        for read in (read_listmode, read_streams):
            with pytest.raises(ListModeFormatError, match="^timestamps for detector 1 "):
                read(path)

    @pytest.mark.parametrize(
        # Cast to int64, the first pair read as (-1, 1) and passed, the
        # second as decreasing and failed.
        "stamps", [(2**64 - 1, 1), (0, 2**63), (2**63, 2**63)],
        ids=["decreasing-past-2**63", "sorted-to-2**63", "tied-at-2**63"],
    )
    def test_order_is_compared_in_uint64_below_2_63(self, tmp_path, capsys, stamps):
        message = "timestamps for detector 1 decrease or reach 2\\*\\*63 ns"
        events = np.zeros(3, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1)
        events["timestamp_ns"] = (stamps[0], 5, stamps[1])
        path = str(tmp_path / "big.xpdc")
        write_records(path, events, HEADER)
        for read in (read_listmode, read_streams):
            with pytest.raises(ListModeFormatError, match=message):
                read(path)
        capsys.readouterr()
        assert main(["analyze", path, "--duration", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_unordered_detector_is_named(self, tmp_path, cpus):
        # Both detectors decrease; on a thread pool or not, detector 1 is
        # reported, as read_listmode reports it.
        events = np.zeros(4, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1, 2)
        events["timestamp_ns"] = (9, 9, 1, 1)
        message = "^timestamps for detector 1 decrease or reach 2\\*\\*63 ns$"
        with mock.patch.object(events_module, "usable_cpus", return_value=cpus):
            with pytest.raises(ListModeFormatError, match=message):
                split_streams(events, 2)
        path = str(tmp_path / "both.xpdc")
        write_records(path, events, HEADER)
        with pytest.raises(ListModeFormatError, match=message):
            read_listmode(path)

    def test_largest_int64_stamp_allowed(self, tmp_path):
        events = np.zeros(3, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1)
        events["timestamp_ns"] = (0, 2**63 - 1, 2**63 - 1)
        path = str(tmp_path / "edge.xpdc")
        write_records(path, events, HEADER)
        assert read_listmode(path)[0].tobytes() == events.tobytes()

    def test_interleaved_detectors_allowed(self, tmp_path):
        # global order may interleave; only per-detector order matters
        events = np.zeros(4, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1, 2)
        events["timestamp_ns"] = (100, 40, 200, 160)
        events["energy_ev"] = (6000,) * 4
        path = str(tmp_path / "z.xpdc")
        write_records(path, events, HEADER)
        back, _ = read_listmode(path)
        assert len(back) == 4


class TestMappedReader:
    def test_records_are_writeable_and_writes_stay_out_of_the_file(self, tmp_path):
        events = random_events(np.random.default_rng(30), 1000)
        path = str(tmp_path / "events.xpdc")
        write_records(path, events, HEADER)
        with open(path, "rb") as handle:
            before = handle.read()
        back, _ = read_listmode(path)
        assert back.flags.writeable
        back["energy_ev"] += 1
        back["detector_id"][:10] = 7
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert read_listmode(path)[0].tobytes() == events.tobytes()

    def test_read_listmode_peaks_under_2_bytes_per_event(self, tmp_path):
        # The records are mapped, not copied; what remains is the order check.
        n = 400_000
        path = str(tmp_path / "events.xpdc")
        write_records(path, random_events(np.random.default_rng(32), n), HEADER)
        read_listmode(path)  # the first call also fills caches
        tracemalloc.start()
        try:
            back, _ = read_listmode(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == n and peak < 2 * n

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_read_streams_holds_under_5_bytes_per_record_beyond_its_streams(self, tmp_path, cpus):
        # What grows with the file beyond the Streams is the id column's
        # copy, 1 B per record, freed before the Streams check their order,
        # which takes 1 B per record of a Stream: about 1 B in all, on one
        # thread or two.  Buffers and indices are one block long per share.
        block = listmode._SPLIT_BLOCK
        rng = np.random.default_rng(33)
        extra = []
        for n in (4 * block, 24 * block):
            path = str(tmp_path / f"{n}.xpdc")
            write_records(path, random_events(rng, n), HEADER)
            read_streams(path)  # the first call also fills caches
            with mock.patch.object(events_module, "usable_cpus", return_value=cpus):
                tracemalloc.start()
                try:
                    streams, _ = read_streams(path)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            extra.append(peak - sum(s.timestamp_ns.nbytes + s.energy_ev.nbytes for s in streams))
        assert (extra[1] - extra[0]) / (20 * block) < 2

    def test_read_streams_gives_back_split_pages(self, tmp_path):
        # A fresh interpreter's peak RSS grows by the Streams (12 B per
        # record), the id column (1 B) and the mapped pages of the blocks
        # not yet split; with every page resident until the split ended it
        # grew by 26.5 B per record.  The peak is read as VmHWM: ru_maxrss
        # keeps the high-water mark of the process that started the child.
        n = 4_000_000
        path = str(tmp_path / "events.xpdc")
        write_records(path, random_events(np.random.default_rng(34), n), HEADER)
        probe = ("import re, sys; from xpdc.listmode import read_streams; "
                 "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+) kB', "
                 "open('/proc/self/status').read())[1]); "
                 "before = peak(); read_streams(sys.argv[1]); print(peak() - before)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(listmode.__file__)))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-c", probe, path], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        assert int(proc.stdout) * 1024 / n < 20

    @pytest.mark.parametrize("block", [1, 7, 1000, 65536])
    def test_streams_of_a_mapped_file_equal_streams_of_its_records(self, tmp_path, block):
        # Blocks under a page give back none; larger ones give back the
        # whole pages inside them, which must start on a page boundary.
        rng = np.random.default_rng(35)
        path = str(tmp_path / "events.xpdc")
        for n in (0, 1, 999, 1000, 5001, 70000):
            events = interleaved_events(rng, n)
            write_records(path, events, HEADER)
            with mock.patch.object(listmode, "_SPLIT_BLOCK", block):
                streams, _ = read_streams(path)
                assert columns(streams) == columns(split_streams(events.copy(), 2))

    def test_split_of_read_listmode_records_keeps_their_writes(self, tmp_path):
        # Only the map that read_streams opened gives back pages: a page of
        # records written by the caller given back would read the file again.
        events = random_events(np.random.default_rng(36), 5000)
        path = str(tmp_path / "events.xpdc")
        write_records(path, events, HEADER)
        back, _ = read_listmode(path)
        back["energy_ev"] += 1
        with mock.patch.object(listmode, "_SPLIT_BLOCK", 1000):
            streams = split_streams(back, 2)
        assert np.array_equal(back["energy_ev"], events["energy_ev"] + 1)
        assert columns(streams) == columns(split_streams(back.copy(), 2))

    @pytest.mark.parametrize("detector_count", [1, 2, 3])
    def test_read_streams_equals_split_of_read_listmode(self, tmp_path, detector_count):
        rng = np.random.default_rng(40 + detector_count)
        path = str(tmp_path / "events.xpdc")
        for i, make in enumerate([random_events, interleaved_events] * 3):
            events = make(rng, int(rng.integers(0, 3000)), detector_count)
            header = ListModeHeader(clock_tick_ns=20, detector_count=detector_count, config_hash=i)
            write_records(path, events, header)
            streams, header_s = read_streams(path)
            records, header_l = read_listmode(path)
            assert header_s == header_l == header
            assert columns(streams) == columns(split_streams(records, detector_count))
            assert sum(len(s) for s in streams) == len(events)

    @pytest.mark.parametrize(
        "ids, stamps, message",
        [
            ((1, 0, 2), (1, 2, 3), "detector id outside 1..detector count"),
            ((1, 3, 2), (1, 2, 3), "detector id outside 1..detector count"),
            ((3, 2, 2), (1, 9, 8), "detector id outside 1..detector count"),
            ((1, 2, 2), (1, 9, 8), "timestamps for detector 2 decrease or reach 2\\*\\*63 ns"),
            ((1, 2, 1), (1, 2, 2**63), "timestamps for detector 1 decrease or reach 2\\*\\*63 ns"),
            ((2, 1, 2), (5, 2**64 - 1, 7), "timestamps for detector 1 decrease or reach 2\\*\\*63 ns"),
        ],
        ids=["id-0", "id-3", "id-and-order", "decreasing", "sorted-to-2**63", "first-at-2**64-1"],
    )
    def test_readers_raise_the_same_messages(self, tmp_path, ids, stamps, message):
        events = np.zeros(len(ids), dtype=EVENT_DTYPE)
        events["detector_id"] = ids
        events["timestamp_ns"] = stamps
        path = str(tmp_path / "bad.xpdc")
        write_records(path, events, HEADER)
        for read in (read_listmode, read_streams, lambda p: split_streams(events, 2)):
            with pytest.raises(ListModeFormatError, match=f"^{message}$"):
                read(path)


class TestStreamHelpers:
    def test_split_and_merge(self):
        rng = np.random.default_rng(6)
        events = random_events(rng, 300)
        streams = split_streams(events, 2)
        assert sum(len(s) for s in streams) == 300
        for det, stream in enumerate(streams, start=1):
            mine = events[events["detector_id"] == det]
            assert stream.timestamp_ns.dtype == np.uint64 and stream.energy_ev.dtype == np.uint32
            assert np.array_equal(stream.timestamp_ns, mine["timestamp_ns"])
            assert np.array_equal(stream.energy_ev, mine["energy_ev"])
        merged = merge_streams(*streams)
        assert np.array_equal(
            np.sort(merged, order=["timestamp_ns", "detector_id"]),
            np.sort(events, order=["timestamp_ns", "detector_id"]),
        )

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_split_equals_a_mask_per_detector(self, block, cpus):
        # Whatever the block edges and the number of shares, each Stream
        # holds what a boolean mask of the whole array takes for its
        # detector, a detector with no records too; the id error comes
        # before any Stream is built, and then detector 1 is named first.
        rng = np.random.default_rng(100 * block + cpus)
        sizes = (0, 1, block - 1, block, block + 1, 5 * block + block // 2)
        with mock.patch.object(listmode, "_SPLIT_BLOCK", block), mock.patch.object(
            events_module, "usable_cpus", return_value=cpus
        ):
            for detector_count, absent in [(1, None), (2, None), (2, 1), (3, None), (3, 2)]:
                present = [det for det in range(1, detector_count + 1) if det != absent]
                for n in sizes:
                    events = np.zeros(n, dtype=EVENT_DTYPE)
                    events["detector_id"] = rng.choice(present, n)
                    events["energy_ev"] = rng.integers(0, 2**32, n)
                    for det in present:
                        mine = events["detector_id"] == det
                        stamps = rng.integers(0, 2**63, np.count_nonzero(mine), dtype=np.uint64)
                        events["timestamp_ns"][mine] = np.sort(stamps)
                    masks = [events["detector_id"] == det for det in range(1, detector_count + 1)]
                    expected = [Stream(events["timestamp_ns"][m], events["energy_ev"][m]) for m in masks]
                    assert columns(split_streams(events, detector_count)) == columns(expected)

                # Detector 1 decreases at the end, detector 2 near the start.
                n = 4 * block * detector_count
                events = np.zeros(n, dtype=EVENT_DTYPE)
                events["detector_id"] = np.arange(n) % detector_count + 1
                events["timestamp_ns"] = np.arange(n) + 10
                events["timestamp_ns"][[n - detector_count, detector_count + 1]] = 0
                if detector_count > 1:
                    with pytest.raises(ListModeFormatError, match="^timestamps for detector 1 "):
                        split_streams(events, detector_count)
                for bad in (0, detector_count + 1, 255):
                    events["detector_id"][-1] = bad
                    built = mock.Mock(wraps=Stream)
                    with mock.patch.object(listmode, "Stream", built):
                        with pytest.raises(ListModeFormatError, match="^detector id outside "):
                            split_streams(events, detector_count)
                    assert built.call_count == 0

    def test_csv_export(self, tmp_path):
        events = np.zeros(2, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2)
        events["timestamp_ns"] = (0, 20)
        events["energy_ev"] = (11000, 10950)
        path = str(tmp_path / "events.csv")
        write_events_csv(path, events)
        lines = open(path).read().splitlines()
        assert lines[0] == "detector_id,timestamp_ns,energy_ev"
        assert lines[1] == "1,0,11000"
        assert lines[2] == "2,20,10950"

    def test_csv_memory_is_bounded_by_one_block(self, tmp_path):
        block = listmode._CSV_BLOCK_ROWS
        events = random_events(np.random.default_rng(9), 4 * block)
        path = str(tmp_path / "events.csv")
        write_events_csv(path, events[:block])  # the first call also fills caches
        peaks = []
        for blocks in (1, 4):
            tracemalloc.start()
            try:
                write_events_csv(path, events[: blocks * block])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0] and peaks[1] <= 10e6

    def test_merge_memory_is_bounded_by_one_block(self):
        # Beyond its inputs and its result, a merge holds one block's
        # temporaries, whatever the number of blocks.
        block = listmode._MERGE_BLOCK
        events = random_events(np.random.default_rng(9), 9 * block)
        merge_streams(*split_streams(events[: 2 * block]))  # the first call also fills caches
        extra = []
        for rows in (2 * block, 9 * block):  # stream 1 in 1 and in at least 4 blocks
            streams = split_streams(events[:rows])
            tracemalloc.start()
            try:
                merged = merge_streams(*streams)
                extra.append(tracemalloc.get_traced_memory()[1] - merged.nbytes)
            finally:
                tracemalloc.stop()
        assert len(streams[0]) >= 4 * block
        assert extra[1] <= 1.2 * extra[0]

    def test_merge_memory_is_bounded_when_stream_1_is_sparse(self):
        # 10 events in stream 1 and 1.4 M in stream 2: the blocks are cut on
        # the longer stream, so no block holds all of stream 2.
        rng = np.random.default_rng(11)
        streams = [
            Stream(np.sort(rng.integers(0, 10**12, n)).astype(np.uint64),
                   rng.integers(0, 20000, n).astype(np.uint32))
            for n in (10, 1_400_000)
        ]
        merge_streams(*streams)  # the first call also fills caches
        tracemalloc.start()
        try:
            merged = merge_streams(*streams)
            extra = tracemalloc.get_traced_memory()[1] - merged.nbytes
        finally:
            tracemalloc.stop()
        assert extra <= 4e6

    @pytest.mark.parametrize("merge_block", [1, 7, 64])
    def test_streamed_files_equal_files_of_the_whole_merge(self, tmp_path, merge_block):
        # Stamps drawn from 0..99 tie within and across the Streams.
        rng = np.random.default_rng(12)
        streams = [
            Stream(np.sort(rng.integers(0, 100, n)).astype(np.uint64),
                   rng.integers(0, 30000, n).astype(np.uint32))
            for n in (300, 450, 0)
        ]
        header = ListModeHeader(clock_tick_ns=20, detector_count=3, config_hash=7)
        merged = merge_streams(*streams)
        write_records(str(tmp_path / "whole.xpdc"), merged, header)
        write_events_csv(str(tmp_path / "whole.csv"), merged)
        with mock.patch.object(listmode, "_MERGE_BLOCK", merge_block), \
                mock.patch.object(listmode, "_CSV_BLOCK_ROWS", 5):
            assert len(list(merged_blocks(*streams))) == -(-450 // merge_block)
            write_listmode(str(tmp_path / "streamed.xpdc"), streams, header,
                           csv_path=str(tmp_path / "streamed.csv"))
        for suffix in ("xpdc", "csv"):
            assert (tmp_path / f"streamed.{suffix}").read_bytes() == (
                tmp_path / f"whole.{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "ids, stamps, message",
        [
            ((1, 2, 1), (100, 50, 90), "timestamps for detector 1 decrease or reach 2\\*\\*63 ns"),
            ((1, 2, 1, 2), (100, 200, 150, 180),
             "timestamps for detector 2 decrease or reach 2\\*\\*63 ns"),
            ((1, 2, 2), (5, 7, 2**63), "timestamps for detector 2 decrease or reach 2\\*\\*63 ns"),
            ((1, 2, 3), (5, 7, 9), "detector id outside 1..detector count"),
        ],
        ids=["detector-1-decreases", "detector-2-decreases", "reaches-2**63", "id-3"],
    )
    def test_fault_at_a_block_edge_raises_as_in_one_array(self, tmp_path, ids, stamps, message):
        # read_streams splits the file in blocks of _SPLIT_BLOCK records; the
        # last record is a block of its own: the fault is at its edge.
        events = np.zeros(len(ids), dtype=EVENT_DTYPE)
        events["detector_id"] = ids
        events["timestamp_ns"] = stamps
        path = str(tmp_path / "edge.xpdc")
        write_records(path, events, HEADER)
        with pytest.raises(ListModeFormatError, match=f"^{message}$"):
            read_listmode(path)
        with mock.patch.object(listmode, "_SPLIT_BLOCK", len(ids) - 1):
            with pytest.raises(ListModeFormatError, match=f"^{message}$"):
                read_streams(path)

    def test_detectors_may_interleave_across_a_block_edge(self, tmp_path):
        events = np.zeros(4, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1, 2)
        events["timestamp_ns"] = (100, 200, 150, 250)
        path = str(tmp_path / "blocks.xpdc")
        write_records(path, events, HEADER)
        assert read_listmode(path)[0].tobytes() == events.tobytes()
        with mock.patch.object(listmode, "_SPLIT_BLOCK", 2):
            streams, _ = read_streams(path)
        assert [s.timestamp_ns.tolist() for s in streams] == [[100, 150], [200, 250]]

    def test_header_naming_other_than_the_streams_leaves_no_file(self, tmp_path):
        streams = split_streams(random_events(np.random.default_rng(13), 10), 2)
        header = ListModeHeader(clock_tick_ns=20, detector_count=3, config_hash=0)
        with pytest.raises(ListModeFormatError, match="^header says 3 detectors, not 2$"):
            write_listmode(str(tmp_path / "e.xpdc"), streams, header,
                           csv_path=str(tmp_path / "e.csv"))
        assert os.listdir(tmp_path) == []

    def test_fault_after_the_first_merge_block_leaves_no_file(self, tmp_path):
        streams = split_streams(random_events(np.random.default_rng(14), 40), 2)
        csv_chunks, rendered = listmode._csv_chunks, []

        def fails_on_the_second_block(block):
            rendered.append(len(block))
            if len(rendered) == 2:
                raise RuntimeError("csv failed")
            return csv_chunks(block)

        with mock.patch.object(listmode, "_MERGE_BLOCK", 8), \
                mock.patch.object(listmode, "_csv_chunks", fails_on_the_second_block):
            with pytest.raises(RuntimeError, match="csv failed"):
                write_listmode(str(tmp_path / "e.xpdc"), streams, HEADER,
                               csv_path=str(tmp_path / "e.csv"))
        assert len(rendered) == 2 and rendered[0] > 0
        assert os.listdir(tmp_path) == []

    def test_simulate_holds_one_merge_block_beyond_its_streams(self, tmp_path, monkeypatch):
        # simulate writes events.xpdc and events.csv from the Streams block
        # by block: no record array as long as the run.
        block = listmode._MERGE_BLOCK
        events = random_events(np.random.default_rng(9), 9 * block)
        (tmp_path / "one.cfg").write_text("run.duration = 1 s\n")
        argv = ["simulate", "--config", str(tmp_path / "one.cfg"), "--csv", "--out", str(tmp_path)]
        manifest = events_module.simulate_run(build_run_config(
            merge_settings(load_config_file(str(tmp_path / "one.cfg")))))[2]
        run = []
        monkeypatch.setattr(events_module, "simulate_run", lambda *a, **k: (*run, manifest))
        run[:] = split_streams(events[: 2 * block])
        assert main(argv) == 0  # the first call also fills caches
        peaks = []
        for rows in (2 * block, 9 * block):  # stream 1 in 1 and in at least 4 blocks
            run[:] = split_streams(events[:rows])
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(read_listmode(str(tmp_path / "events.xpdc"))[0]) == rows
        assert len(run[0]) >= 4 * block
        assert peaks[1] <= 1.2 * peaks[0]

    def test_failing_row_source_leaves_no_file(self, tmp_path):
        class FailsAfterFirstBlock:
            def __getitem__(self, rows):
                if rows.start:
                    raise RuntimeError("row source failed")
                return np.arange(5)[rows]

        with mock.patch.object(listmode, "_CSV_BLOCK_ROWS", 2):
            with pytest.raises(RuntimeError, match="row source failed"):
                write_csv(
                    str(tmp_path / "t.csv"), "a,b", "{},{}",
                    (np.arange(5), FailsAfterFirstBlock()), {"k": 1},
                )
        assert os.listdir(tmp_path) == []


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        entries = {"seed": 7, "duration_s": 1800.0, "pairs_generated": 9507}
        write_manifest(path, entries)
        back = read_manifest(path)
        assert back["seed"] == "7"
        assert float(back["duration_s"]) == 1800.0

    def test_bad_line_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        with open(path, "w") as fh:
            fh.write("not a key value line\n")
        with pytest.raises(ListModeFormatError):
            read_manifest(path)


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_written_files_follow_umask(self, tmp_path, umask):
        # outputs get the mode open() would give them, not mkstemp's 0600
        events = random_events(np.random.default_rng(8), 10)
        paths = [str(tmp_path / name) for name in ("e.xpdc", "m.txt", "e.csv")]
        previous = os.umask(umask)
        try:
            write_listmode(paths[0], split_streams(events, 2), HEADER)
            write_manifest(paths[1], {"seed": 1})
            write_events_csv(paths[2], events)
        finally:
            os.umask(previous)
        for path in paths:
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_writes_without_setting_the_umask(self, tmp_path, monkeypatch):
        # Setting the umask to read it unmasks, for that moment, the files
        # other threads of the process create.
        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        path = str(tmp_path / "m.txt")
        write_manifest(path, {"seed": 1})
        assert read_manifest(path) == {"seed": "1"} and os.listdir(tmp_path) == ["m.txt"]

    @pytest.mark.filterwarnings("ignore:excluding non-positive rate")
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_command_line_outputs_follow_umask(self, tmp_path, umask):
        config = tmp_path / "quiet.cfg"
        config.write_text("run.duration = 1 s\nsource.pair_rate = 0 /s\n")
        run, scan = str(tmp_path / "run"), str(tmp_path / "scan")
        previous = os.umask(umask)
        try:
            assert main(["simulate", "--config", str(config), "--csv", "--out", run]) == 0
            assert main(["analyze", os.path.join(run, "events.xpdc"), "--out", run]) == 0
            assert main(["scan", "--config", str(config), "--detunings", "10",
                         "--out", scan]) == 0
        finally:
            os.umask(previous)
        names = {
            run: ["events.xpdc", "manifest.txt", "config.txt", "events.csv",
                  "correlation_map.csv", "analysis_report.txt"],
            scan: ["scan_result.csv"],
        }
        for directory, files in names.items():
            assert sorted(os.listdir(directory)) == sorted(files)
            for name in files:
                mode = os.stat(os.path.join(directory, name)).st_mode & 0o777
                assert mode == 0o666 & ~umask, name


class TestFnv1a:
    def test_known_vectors(self):
        # reference values for the 64-bit FNV-1a parameters
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_sensitivity(self):
        assert fnv1a64(b"config a") != fnv1a64(b"config b")
