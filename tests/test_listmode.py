"""List-mode binary format, manifests, CSV export."""

import os
from unittest import mock

import numpy as np
import pytest

from xpdc import listmode
from xpdc.cli import main
from xpdc.events import EVENT_DTYPE
from xpdc.listmode import (
    HEADER_SIZE,
    ListModeFormatError,
    ListModeHeader,
    fnv1a64,
    merge_streams,
    read_listmode,
    read_manifest,
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
            write_listmode(path, events, header)
            back, header_back = read_listmode(path)
            assert back.tobytes() == events.tobytes()
            assert header_back == header

    def test_file_layout(self, tmp_path):
        events = random_events(np.random.default_rng(2), 7)
        path = str(tmp_path / "events.xpdc")
        write_listmode(path, events, HEADER)
        size = os.path.getsize(path)
        assert size == HEADER_SIZE + 13 * 7
        with open(path, "rb") as fh:
            assert fh.read(4) == b"XPDC"

    def test_empty_file_header_only(self, tmp_path):
        path = str(tmp_path / "empty.xpdc")
        write_listmode(path, np.empty(0, dtype=EVENT_DTYPE), HEADER)
        assert os.path.getsize(path) == HEADER_SIZE
        back, header = read_listmode(path)
        assert len(back) == 0 and header.config_hash == 0xDEADBEEF


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
        write_listmode(path, events, HEADER)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 9
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ListModeFormatError):
            read_listmode(path)

    def test_truncated_record_section(self, tmp_path):
        events = random_events(np.random.default_rng(4), 3)
        path = str(tmp_path / "trunc.xpdc")
        write_listmode(path, events, HEADER)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])
        with pytest.raises(ListModeFormatError):
            read_listmode(path)

    def test_detector_id_out_of_range(self, tmp_path):
        events = random_events(np.random.default_rng(5), 3)
        events["detector_id"][1] = 3
        with pytest.raises(ListModeFormatError):
            write_listmode(str(tmp_path / "x.xpdc"), events, HEADER)

    def test_per_detector_ordering_enforced(self, tmp_path):
        events = np.zeros(2, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 1)
        events["timestamp_ns"] = (100, 40)
        events["energy_ev"] = (6000, 6000)
        with pytest.raises(ListModeFormatError):
            write_listmode(str(tmp_path / "y.xpdc"), events, HEADER)

    def test_interleaved_detectors_allowed(self, tmp_path):
        # global order may interleave; only per-detector order matters
        events = np.zeros(4, dtype=EVENT_DTYPE)
        events["detector_id"] = (1, 2, 1, 2)
        events["timestamp_ns"] = (100, 40, 200, 160)
        events["energy_ev"] = (6000,) * 4
        path = str(tmp_path / "z.xpdc")
        write_listmode(path, events, HEADER)
        back, _ = read_listmode(path)
        assert len(back) == 4


class TestStreamHelpers:
    def test_split_and_merge(self):
        rng = np.random.default_rng(6)
        events = random_events(rng, 300)
        streams = split_streams(events, 2)
        assert sum(len(s) for s in streams) == 300
        merged = merge_streams(*streams)
        assert np.array_equal(
            np.sort(merged, order=["timestamp_ns", "detector_id"]),
            np.sort(events, order=["timestamp_ns", "detector_id"]),
        )

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
            write_listmode(paths[0], events, HEADER)
            write_manifest(paths[1], {"seed": 1})
            write_events_csv(paths[2], events)
        finally:
            os.umask(previous)
        for path in paths:
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

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
