"""Property tests: the config parser and the list-mode reader on generated
input either return or raise their own error type; `xpdc analyze` with
any manifest text beside its file reports or exits 2, and with flags
from small ranges exits 1 with one `error: ` line exactly when
CoincidenceCriteria or check_settings refuses them, else 0 or 2; split,
candidate cut and pairing, whole and in blocks of 1-3 events, equal a
record-by-record reference;
correlation-map counts equal np.histogram2d over the same edges;
CSV rendering in blocks equals rendering the rows one by one; merging
Streams in blocks of 1-3 events equals one stable sort; the candidate
cut on integer bounds equals the float comparison; the sort-based median
equals np.median."""

import contextlib
import io
import math
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from listmode_files import write_manifest_beside, write_records

from xpdc import analysis, listmode
from xpdc.analysis import (
    PAIR_DTYPE,
    CoincidenceCriteria,
    build_correlation_map,
    find_coincidence_pairs,
    select_candidates,
)
from xpdc.cli import main
from xpdc.config import build_run_config, default_settings, parse_config_text
from xpdc.events import AnalysisError, ConfigError, Stream
from xpdc.listmode import (
    EVENT_DTYPE,
    ListModeFormatError,
    ListModeHeader,
    merge_streams,
    read_listmode,
    read_manifest,
    split_streams,
    write_csv,
    write_events_csv,
    write_listmode,
)
from xpdc.physics import PhysicsError

# Fixed examples, so the suite is deterministic and quick.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

DEFAULTS = default_settings()
KEYS = sorted(DEFAULTS)
UNITS = [
    "ev", "keV", "MeV", "rad", "mrad", "deg", "mdeg", "mm", "cm", "m", "A", "nm",
    "mm2", "cm2", "ns", "us", "ms", "s", "min", "hr", "/s", "Hz", "/hr",
]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "0", "-0.0", "1e-320"]),
).map(str)
VALUES = st.one_of(
    st.builds("{} {}".format, NUMBERS, st.sampled_from(UNITS)),
    NUMBERS,
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.lists(st.tuples(NUMBERS, NUMBERS), max_size=3).map(
        lambda points: ",".join(f"{e}:{v}" for e, v in points)
    ),
    st.sampled_from(["auto", "constant", "ideal", "table", ""]),
    st.text(max_size=12),
)


def _override(key: str):
    """(key, value): mostly a new number in the unit of the key's default."""
    parts = DEFAULTS[key].split()
    unit = parts[1] if len(parts) == 2 else None
    typed = NUMBERS.map(lambda number: f"{number} {unit}" if unit else number)
    return st.one_of(typed, typed, VALUES).map(lambda value: (key, value))


OVERRIDES = st.lists(st.sampled_from(KEYS).flatmap(_override), min_size=1, max_size=3)


@PROPERTY
@given(st.one_of(
    st.text(max_size=200),
    st.lists(
        st.tuples(st.sampled_from(KEYS + ["crystal.detunning"]), VALUES),
        max_size=5,
    ).map(lambda lines: "\n".join(f"{key} = {value}" for key, value in lines)),
))
def test_parse_config_text_returns_or_raises_config_error(text):
    try:
        parsed = parse_config_text(text)
    except ConfigError:
        return
    assert set(parsed) <= set(KEYS)


@PROPERTY
@given(OVERRIDES)
def test_build_run_config_returns_finite_run_or_raises_config_error(overrides):
    raw = default_settings()
    raw.update(overrides)
    try:
        run = build_run_config(raw)
    except (ConfigError, PhysicsError):
        return
    exp = run.experiment
    response = exp.response
    rates = [exp.source.true_pair_rate_per_s, exp.beam.incident_rate_per_s]
    rates += [line.rate_per_s for lines in exp.source.components for line in lines]
    durations = [
        run.duration_s, response.time_jitter_sigma_ns, response.dead_time_ns,
        response.clock_tick_ns,
    ]
    assert all(math.isfinite(value) for value in rates + durations)


HEADER = ListModeHeader(clock_tick_ns=20, detector_count=2, config_hash=0x1234)


def _valid_records(n: int) -> bytes:
    rng = np.random.default_rng(n)
    events = np.empty(n, dtype=EVENT_DTYPE)
    events["detector_id"] = rng.integers(1, 3, n)
    events["timestamp_ns"] = np.sort(rng.integers(0, 10**12, n))
    events["energy_ev"] = rng.integers(0, 2**32, n)
    return events.tobytes()


BODIES = st.one_of(
    st.binary(max_size=13 * 12),
    st.builds(lambda n, cut: _valid_records(n)[:cut], st.integers(0, 12), st.integers(0, 13 * 12)),
    st.builds(
        lambda n, index, mask: _flip(_valid_records(n), index, mask),
        st.integers(1, 12), st.integers(0, 13 * 12 - 1), st.integers(1, 255),
    ),
)


def _flip(body: bytes, index: int, mask: int) -> bytes:
    flipped = bytearray(body)
    flipped[index % len(body)] ^= mask
    return bytes(flipped)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY
@given(body=BODIES)
def test_read_listmode_returns_or_raises_format_error(scratch, body):
    path = str(scratch / "events.xpdc")
    write_records(path, np.frombuffer(body, dtype=np.uint8), HEADER)
    try:
        events, header = read_listmode(path)
    except ListModeFormatError:
        return
    assert header == HEADER
    assert events.tobytes() == body
    assert set(np.unique(events["detector_id"])) <= {1, 2}


MANIFEST_TEXTS = st.one_of(
    st.text(max_size=120),
    st.lists(
        st.tuples(
            st.sampled_from(["duration_s", "mean_current", "config_hash", "seed"]),
            st.one_of(NUMBERS, st.text(max_size=8)),
        ),
        max_size=4,
    ).map(lambda lines: "\n".join(f"{key} = {value}" for key, value in lines)),
)


@pytest.fixture(scope="module")
def paired_events(scratch):
    """A list-mode file of 40 coincident 11 + 11 keV pairs."""
    n = 40
    events = np.empty(2 * n, dtype=EVENT_DTYPE)
    events["detector_id"] = np.tile([1, 2], n)
    events["timestamp_ns"] = np.repeat(np.arange(n, dtype=np.uint64) * 10**6, 2)
    events["energy_ev"] = 11000
    path = str(scratch / "paired.xpdc")
    write_listmode(path, split_streams(events, 2), HEADER)
    return path


@PROPERTY
@given(text=MANIFEST_TEXTS)
def test_analyze_with_any_manifest_reports_or_exits_2(scratch, paired_events, text):
    (scratch / "manifest.txt").write_text(text, encoding="utf-8")  # beside paired_events
    out = scratch / "analysis"
    report = out / "analysis_report.txt"
    if report.exists():
        report.unlink()
    code = main(["analyze", paired_events, "--out", str(out)])
    assert code in (0, 2)
    if code == 0:
        values = read_manifest(str(report))
        assert int(values["pairs_accepted"]) == 40
        for key in ("duration_s", "mean_current", "net_rate_per_hr"):
            assert math.isfinite(float(values[key]))


def _floats(lo: float, hi: float):
    """A float flag value from [lo, hi], or not finite."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([math.nan, math.inf, -math.inf]))


DEFAULT_FLAGS = {
    "--e-min": 5.0, "--e-max": 17.0, "--sum-center": 22.0, "--sum-half": 0.5, "--horizon": 2000,
    "--dt-bin": 20, "--e-bin": 100, "--roi-e-center": 11.0, "--roi-e-half": 1.0,
    "--roi-sigmas": 3.0, "--sideband-sigmas": 5.0,
}
# Values of analyze's flags from small ranges, each range with values
# that some rule of CoincidenceCriteria or check_settings refuses; no map
# holds more than 10**6 bins.
FLAG_VALUES = {
    "--e-min": _floats(0, 25),
    "--e-max": _floats(0, 25),
    "--sum-center": _floats(20, 24),
    "--sum-half": _floats(-1, 3),
    "--horizon": st.integers(-100, 2100),
    "--dt-bin": st.one_of(st.integers(10, 500), st.sampled_from([0, -20])),
    "--e-bin": st.one_of(st.integers(50, 8000), st.sampled_from([0, -100])),
    "--roi-e-center": _floats(0, 25),
    "--roi-e-half": _floats(-1, 3),
    "--roi-sigmas": _floats(-1, 6),
    "--sideband-sigmas": _floats(-1, 10),
}
# The defaults with up to three flags changed, and --exclusive or not.
ANALYZE_FLAGS = st.builds(
    lambda changed, exclusive: {**DEFAULT_FLAGS, **dict(changed), **exclusive},
    st.lists(st.sampled_from(sorted(FLAG_VALUES)).flatmap(
        lambda flag: FLAG_VALUES[flag].map(lambda value: (flag, value))), max_size=3),
    st.sampled_from([{}, {"--exclusive": None}]),
)


def refusal(flags: dict) -> str | None:
    """The message with which CoincidenceCriteria or check_settings refuses
    analyze's flags, or None."""
    def ev(flag):  # a keV flag in eV
        return flags[flag] * 1e3

    try:
        criteria = CoincidenceCriteria(
            (ev("--e-min"), ev("--e-max")), ev("--sum-center"), ev("--sum-half"),
            flags["--horizon"], flags["--dt-bin"], flags["--e-bin"],
        )
        analysis.check_settings(criteria, analysis.RoiSpec(
            ev("--roi-e-center"), ev("--roi-e-half"),
            roi_sigmas=flags["--roi-sigmas"], sideband_sigmas=flags["--sideband-sigmas"],
        ))
    except AnalysisError as exc:
        return str(exc)
    return None


@PROPERTY
@example(flags=DEFAULT_FLAGS)
@example(flags={**DEFAULT_FLAGS, "--roi-sigmas": 5.0, "--sideband-sigmas": 3.0})
@example(flags={**DEFAULT_FLAGS, "--dt-bin": 30, "--exclusive": None})
@example(flags={**DEFAULT_FLAGS, "--sum-center": 20.0, "--horizon": 1000})  # no pairs: exit 2
@given(flags=ANALYZE_FLAGS)
def test_analyze_flags_are_refused_exactly_when_the_analysis_refuses_them(
    scratch, paired_events, flags
):
    out = scratch / "flags"
    shutil.rmtree(out, ignore_errors=True)
    write_manifest_beside(scratch)
    argv = ["analyze", paired_events, "--out", str(out)]
    argv += [flag if value is None else f"{flag}={value}" for flag, value in flags.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)  # any traceback fails the test
    refused = refusal(flags)
    if refused is not None:
        assert (code, stdout.getvalue(), stderr.getvalue()) == (1, "", f"error: {refused}\n")
        assert not out.exists()
    else:
        assert code in (0, 2)
        assert stderr.getvalue().count("error: ") == (code == 2)
        assert all(line.startswith("error: ") for line in stderr.getvalue().splitlines())


# Gaps between a detector's stamps: on a 1 us grid, so that ties and the
# 2 us horizon are met exactly, or any gap up to past the horizon.
GRID_GAPS = st.sampled_from([0, 1000, 2000, 3000])
STAMP_GAPS = st.one_of(GRID_GAPS, st.integers(0, 2500))
# Mostly energies that sum into the 22 +/- 0.5 keV window, then the edges
# of the windows, a pair whose uint32 sum wraps into it, and any value.
ENERGIES = st.one_of(
    st.integers(10400, 11600),
    st.integers(10400, 11600),
    st.sampled_from([
        4999, 5000, 5001, 10499, 10500, 11000, 11500, 16999, 17000, 17001, 22001, 2**32 - 1
    ]),
    st.integers(0, 2**32 - 1),
)


@st.composite
def interleaved_records(draw):
    """Records of two detectors, each time-ordered, merged in any order, so
    that the file order need not be the global time order; stamps start
    at 0, at 2**62 or just below 2**63."""
    n = draw(st.integers(0, 40))
    labels = draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n))
    records = np.zeros(len(labels), dtype=EVENT_DTYPE)
    records["detector_id"] = labels
    offset = draw(st.sampled_from([0, 2**62, 2**63 - 10**6]))
    grid = draw(st.booleans())  # every gap on the 1 us grid
    for det in (1, 2):
        mine = records["detector_id"] == det
        count = int(mine.sum())
        gaps = draw(st.lists(GRID_GAPS if grid else STAMP_GAPS, min_size=count, max_size=count))
        records["timestamp_ns"][mine] = offset + np.cumsum(gaps, dtype=np.uint64)
    records["energy_ev"] = draw(st.lists(ENERGIES, min_size=len(labels), max_size=len(labels)))
    return records


def reference_pairs(records, criteria, exclusive):
    """Pairs as (t1, t2, e1, e2, dt) tuples, from a boolean-mask split and
    cut of the records and a test of every cross-detector pair in Python
    integers, ordered by detector-1 then detector-2 event.  exclusive
    keeps pairs smallest |dt| first (ties in that order) while both
    events are unused."""
    lo, hi = criteria.single_energy_window_ev
    events = []
    for det in (1, 2):
        mine = records[records["detector_id"] == det]
        cut = mine[(mine["energy_ev"] >= lo) & (mine["energy_ev"] <= hi)]
        events.append(list(zip(cut["timestamp_ns"].tolist(), cut["energy_ev"].tolist())))
    found = [
        (i, j, (t1, t2, e1, e2, t2 - t1))
        for i, (t1, e1) in enumerate(events[0])
        for j, (t2, e2) in enumerate(events[1])
        if abs(t2 - t1) <= criteria.max_abs_dt_ns
        and abs(e1 + e2 - criteria.sum_center_ev) <= criteria.sum_half_width_ev
    ]
    if exclusive:
        used1, used2, kept = set(), set(), []
        for i, j, pair in sorted(found, key=lambda entry: abs(entry[2][4])):
            if i not in used1 and j not in used2:
                used1.add(i)
                used2.add(j)
                kept.append((i, j, pair))
        found = sorted(kept)
    return [pair for _, _, pair in found]


PAIRING_CRITERIA = st.sampled_from([
    CoincidenceCriteria(),
    CoincidenceCriteria(single_energy_window_ev=(4999.5, 17000.5), sum_half_width_ev=0.5),
    CoincidenceCriteria(single_energy_window_ev=(0.0, 2.0**32)),
])


def split_cut_and_pair(records, criteria, exclusive):
    streams = [select_candidates(s, criteria) for s in split_streams(records, 2)]
    return find_coincidence_pairs(*streams, criteria, exclusive=exclusive).tolist()


@PROPERTY
@given(records=interleaved_records(), criteria=PAIRING_CRITERIA, exclusive=st.booleans())
def test_split_cut_and_pairs_equal_record_by_record_reference(records, criteria, exclusive):
    assert split_cut_and_pair(records, criteria, exclusive) == reference_pairs(
        records, criteria, exclusive
    )


def two_detectors(stamps1, stamps2):
    """Records of 11 keV events of detector 1 and of detector 2 at the given stamps."""
    streams = (Stream(stamps, np.full(len(stamps), 11000)) for stamps in (stamps1, stamps2))
    return merge_streams(*streams)


# Stream 2 wholly before, then wholly after stream 1, so that every
# block's stream-2 window is empty; then keys without a partner, some
# with an empty window, next to keys with seven partners from exactly
# -2000 to +2000 ns (and events 1 ns beyond), and keys whose one partner
# is at exactly +2000 or -2000 ns.
SPARSE_RECORDS = [
    two_detectors([10**6, 10**6 + 10, 10**6 + 5000], [0, 10, 20]),
    two_detectors([0, 10, 20], [10**6, 10**6 + 10]),
    two_detectors(
        [0, 5000, 10000, 10000, 16000, 20000, 30000, 36000],
        [7999, 8000, 9000, 9500, 10000, 10000, 11000, 12000, 12001, 22000, 34000, 40000],
    ),
]


@pytest.mark.parametrize("block", [1, 2, 3])
@PROPERTY
@example(records=SPARSE_RECORDS[0], criteria=CoincidenceCriteria(), exclusive=False)
@example(records=SPARSE_RECORDS[1], criteria=CoincidenceCriteria(), exclusive=True)
@example(records=SPARSE_RECORDS[2], criteria=CoincidenceCriteria(), exclusive=False)
@example(records=SPARSE_RECORDS[2], criteria=CoincidenceCriteria(), exclusive=True)
@given(records=interleaved_records(), criteria=PAIRING_CRITERIA, exclusive=st.booleans())
def test_pairing_in_small_blocks_equals_record_by_record_reference(
    block, records, criteria, exclusive
):
    """Blocks of 1-3 stream-1 events, so that pair windows straddle block edges."""
    with mock.patch.object(analysis, "_PAIR_BLOCK", block):
        pairs = split_cut_and_pair(records, criteria, exclusive)
    assert pairs == reference_pairs(records, criteria, exclusive)


@st.composite
def criteria_and_pairs(draw):
    """Criteria with whole or half-eV energy windows and odd or even bin
    widths, and pairs whose E1 and dt lie on an edge, 1 beside one, below
    or above both ranges, or anywhere."""
    lo = draw(st.sampled_from([5000.0, 4999.5, 0.0, 10.25]))
    dt_bin = draw(st.sampled_from([1, 7, 20]))
    criteria = CoincidenceCriteria(
        single_energy_window_ev=(lo, lo + draw(st.sampled_from([12000.0, 12001.0, 333.5]))),
        max_abs_dt_ns=dt_bin * draw(st.integers(5, 100)) + draw(st.integers(0, dt_bin - 1)),
        dt_bin_ns=dt_bin,
        e_bin_ev=draw(st.sampled_from([100, 7, 333, 1000])),
    )
    edges = build_correlation_map(np.empty(0, PAIR_DTYPE), criteria, 1.0)
    columns = []
    for edge_values, extremes in (
        (edges.e_edges_ev, [0, 2**32 - 1]), (edges.dt_edges_ns, [-(2**62), 2**62])
    ):
        near = np.concatenate([np.floor(edge_values), np.ceil(edge_values)]).astype(np.int64)
        values = st.one_of(
            st.sampled_from(sorted({*near, *(near - 1), *(near + 1), *extremes})),
            st.integers(*extremes),
        )
        columns.append(draw(st.lists(values, min_size=1, max_size=60)))
    pairs = np.zeros(min(map(len, columns)), dtype=PAIR_DTYPE)
    pairs["e1_ev"], pairs["dt_ns"] = (column[: len(pairs)] for column in columns)
    return criteria, pairs


def every_edge_pair():
    """Default criteria, and a pair at each (E1, dt) on or 1 beside an edge."""
    edges = build_correlation_map(np.empty(0, PAIR_DTYPE), CoincidenceCriteria(), 1.0)
    e1, dt = np.meshgrid(
        *(np.concatenate([e - 1, e, e + 1]) for e in (edges.e_edges_ev, edges.dt_edges_ns))
    )
    pairs = np.zeros(e1.size, dtype=PAIR_DTYPE)
    pairs["e1_ev"], pairs["dt_ns"] = e1.ravel(), dt.ravel()
    return CoincidenceCriteria(), pairs


@PROPERTY
@example(case=(CoincidenceCriteria(), np.empty(0, PAIR_DTYPE)))  # as cli._analysis builds it
@example(case=every_edge_pair())
@given(case=criteria_and_pairs())
def test_correlation_map_counts_equal_histogram2d(case):
    criteria, pairs = case
    corr = build_correlation_map(pairs, criteria, 1.0)
    expected, _, _ = np.histogram2d(
        pairs["e1_ev"].astype(np.float64), pairs["dt_ns"].astype(np.float64),
        bins=(corr.e_edges_ev, corr.dt_edges_ns),
    )
    assert corr.counts.dtype == np.int64
    assert np.array_equal(corr.counts, expected)


ROW_COUNTS = st.one_of(st.integers(0, 1), st.integers(5, 12))


def unsigned_of_every_width(bits: int):
    """Values of an unsigned bits-wide integer: 0, the largest, and for each
    k below the largest's digit count 10**k - 1, 10**k or any value below
    10**(k + 1), so that every decimal width is drawn."""
    top = 2**bits - 1
    k = st.integers(0, len(str(top)) - 1)
    return st.one_of(
        st.sampled_from([0, top]),
        k.map(lambda k: 10**k - 1),
        k.map(lambda k: 10**k),
        k.flatmap(lambda k: st.integers(0, min(10 ** (k + 1) - 1, top))),
    )


EVENT_ROWS = st.lists(
    st.tuples(*(unsigned_of_every_width(8 * EVENT_DTYPE[name].itemsize)
                for name in EVENT_DTYPE.names)),
    max_size=12,
)


@PROPERTY
@example(rows=[(0, 0, 0), (255, 2**64 - 1, 2**32 - 1), (9, 10**19, 9), (10, 10, 10)])
@example(rows=[(1, 12, 100), (2, 34, 999), (10**2, 10**19, 10**9), (255, 2**64 - 1, 2**32 - 1)])
@example(rows=[(0, 7, 0), (0, 0, 4000000000)])
@given(rows=EVENT_ROWS)
def test_events_csv_in_blocks_equals_row_by_row(scratch, rows):
    events = np.array(rows, dtype=EVENT_DTYPE)
    path = scratch / "events.csv"
    with mock.patch.object(listmode, "_CSV_BLOCK_ROWS", 2):
        write_events_csv(str(path), events)
    lines = ["detector_id,timestamp_ns,energy_ev"] + [f"{d},{t},{e}" for d, t, e in rows]
    text = path.read_text(encoding="utf-8")
    assert text == "\n".join(lines) + "\n"
    back = np.array([row.split(",") for row in text.splitlines()[1:]], dtype=np.uint64)
    for k, name in enumerate(EVENT_DTYPE.names):
        assert np.array_equal(back.reshape(len(rows), 3)[:, k], events[name])


@PROPERTY
@given(
    n=ROW_COUNTS,
    values=st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
    meta=st.dictionaries(st.sampled_from(["duration_s", "seeds", "e"]), st.floats()),
)
def test_csv_with_meta_in_blocks_equals_single_string(scratch, n, values, meta):
    x = np.array(values[:n])
    counts = np.arange(n, dtype=np.int64) * 7
    path = scratch / "map.csv"
    with mock.patch.object(listmode, "_CSV_BLOCK_ROWS", 2):
        write_csv(str(path), "x,counts", "{:.1f},{}", (x, counts), meta)
    lines = [f"# {key} = {value}" for key, value in meta.items()] + ["x,counts"]
    lines += [f"{x[i]:.1f},{int(counts[i])}" for i in range(n)]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def reference_merge(*streams: Stream) -> np.ndarray:
    """merge_streams as one stable argsort of all the Streams' stamps."""
    stamps = np.concatenate([s.timestamp_ns for s in streams])
    order = np.argsort(stamps, kind="stable")
    merged = np.empty(len(stamps), dtype=EVENT_DTYPE)
    ids = np.repeat(np.arange(1, len(streams) + 1, dtype=np.uint8), [len(s) for s in streams])
    merged["detector_id"] = ids[order]
    merged["timestamp_ns"] = stamps[order]
    merged["energy_ev"] = np.concatenate([s.energy_ev for s in streams])[order]
    return merged


# 1-3 Streams of 0-12 stamps, mostly from a few values so that stamps tie
# within and across Streams; at 0 and up to 2**63 - 1.
TIED_STAMPS = st.lists(
    st.lists(st.one_of(st.integers(0, 4), st.sampled_from([2**62, 2**63 - 1])), max_size=12),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("block", [1, 2, 3])
@PROPERTY
@example(stamps=[[], [0, 0], [0]])
@example(stamps=[[3, 3, 3], [], [3]])
@given(stamps=TIED_STAMPS)
def test_merge_in_small_blocks_equals_one_stable_sort(block, stamps):
    """Energies number the events, so any reordering of ties shows."""
    streams = [
        Stream(np.sort(np.array(s, dtype=np.uint64)), 100 * k + np.arange(len(s)))
        for k, s in enumerate(stamps)
    ]
    with mock.patch.object(listmode, "_MERGE_BLOCK", block):
        merged = merge_streams(*streams)
    assert merged.tobytes() == reference_merge(*streams).tobytes()


# Bounds at and between integers, below 0, above 2**32 - 1 and far beyond.
ENERGY_BOUNDS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-3.0, 0.0, 4999.5, 5000.0, 2.0**32 - 1, 2.0**32 + 0.5, 1e300]),
)


@PROPERTY
@example(energies=[0, 4999, 5000, 2**32 - 1], bounds=(4999.5, 2.0**32 + 0.5))
@example(energies=[0, 3, 2**32 - 1], bounds=(-3.0, 1e300))
@example(energies=[0, 2**32 - 1], bounds=(2.0**32 + 0.5, 1e300))
@example(energies=[0, 1], bounds=(-1e300, -3.0))
@example(energies=[4999, 5000], bounds=(4999.2, 4999.8))
@given(
    energies=st.lists(ENERGIES, max_size=20),
    bounds=st.tuples(ENERGY_BOUNDS, ENERGY_BOUNDS).map(sorted).filter(lambda b: b[0] < b[1]),
)
def test_candidate_cut_on_integer_bounds_equals_float_comparison(energies, bounds):
    e = np.array(energies, dtype=np.uint32)
    stream = Stream(np.arange(len(e), dtype=np.uint64), e)
    kept = select_candidates(stream, CoincidenceCriteria(single_energy_window_ev=tuple(bounds)))
    keep = (e.astype(np.float64) >= bounds[0]) & (e.astype(np.float64) <= bounds[1])
    assert kept.timestamp_ns.tolist() == np.flatnonzero(keep).tolist()


@PROPERTY
@example(values=[2.0, 1.0])
@example(values=[3.0, 1.0, 1.0])
@example(values=[1e308, 1e308])  # a sum past the float range
@example(values=[5e-324, 5e-324])  # halves below the least subnormal
@given(values=st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=30,
))
def test_sort_median_equals_numpy_median(values):
    with np.errstate(over="ignore"):
        assert analysis._median(np.array(values)) == float(np.median(values))
