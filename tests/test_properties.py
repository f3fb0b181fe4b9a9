"""Property tests: the config parser and the list-mode reader on generated
input either return or raise their own error type; CSV rendering in
blocks equals rendering the rows one by one."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpdc import listmode
from xpdc.config import build_run_config, default_settings, parse_config_text
from xpdc.events import EVENT_DTYPE, ConfigError
from xpdc.listmode import (
    ListModeFormatError,
    ListModeHeader,
    read_listmode,
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
    write_listmode(path, np.empty(0, dtype=EVENT_DTYPE), HEADER)
    with open(path, "ab") as handle:
        handle.write(body)
    try:
        events, header = read_listmode(path)
    except ListModeFormatError:
        return
    assert header == HEADER
    assert events.tobytes() == body
    assert set(np.unique(events["detector_id"])) <= {1, 2}


ROW_COUNTS = st.one_of(st.integers(0, 1), st.integers(5, 12))


@PROPERTY
@given(n=ROW_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_events_csv_in_blocks_equals_row_by_row(scratch, n, seed):
    rng = np.random.default_rng(seed)
    events = np.empty(n, dtype=EVENT_DTYPE)
    events["detector_id"] = rng.integers(0, 256, n)
    events["timestamp_ns"] = rng.integers(0, 2**64, n, dtype=np.uint64)
    events["energy_ev"] = rng.integers(0, 2**32, n)
    path = scratch / "events.csv"
    with mock.patch.object(listmode, "_CSV_BLOCK_ROWS", 2):
        write_events_csv(str(path), events)
    lines = ["detector_id,timestamp_ns,energy_ev"] + [
        f"{int(r['detector_id'])},{int(r['timestamp_ns'])},{int(r['energy_ev'])}"
        for r in events
    ]
    text = path.read_text(encoding="utf-8")
    assert text == "\n".join(lines) + "\n"
    rows = [row.split(",") for row in text.splitlines()[1:]]
    back = np.array(rows, dtype=np.uint64).reshape(n, 3)
    for k, name in enumerate(EVENT_DTYPE.names):
        assert np.array_equal(back[:, k], events[name])


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
