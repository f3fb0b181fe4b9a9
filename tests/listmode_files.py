"""List-mode files of any records, well formed or not, for the readers' tests."""

import struct


def write_records(path, records, header):
    """Write a list-mode file as it is laid out, unchecked: the header's 18
    bytes, then records.tobytes()."""
    head = struct.pack("<4sBIBQ", b"XPDC", 1, header.clock_tick_ns, header.detector_count,
                       header.config_hash)
    with open(path, "wb") as handle:
        handle.write(head + records.tobytes())
