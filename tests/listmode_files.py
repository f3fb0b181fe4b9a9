"""List-mode files of any records, well formed or not, for the readers' tests,
and the manifest that `xpdc analyze` reads beside them."""

import os
import struct


def write_records(path, records, header):
    """Write a list-mode file as it is laid out, unchecked: the header's 18
    bytes, then records.tobytes()."""
    head = struct.pack("<4sBIBQ", b"XPDC", 1, header.clock_tick_ns, header.detector_count,
                       header.config_hash)
    with open(path, "wb") as handle:
        handle.write(head + records.tobytes())


def write_manifest_beside(directory):
    """The two-line manifest.txt that `xpdc analyze` reads beside a list-mode
    file: a 1 s run at mean current 1."""
    with open(os.path.join(directory, "manifest.txt"), "w") as handle:
        handle.write("duration_s = 1\nmean_current = 1\n")
