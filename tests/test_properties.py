"""Property tests for the parsers and file formats at the program's edges.

Whatever text arrives, parse_config fails only with ConfigError and
parse_record only with FormatError, so the CLI maps every bad config to exit
code 2 and the stream loop skips every bad record; every record it accepts
can be written back out. Whatever bytes a weight archive, motion file or
voxel file holds, loading it fails only with a FormatError subclass.
"""
import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remogen.errors import ConfigError, FormatError
from remogen.motion import FeatureLayout, MotionSegment
from remogen.runtime import (
    EngineConfig,
    WeightArchive,
    format_record,
    load_archive,
    load_motion,
    load_voxels,
    parse_config,
    parse_record,
    save_archive,
    save_motion,
    save_voxels,
)
from remogen.runtime.codecs import ARCHIVE_MAGIC
from remogen.scene import GridSpec, VoxelGrid

CONFIG_KEYS = [f.name for f in dataclasses.fields(EngineConfig)]
RECORD_KEYS = ["t", "kind", "pose", "text", "alpha", "latency_ms"]
RECORD_KINDS = ["partner_pose", "text", "alpha", "ego_pose", "end"]

# Values shaped like what each key expects, plus anything at all.
config_values = st.one_of(
    st.text(max_size=20),
    st.integers(-10, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.integers(-2, 6), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.lists(st.tuples(st.sampled_from(["hhi", "hsi", "x"]),
                       st.floats(allow_nan=True, allow_infinity=True)),
             max_size=3).map(lambda v: ",".join(f"{k}={w!r}" for k, w in v)),
    st.sampled_from(["true", "false", "on", "", "0x10", "1e3", "nan", "inf"]),
)
config_lines = st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(CONFIG_KEYS), config_values)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=10),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=20,
)
record_objects = st.dictionaries(
    st.sampled_from(RECORD_KEYS),
    st.one_of(json_values, st.sampled_from(RECORD_KINDS)),
    max_size=6,
)
record_lines = st.one_of(st.text(max_size=80), record_objects.map(json.dumps))


@settings(max_examples=200, deadline=None)
@given(st.lists(config_lines, max_size=6).map("\n".join))
@example("heads = 0")
@example("injection_layers =")
@example("fps = nan")
@example("seed = " + "9" * 5000)
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, EngineConfig)


@settings(max_examples=200, deadline=None)
@given(record_lines)
@example("[" * 100000)
@example('{"kind": "end", "t": ' + "1" * 5000 + "}")
@example('{"kind": "alpha", "alpha": {"hhi": 1' + "0" * 400 + "}}")
@example('{"kind": "partner_pose", "pose": [1' + "0" * 400 + "]}")
def test_parse_record_raises_only_format_error(line):
    try:
        record = parse_record(line)
    except FormatError:
        return
    assert record.kind in RECORD_KINDS


@settings(max_examples=200, deadline=None)
@given(record_objects.map(json.dumps))
@example('{"kind": "end", "latency_ms": "abc"}')
@example('{"kind": "end", "latency_ms": [1.5]}')
@example('{"kind": "end", "latency_ms": Infinity}')
@example('{"kind": "end", "latency_ms": true}')
@example('{"kind": "end", "latency_ms": 1' + "0" * 400 + "}")
def test_accepted_records_format(line):
    try:
        record = parse_record(line)
    except FormatError:
        return
    back = parse_record(format_record(record))
    assert back.kind == record.kind and back.t == record.t


# -- file formats ----------------------------------------------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file path reused by every example of a test."""
    return tmp_path_factory.mktemp("codec") / "file"


def _archive_bytes(manifest: bytes, blob: bytes) -> bytes:
    return ARCHIVE_MAGIC + struct.pack("<I", len(manifest)) + manifest + blob


manifest_entries = st.dictionaries(
    st.sampled_from(["name", "shape", "dtype", "offset", "byte_length"]),
    st.one_of(json_values, st.sampled_from(["w", "b", "f32-le"]),
              st.lists(st.integers(-3, 5), max_size=4), st.integers(-8, 64)),
    max_size=5,
)
manifests = st.one_of(json_values, st.lists(manifest_entries, max_size=4))


def _one_entry(**fields) -> bytes:
    """A manifest of one valid 4-byte tensor entry with some fields replaced."""
    entry = {"name": "w", "shape": [1], "dtype": "f32-le", "offset": 0, "byte_length": 4}
    return json.dumps([{**entry, **fields}]).encode()


@settings(max_examples=300, deadline=None)
@given(manifest=manifests.map(lambda m: json.dumps(m).encode()),
       blob=st.binary(max_size=64))
@example(manifest=b"5", blob=b"")
@example(manifest=_one_entry(offset=float("inf")), blob=bytes(4))
@example(manifest=b"[" * 100000, blob=b"")
@example(manifest=_one_entry(name=["w"]), blob=bytes(4))
@example(manifest=_one_entry(shape=[-1, -1]), blob=bytes(4))
@example(manifest=_one_entry(shape=[1] * 70), blob=bytes(4))
def test_random_manifests_never_crash_load_archive(manifest, blob, scratch):
    scratch.write_bytes(_archive_bytes(manifest, blob))
    try:
        archive = load_archive(scratch)
    except FormatError:
        return
    assert isinstance(archive, WeightArchive)


def _valid_archive(path) -> bytes:
    save_archive(WeightArchive({"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                "b": np.ones(3, dtype=np.float32),
                                "s": np.zeros((), dtype=np.float32)}), path)
    return path.read_bytes()


def _valid_motion(path) -> bytes:
    layout = FeatureLayout(1)
    frames = np.linspace(-1, 1, 2 * layout.dim, dtype=np.float32).reshape(2, -1)
    save_motion(MotionSegment(frames, fps=10.0), path, layout)
    return path.read_bytes()


def _valid_voxels(path) -> bytes:
    spec = GridSpec(np.zeros(3), np.ones(3), (3, 2, 2))
    save_voxels(VoxelGrid(spec, np.array([0b1010_0101, 0b1001], dtype=np.uint8)), path)
    return path.read_bytes()


CODECS = {"archive": (_valid_archive, load_archive),
          "motion": (_valid_motion, load_motion),
          "voxels": (_valid_voxels, load_voxels)}

# A damage is a truncation point (None keeps the whole file) plus bit flips,
# each given as a fraction of the file so one strategy fits every size.
damages = st.tuples(st.one_of(st.none(), st.floats(0, 1, exclude_max=True)),
                    st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                       st.integers(0, 7)), max_size=4))


@pytest.mark.parametrize("codec", sorted(CODECS))
@settings(max_examples=300, deadline=None)
@given(damage=damages)
def test_damaged_files_raise_only_format_error(codec, damage, scratch):
    make, load = CODECS[codec]
    data = bytearray(make(scratch))
    cut, flips = damage
    for where, bit in flips:
        data[int(where * len(data))] ^= 1 << bit
    if cut is not None:
        data = data[:int(cut * len(data))]
    scratch.write_bytes(bytes(data))
    try:
        load(scratch)
    except FormatError:
        pass
