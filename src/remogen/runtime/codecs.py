"""On-disk formats: weight archives (RMGW1), motion files (RMGM1), voxel files (RMGV1).

All multi-byte integers and floats are little-endian. Saves are canonical, so
save(load(path)) reproduces the file byte for byte.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import CorruptArchiveError, DimensionError, FormatError
from ..motion import FeatureLayout, MotionSegment
from ..scene import GridSpec, VoxelGrid
from ..tensorcore import F32, F64

ARCHIVE_MAGIC = b"RMGW1\n"
MOTION_MAGIC = b"RMGM1"
VOXEL_MAGIC = b"RMGV1"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class WeightArchive:
    """Named float32 tensors stored as a manifest plus one contiguous blob."""

    tensors: dict  # name -> np.ndarray (float32)

    def __post_init__(self):
        clean = {}
        for name, arr in self.tensors.items():
            if not isinstance(name, str) or not name:
                raise CorruptArchiveError("tensor names must be non-empty strings")
            clean[name] = np.ascontiguousarray(arr, dtype=F32)
        object.__setattr__(self, "tensors", clean)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def get(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise CorruptArchiveError(f"archive has no tensor {name!r}")
        return self.tensors[name]

    def names(self) -> list:
        return list(self.tensors.keys())


def save_archive(archive: WeightArchive, path: PathLike) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, arr in archive.tensors.items():
        raw = arr.astype("<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "f32-le",
                        "offset": offset, "byte_length": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps(entries, separators=(",", ":"), sort_keys=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for raw in blobs:
            fh.write(raw)


def _is_json_int(value) -> bool:
    """A JSON integer as json.loads returns it: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_archive(path: PathLike) -> WeightArchive:
    data = Path(path).read_bytes()
    if not data.startswith(ARCHIVE_MAGIC):
        raise FormatError("not a weight archive (bad magic)")
    cursor = len(ARCHIVE_MAGIC)
    if len(data) < cursor + 4:
        raise CorruptArchiveError("truncated manifest length")
    (manifest_len,) = struct.unpack_from("<I", data, cursor)
    cursor += 4
    if len(data) < cursor + manifest_len:
        raise CorruptArchiveError("truncated manifest")
    try:
        entries = json.loads(data[cursor:cursor + manifest_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, JSONDecodeError and integers past the
        # digit limit; RecursionError, arrays nested deeper than the decoder
        # recurses.
        raise CorruptArchiveError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise CorruptArchiveError("manifest must be a list of tensor entries")
    cursor += manifest_len
    blob = memoryview(data)[cursor:]  # a view: slicing the bytes would copy the payload

    seen = set()
    spans = []
    tensors = {}
    for entry in entries:
        try:
            name = entry["name"]
            shape = entry["shape"]
            dtype = entry["dtype"]
            offset = entry["offset"]
            byte_length = entry["byte_length"]
        except (KeyError, TypeError) as exc:
            raise CorruptArchiveError(f"malformed manifest entry: {exc}") from exc
        if not isinstance(name, str) or not name:
            raise CorruptArchiveError(f"tensor name {name!r} is not a non-empty string")
        if not isinstance(shape, list) or not all(_is_json_int(s) for s in shape):
            raise CorruptArchiveError(f"{name!r}: shape {shape!r} is not a list of integers")
        if not (_is_json_int(offset) and _is_json_int(byte_length)):
            raise CorruptArchiveError(f"{name!r}: offset {offset!r} and byte_length "
                                      f"{byte_length!r} must be integers")
        shape = tuple(shape)
        if any(s < 0 for s in shape):
            raise CorruptArchiveError(f"{name!r}: negative dimension in shape {shape}")
        if dtype != "f32-le":
            raise CorruptArchiveError(f"unsupported dtype {dtype!r}")
        if name in seen:
            raise CorruptArchiveError(f"duplicate tensor name {name!r}")
        seen.add(name)
        count = 1
        for s in shape:
            count *= s
        if count * 4 != byte_length:
            raise CorruptArchiveError(f"{name!r}: shape {shape} disagrees with "
                                      f"byte_length {byte_length}")
        if offset < 0 or offset + byte_length > len(blob):
            raise CorruptArchiveError(f"{name!r}: blob span out of range")
        spans.append((offset, offset + byte_length, name))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        try:
            tensors[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise CorruptArchiveError(f"{name!r}: shape {shape}: {exc}") from exc
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CorruptArchiveError(f"tensors {n0!r} and {n1!r} overlap")
    return WeightArchive(tensors)


def save_motion(segment: MotionSegment, path: PathLike,
                layout: FeatureLayout = None) -> None:
    layout = layout or FeatureLayout()
    t, d = segment.frames.shape
    if d != layout.dim:
        raise FormatError(f"segment width {d} != layout width {layout.dim}")
    layout_id = layout.layout_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MOTION_MAGIC)
        fh.write(struct.pack("<IfIII", 1, float(segment.fps), layout.joints, d, t))
        fh.write(struct.pack("<I", len(layout_id)))
        fh.write(layout_id)
        fh.write(segment.frames.astype("<f4").tobytes())


def load_motion(path: PathLike) -> tuple[MotionSegment, FeatureLayout]:
    data = Path(path).read_bytes()
    if not data.startswith(MOTION_MAGIC):
        raise FormatError("not a motion file (bad magic)")
    cursor = len(MOTION_MAGIC)
    try:
        version, fps, joints, d, t = struct.unpack_from("<IfIII", data, cursor)
        cursor += struct.calcsize("<IfIII")
        (id_len,) = struct.unpack_from("<I", data, cursor)
        cursor += 4
        layout_id = data[cursor:cursor + id_len].decode("utf-8")
        cursor += id_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed motion header: {exc}") from exc
    if version != 1:
        raise FormatError(f"unsupported motion file version {version}")
    if not (math.isfinite(fps) and fps > 0):
        raise FormatError(f"frame rate {fps} is not a positive number")
    try:
        layout = FeatureLayout.from_id(layout_id)
    except ValueError as exc:  # DimensionError, or a joint count that is no integer
        raise FormatError(f"unknown layout id {layout_id!r}") from exc
    if layout.joints != joints or layout.dim != d:
        raise FormatError(f"declared J={joints}, D={d} disagree with layout "
                          f"{layout_id!r} (D={layout.dim})")
    payload = data[cursor:]
    if len(payload) != t * d * 4:
        raise FormatError(f"payload has {len(payload)} bytes, header promises {t * d * 4}")
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, d).copy()
    return MotionSegment(frames, fps=fps), layout


def save_voxels(grid: VoxelGrid, path: PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(VOXEL_MAGIC)
        fh.write(struct.pack("<6d", *grid.spec.min_corner, *grid.spec.max_corner))
        fh.write(struct.pack("<3I", *grid.spec.dims))
        fh.write(grid.packed.tobytes())


def load_voxels(path: PathLike) -> VoxelGrid:
    data = Path(path).read_bytes()
    if not data.startswith(VOXEL_MAGIC):
        raise FormatError("not a voxel file (bad magic)")
    cursor = len(VOXEL_MAGIC)
    try:
        bounds = struct.unpack_from("<6d", data, cursor)
        cursor += struct.calcsize("<6d")
        dims = struct.unpack_from("<3I", data, cursor)
        cursor += struct.calcsize("<3I")
    except struct.error as exc:
        raise FormatError(f"malformed voxel header: {exc}") from exc
    try:
        spec = GridSpec(np.array(bounds[:3], dtype=F64), np.array(bounds[3:], dtype=F64), dims)
    except DimensionError as exc:
        raise FormatError(f"invalid voxel grid spec: {exc}") from exc
    payload = data[cursor:]
    expected = (spec.cell_count + 7) // 8
    if len(payload) != expected:
        raise FormatError(f"payload has {len(payload)} bytes, dims promise {expected}")
    return VoxelGrid(spec, np.frombuffer(payload, dtype=np.uint8).copy())
