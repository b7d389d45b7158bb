"""Runtime tests: the three codecs, config parsing, stream loop, engine wiring."""
import dataclasses
import hashlib
import io
import json
import gc
import struct
import threading
import time
import weakref

import numpy as np
import pytest
from scene_reference import empty_grid

from remogen.cli import main
from remogen.errors import (
    ConfigError,
    CorruptArchiveError,
    FormatError,
    NumericError,
)
from remogen.motion import (
    FeatureLayout,
    MotionSegment,
    featurize,
    normalize,
    synthetic_sequence,
)
from remogen.runtime import (
    Engine,
    EngineConfig,
    StreamRecord,
    WeightArchive,
    format_record,
    init_weights,
    load_archive,
    load_motion,
    load_voxels,
    parse_config,
    parse_record,
    save_archive,
    save_motion,
    save_voxels,
    stream_run,
)
from remogen.runtime.bench import LatencyRecorder
from remogen.runtime.codecs import ARCHIVE_MAGIC, MOTION_MAGIC, VOXEL_MAGIC
from remogen.runtime.weights import flatten_params, rebuild_params
from remogen.scene import GridSpec, VoxelGrid, room_grid_spec
from remogen.tensorcore import Rng

F32 = np.float32

# A compact config with the defaults' structure, for tests that count calls.
COMPACT_CFG = EngineConfig(latent_dim=16, text_dim=16, width=32, heads=2, n_blocks=2,
                           ffn_hidden=64, vae_hidden=64, injection_layers=(0, 1))


@pytest.fixture(scope="module")
def cfg():
    return EngineConfig()


@pytest.fixture(scope="module")
def archive(cfg):
    return init_weights(cfg, 0)


@pytest.fixture(scope="module")
def partner_frames():
    return featurize(synthetic_sequence(16, seed=2)).frames


class TestWeightArchiveCodec:
    def test_empty_manifest_round_trips(self, tmp_path):
        path = tmp_path / "empty.rmgw"
        save_archive(WeightArchive({}), path)
        assert load_archive(path).names() == []
        first = path.read_bytes()
        save_archive(load_archive(path), path)
        assert path.read_bytes() == first

    def test_single_tensor_bit_exact(self, tmp_path):
        path = tmp_path / "one.rmgw"
        t = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F32)
        save_archive(WeightArchive({"w": t}), path)
        loaded = load_archive(path)
        assert np.array_equal(loaded.get("w"), t)

    def test_scalar_tensor_round_trips(self, tmp_path):
        path = tmp_path / "scalar.rmgw"
        scalar = np.array(2.5, dtype=F32)
        save_archive(WeightArchive({"s": scalar, "v": np.ones(3, dtype=F32)}), path)
        first = path.read_bytes()
        assert b'"shape":[]' in first
        loaded = load_archive(path)
        assert loaded.get("s").shape == ()
        assert loaded.get("s") == scalar
        assert not loaded.get("s").flags.writeable   # still a view of the mapping
        save_archive(loaded, path)
        assert path.read_bytes() == first

    def test_save_load_save_byte_identical(self, tmp_path, archive):
        a = tmp_path / "a.rmgw"
        b = tmp_path / "b.rmgw"
        save_archive(archive, a)
        save_archive(load_archive(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_tensors_are_read_only_views(self, tmp_path, archive):
        """A loaded tensor is a read-only view of the mapped file: it holds the
        saved bits, writing into it raises, and saving the archive back over
        its own file reproduces the file byte for byte."""
        path = tmp_path / "mapped.rmgw"
        save_archive(archive, path)
        first = path.read_bytes()
        loaded = load_archive(path)
        assert loaded.names() == archive.names()
        for name, arr in loaded.tensors.items():
            assert arr.shape == archive.get(name).shape, name
            assert arr.tobytes() == archive.get(name).tobytes(), name
            with pytest.raises(ValueError):
                arr[...] = 0
        save_archive(loaded, path)
        assert path.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmgw"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_archive(path)

    @pytest.mark.parametrize("size", [0, 3])
    def test_empty_or_short_file(self, tmp_path, size):
        # A file too short to hold the magic is a format error, not mmap's
        # ValueError for an empty file, and the CLI exits 3 on it.
        path = tmp_path / "short.rmgw"
        path.write_bytes(ARCHIVE_MAGIC[:size])
        with pytest.raises(FormatError):
            load_archive(path)
        assert main(["generate", "--weights", str(path), "--segments", "1",
                     "--out", str(tmp_path / "x.rmgm")]) == 3

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "trunc.rmgw"
        save_archive(WeightArchive({"w": np.ones((4, 4), dtype=F32)}), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CorruptArchiveError):
            load_archive(path)

    def test_overlapping_entries_rejected(self, tmp_path):
        manifest = json.dumps([
            {"name": "a", "shape": [2], "dtype": "f32-le", "offset": 0, "byte_length": 8},
            {"name": "b", "shape": [2], "dtype": "f32-le", "offset": 4, "byte_length": 8},
        ], separators=(",", ":")).encode()
        blob = b"\x00" * 12
        path = tmp_path / "overlap.rmgw"
        path.write_bytes(b"RMGW1\n" + struct.pack("<I", len(manifest)) + manifest + blob)
        with pytest.raises(CorruptArchiveError):
            load_archive(path)

    @pytest.mark.parametrize("field, value", [
        ("shape", "12"), ("shape", [1, 2.0]), ("shape", [True, 2]), ("offset", 0.9),
        ("offset", "0"), ("offset", False), ("byte_length", 8.0), ("byte_length", "8")])
    def test_wrong_json_types_rejected(self, tmp_path, field, value):
        """Shape entries, offset and byte_length must be JSON integers: "12" is
        not read as shape (1, 2), nor 0.9 as offset 0."""
        entry = {"name": "a", "shape": [1, 2], "dtype": "f32-le", "offset": 0,
                 "byte_length": 8}
        manifest = json.dumps([{**entry, field: value}]).encode()
        path = tmp_path / "types.rmgw"
        path.write_bytes(b"RMGW1\n" + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
        with pytest.raises(CorruptArchiveError):
            load_archive(path)

    def test_duplicate_names_rejected(self, tmp_path):
        manifest = json.dumps([
            {"name": "a", "shape": [1], "dtype": "f32-le", "offset": 0, "byte_length": 4},
            {"name": "a", "shape": [1], "dtype": "f32-le", "offset": 4, "byte_length": 4},
        ], separators=(",", ":")).encode()
        path = tmp_path / "dup.rmgw"
        path.write_bytes(b"RMGW1\n" + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
        with pytest.raises(CorruptArchiveError):
            load_archive(path)

    def test_shape_length_disagreement(self, tmp_path):
        manifest = json.dumps([
            {"name": "a", "shape": [3], "dtype": "f32-le", "offset": 0, "byte_length": 8},
        ], separators=(",", ":")).encode()
        path = tmp_path / "shape.rmgw"
        path.write_bytes(b"RMGW1\n" + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 8)
        with pytest.raises(CorruptArchiveError):
            load_archive(path)


def write_motion(path, layout_id: str, joints: int, frames: np.ndarray) -> None:
    """An RMGM1 file at 10 fps written field by field, whatever its layout id."""
    t, d = frames.shape
    ident = layout_id.encode("utf-8")
    path.write_bytes(MOTION_MAGIC + struct.pack("<IfIII", 1, 10.0, joints, d, t)
                     + struct.pack("<I", len(ident)) + ident + frames.astype("<f4").tobytes())


class TestMotionCodec:
    def test_single_frame_round_trip(self, tmp_path):
        layout = FeatureLayout()
        path = tmp_path / "one.rmgm"
        seg = MotionSegment(np.arange(layout.dim, dtype=F32).reshape(1, -1), fps=10.0)
        save_motion(seg, path, layout)
        loaded, loaded_layout = load_motion(path)
        assert np.array_equal(loaded.frames, seg.frames)
        assert loaded.fps == 10.0
        assert loaded_layout.joints == 22

    def test_header_fields_preserved(self, tmp_path):
        layout = FeatureLayout()
        path = tmp_path / "hdr.rmgm"
        seg = MotionSegment(np.zeros((3, layout.dim), dtype=F32), fps=10.0)
        save_motion(seg, path, layout)
        raw = path.read_bytes()
        version, fps, joints, d, t = struct.unpack_from("<IfIII", raw, 5)
        assert (version, fps, joints, d, t) == (1, 10.0, 22, 276, 3)

    def test_width_layout_disagreement(self, tmp_path):
        path = tmp_path / "bad.rmgm"
        seg = MotionSegment(np.zeros((2, 100), dtype=F32))
        with pytest.raises(FormatError):
            save_motion(seg, path, FeatureLayout())

    def test_payload_size_mismatch(self, tmp_path):
        layout = FeatureLayout()
        path = tmp_path / "short.rmgm"
        save_motion(MotionSegment(np.zeros((2, layout.dim), dtype=F32)), path, layout)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_motion(path)

    @pytest.mark.parametrize("layout_id,joints", [("body0", 0), ("body007", 7)])
    def test_non_canonical_layout_id_is_format_error(self, tmp_path, layout_id, joints):
        """A header whose layout id is no canonical bodyN, N >= 1, is refused,
        even when its J and D agree with the id's joint count."""
        path = tmp_path / "odd.rmgm"
        # 12 J + 12 channels, written out: FeatureLayout(0) is refused.
        write_motion(path, layout_id, joints, np.zeros((16, 12 * joints + 12)))
        with pytest.raises(FormatError, match="unknown layout id"):
            load_motion(path)

    def test_save_load_save_byte_identical(self, tmp_path):
        layout = FeatureLayout()
        gen = Rng(1).generator("m")
        seg = MotionSegment(gen.standard_normal((5, layout.dim)).astype(F32))
        a, b = tmp_path / "a.rmgm", tmp_path / "b.rmgm"
        save_motion(seg, a, layout)
        save_motion(load_motion(a)[0], b, layout)
        assert a.read_bytes() == b.read_bytes()


class TestVoxelCodec:
    def test_empty_4cube_payload(self, tmp_path):
        path = tmp_path / "empty.rmgv"
        grid = empty_grid(GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4)))
        save_voxels(grid, path)
        raw = path.read_bytes()
        payload = raw[5 + 48 + 12:]
        assert payload == b"\x00" * 8

    def test_first_cell_lsb(self, tmp_path):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4))
        occ = np.zeros(spec.dims, dtype=bool)
        occ[0, 0, 0] = True
        path = tmp_path / "one.rmgv"
        save_voxels(VoxelGrid.from_bool_array(spec, occ), path)
        payload = path.read_bytes()[5 + 48 + 12:]
        assert payload[0] == 0x01

    def test_room_scale_header_accepted(self, tmp_path):
        path = tmp_path / "room.rmgv"
        save_voxels(empty_grid(room_grid_spec()), path)
        loaded = load_voxels(path)
        assert loaded.spec.dims == (300, 400, 100)

    def test_round_trip_bit_identical(self, tmp_path):
        spec = GridSpec([-1, -1, 0], [1, 1, 2], (5, 6, 7))
        gen = Rng(2).generator("v")
        grid = VoxelGrid.from_bool_array(spec, gen.uniform(size=spec.dims) > 0.5)
        a, b = tmp_path / "a.rmgv", tmp_path / "b.rmgv"
        save_voxels(grid, a)
        save_voxels(load_voxels(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_grid_is_a_read_only_view(self, tmp_path):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4))
        grid = VoxelGrid.from_bool_array(spec, Rng(3).generator("v").uniform(size=spec.dims) > 0.5)
        path = tmp_path / "view.rmgv"
        save_voxels(grid, path)
        loaded = load_voxels(path)
        assert loaded.packed.dtype == np.uint8
        assert np.array_equal(loaded.packed, grid.packed)
        with pytest.raises(ValueError):
            loaded.packed[0] = 0xFF

    @pytest.mark.parametrize("size", [0, 3])
    def test_empty_or_short_file(self, tmp_path, size):
        path = tmp_path / "short.rmgv"
        path.write_bytes(VOXEL_MAGIC[:size])
        with pytest.raises(FormatError):
            load_voxels(path)
        motion = tmp_path / "m.rmgm"
        save_motion(featurize(synthetic_sequence(8, seed=1)), motion, FeatureLayout())
        assert main(["metrics", "--pred", str(motion), "--ref", str(motion),
                     "--scene", str(path)]) == 3

    @pytest.mark.parametrize("corner", [np.inf, -np.inf, np.nan])
    def test_non_finite_corner_is_format_error(self, tmp_path, corner):
        path = tmp_path / "inf.rmgv"
        path.write_bytes(VOXEL_MAGIC + struct.pack("<6d", 0, 0, 0, corner, 1, 1)
                         + struct.pack("<3I", 2, 2, 2) + b"\x00")
        with pytest.raises(FormatError, match="finite"):
            load_voxels(path)
        motion = tmp_path / "m.rmgm"
        save_motion(featurize(synthetic_sequence(8, seed=1)), motion, FeatureLayout())
        assert main(["metrics", "--pred", str(motion), "--ref", str(motion),
                     "--scene", str(path)]) == 3

    @pytest.mark.parametrize("bounds, dims", [
        ((0, 0, 0, 1, 1, 1), (0, 2, 2)),
        ((0, 0, 0, 1, -1, 1), (2, 2, 2)),
        ((0, 0, 0, 1, 1, 0), (2, 2, 2)),
    ], ids=["zero_axis", "inverted_corners", "flat_box"])
    def test_header_spec_that_is_no_grid_is_format_error(self, tmp_path, bounds, dims):
        path = tmp_path / "bad.rmgv"
        path.write_bytes(VOXEL_MAGIC + struct.pack("<6d", *bounds)
                         + struct.pack("<3I", *dims) + b"\x00")
        with pytest.raises(FormatError, match="invalid voxel grid spec"):
            load_voxels(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.rmgv"
        save_voxels(empty_grid(GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4))), path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_voxels(path)


class TestSavesReplaceFiles:
    """Loads map their file, so a save onto a loaded file's path must replace
    the file, not rewrite it: a rewrite would change the loaded tensors under
    a running engine or, for a shorter file, kill the process with SIGBUS."""

    def test_saving_over_a_loaded_archive_leaves_it_intact(self, tmp_path):
        path = tmp_path / "w.rmgw"
        save_archive(init_weights(COMPACT_CFG, 0), path)
        loaded = load_archive(path)
        kept = {name: arr.copy() for name, arr in loaded.tensors.items()}
        engine = Engine(loaded, COMPACT_CFG)
        reference = Engine(WeightArchive(kept), COMPACT_CFG)
        assert np.array_equal(engine.run_ticks(8), reference.run_ticks(8))

        same_size = init_weights(COMPACT_CFG, 1)
        shorter = WeightArchive({name: arr for name, arr in same_size.tensors.items()
                                 if name.startswith("prior.")})
        size = path.stat().st_size
        for other in (same_size, shorter):
            before = path.read_bytes()
            save_archive(other, path)
            assert path.read_bytes() != before
            for name, arr in loaded.tensors.items():
                assert arr.tobytes() == kept[name].tobytes(), name
            assert np.array_equal(engine.run_ticks(8), reference.run_ticks(8))
            if other is same_size:
                assert path.stat().st_size == size
        assert path.stat().st_size < size
        assert load_archive(path).names() == shorter.names()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_saving_over_a_loaded_scene_leaves_it_intact(self, tmp_path):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (8, 8, 8))
        full = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        path = tmp_path / "s.rmgv"
        save_voxels(full, path)
        loaded = load_voxels(path)
        save_voxels(empty_grid(GridSpec([0, 0, 0], [1, 1, 1], (2, 2, 2))), path)
        assert np.array_equal(loaded.packed, full.packed)
        assert loaded.occupied_count() == spec.cell_count
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_save_leaves_the_file_and_no_temp_file(self, tmp_path):
        class Unwritable(np.ndarray):
            def tobytes(self, order="C"):
                raise OSError("disk full")

        path = tmp_path / "w.rmgw"
        save_archive(WeightArchive({"w": np.ones(4, dtype=F32)}), path)
        before = path.read_bytes()
        bad = WeightArchive({"w": np.zeros(4, dtype=F32)})
        # The constructor would turn the subclass into a plain array, so the
        # failing tensor goes in after it; astype keeps the subclass.
        bad.tensors["x"] = np.zeros(2, dtype=F32).view(Unwritable)
        with pytest.raises(OSError, match="disk full"):
            save_archive(bad, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]


class TestEngineConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.history_len == 2 and cfg.future_len == 8
        assert cfg.steps == 10 and cfg.fps == 10.0

    def test_values_and_comments(self):
        cfg = parse_config("""
        # rollout window
        history_len = 3
        future_len = 4
        guidance_scale = 1.5
        fwsr = true
        alpha = hhi=0.5, hsi=0.5
        injection_layers = 0,2
        """)
        assert cfg.history_len == 3 and cfg.future_len == 4
        assert cfg.guidance_scale == 1.5 and cfg.fwsr
        assert cfg.alpha == {"hhi": 0.5, "hsi": 0.5}
        assert cfg.injection_layers == (0, 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("histroy_len = 2")
        # The probe is exact: there is no finite-difference step to set.
        with pytest.raises(ConfigError, match="h_step"):
            parse_config("h_step = 1e-3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("steps = ten")

    def test_invalid_combination_rejected(self):
        for text in ("width = 130",  # not divisible by heads
                     "heads = 0",
                     "injection_layers =",
                     "fps = nan", "fps = 0", "beta_sens = nan", "beta_sens = -1",
                     "guidance_scale = -inf", "joints = 3", "joints = 24"):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, weight):
        with pytest.raises(ConfigError):
            parse_config(f"alpha = hhi=0.5, hsi={weight}")
        with pytest.raises(ConfigError):
            EngineConfig(alpha={"hhi": float(weight)})

    def test_every_field_parses_by_its_annotation(self):
        changed = EngineConfig(
            history_len=3, future_len=4, steps=5, guidance_scale=1.5, latent_dim=16,
            text_dim=8, width=64, heads=2, n_blocks=3, ffn_hidden=32, vae_hidden=48,
            injection_layers=(0, 2), beta_sens=0.5, fps=20.0,
            alpha={"hhi": 0.25}, fwsr=True, seed=7, joints=22)
        text = "\n".join(f"{f.name} = {_config_text(getattr(changed, f.name))}"
                         for f in dataclasses.fields(EngineConfig))
        assert parse_config(text) == changed
        # joints has one valid value, the body22 skeleton's joint count.
        assert all(getattr(changed, f.name) != getattr(EngineConfig(), f.name)
                   for f in dataclasses.fields(EngineConfig) if f.name != "joints")


def _config_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items())
    return str(value)


class TestStreamRecords:
    def test_round_trip(self):
        rec = StreamRecord(t=3, kind="partner_pose", pose=np.ones(4, dtype=F32))
        back = parse_record(format_record(rec))
        assert back.t == 3 and back.kind == "partner_pose"
        np.testing.assert_array_equal(back.pose, rec.pose)

    def test_pose_rounding_equals_per_element_round(self):
        """One vectorized round gives the bytes of round(float(v), 6) per value."""
        gen = np.random.default_rng(7)
        bits = gen.integers(0, 2 ** 32, 200_000, dtype=np.uint64).astype(np.uint32)
        special = np.array([0.0, -0.0, 1e-45, -1e-45, 1.17549435e-38, 3.4028235e38,
                            -3.4028235e38, 0.5e-6, -0.5e-6, 1.5e-6, 2.5e-6,
                            np.inf, -np.inf, np.nan], dtype=F32)
        ties = (np.arange(-2048, 2048) / 128.0).astype(F32)   # exact m/128
        scaled = (gen.standard_normal(50_000) * 10.0 ** gen.integers(-9, 9, 50_000)).astype(F32)
        for pose in (bits.view(F32), special, ties, scaled):
            # Non-finite values have no JSON form; format_record refuses them.
            pose = pose[np.isfinite(pose)]
            rec = StreamRecord(t=0, kind="ego_pose", pose=pose)
            reference = json.dumps({"t": 0, "kind": "ego_pose",
                                    "pose": [round(float(v), 6) for v in rec.pose]},
                                   separators=(",", ":"))
            assert format_record(rec) == reference

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pose_is_numeric_error(self, bad):
        pose = np.array([0.25, bad, 1.0], dtype=F32)
        with pytest.raises(NumericError, match="t=5"):
            format_record(StreamRecord(t=5, kind="ego_pose", pose=pose))
        with pytest.raises(NumericError):
            format_record(StreamRecord(t=0, kind="ego_pose", pose=np.ones(2, dtype=F32),
                                       latency_ms=float(bad)))

    def test_alpha_record(self):
        back = parse_record('{"t": 0, "kind": "alpha", "alpha": {"hhi": 0.5}}')
        assert back.alpha == {"hhi": 0.5}
        # JSON integers are numbers too.
        back = parse_record('{"t": 0, "kind": "alpha", "alpha": {"hhi": 1, "hsi": 0}}')
        assert back.alpha == {"hhi": 1.0, "hsi": 0.0}

    def test_malformed_records(self):
        for line in ("not json", '{"kind": "mystery"}', '{"kind": "text"}',
                     '[1, 2]', '{"kind": "partner_pose"}',
                     '{"kind": "partner_pose", "pose": "1.5"}', *BAD_PAYLOADS):
            with pytest.raises(FormatError):
                parse_record(line)


# Well-formed JSON whose payloads do not fit their kind.
BAD_PAYLOADS = (
    '{"kind": "alpha", "alpha": {"hhi": "x"}}',
    '{"kind": "alpha", "alpha": {"hhi": NaN}}',
    '{"kind": "partner_pose", "pose": [0.0, "x", 1.0]}',
    '{"kind": "partner_pose", "pose": [0.0, NaN, 1.0]}',
    '{"kind": "ego_pose", "pose": [Infinity, 0.0]}',
    '{"kind": "text", "text": 5}',
    '{"kind": "text", "text": "go", "t": Infinity}',
    '{"kind": "alpha", "alpha": {"hhi": "0.5", "hsi": true}}',
    '{"kind": "alpha", "alpha": {"hhi": true}}',
    '{"kind": "text", "text": "go", "t": "3"}',
    '{"kind": "text", "text": "go", "t": 2.7}',
    '{"kind": "text", "text": "go", "t": true}',
)


def stream_lines(frames, extra=()):
    lines = []
    extras = dict(extra)
    for i, f in enumerate(frames):
        if i in extras:
            lines.append(extras[i])
        lines.append(json.dumps({"t": i, "kind": "partner_pose",
                                 "pose": [float(v) for v in f]}))
    return "\n".join(lines) + "\n"


def run_stream(text, cfg, archive):
    sink = io.StringIO()
    err = io.StringIO()
    skipped = stream_run(io.StringIO(text), sink, cfg, archive, log=err)
    records = [json.loads(l) for l in sink.getvalue().strip().split("\n")]
    return records, skipped, err.getvalue()


def joined(fn, timeout=60.0):
    """fn() on a daemon thread; fails instead of hanging, re-raises what fn raised."""
    result = {}

    def run():
        try:
            result["value"] = fn()
        except BaseException as exc:  # handed to the caller below
            result["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "stream_run did not return"
    if "error" in result:
        raise result["error"]
    return result["value"]


def strip_latency(records):
    return [{k: v for k, v in r.items() if k != "latency_ms"} for r in records]


class TestStreamRun:
    def test_empty_input_immediate_end(self, cfg, archive):
        records, skipped, _ = run_stream("", cfg, archive)
        assert records == [{"t": 0, "kind": "end"}]
        assert skipped == 0

    def test_sixteen_frames_two_bursts(self, cfg, archive, partner_frames):
        records, _, _ = run_stream(stream_lines(partner_frames), cfg, archive)
        ego = [r for r in records if r["kind"] == "ego_pose"]
        assert len(ego) == 16
        assert [r["t"] for r in ego] == list(range(16))
        assert all("latency_ms" in r for r in ego)
        assert records[-1] == {"t": 16, "kind": "end"}

    def test_fwsr_emits_one_per_frame(self, cfg, archive, partner_frames):
        fw = dataclasses.replace(cfg, fwsr=True)
        records, _, _ = run_stream(stream_lines(partner_frames), fw, archive)
        ego = [r for r in records if r["kind"] == "ego_pose"]
        assert len(ego) == 16

    def test_malformed_records_skipped_and_counted(self, cfg, archive, partner_frames):
        text = stream_lines(partner_frames[:8], extra={4: '{"kind": "garbage"}'})
        records, skipped, err = run_stream(text, cfg, archive)
        assert skipped == 1
        assert "skipping" in err
        assert sum(r["kind"] == "ego_pose" for r in records) == 8

    def test_bad_payloads_skipped_without_hanging(self, cfg, archive, partner_frames):
        extra = {i: line for i, line in enumerate(BAD_PAYLOADS)}
        text = stream_lines(partner_frames, extra=extra)
        records, skipped, err = joined(lambda: run_stream(text, cfg, archive))
        assert skipped == len(BAD_PAYLOADS)
        assert err.count("skipping malformed record") == len(BAD_PAYLOADS)
        assert sum(r["kind"] == "ego_pose" for r in records) == len(partner_frames)

    def test_reader_error_reaches_caller(self, cfg, archive):
        def broken_source():
            yield json.dumps({"t": 0, "kind": "text", "text": "go"}) + "\n"
            raise OSError("source went away")

        with pytest.raises(OSError, match="source went away"):
            joined(lambda: stream_run(broken_source(), io.StringIO(), cfg, archive,
                                      log=io.StringIO()))

    def test_alpha_applies_at_next_segment_boundary(self, cfg, archive, partner_frames):
        # Hot gates so composed deltas actually steer the output.
        hot = {name: (np.ones_like(t) if name.endswith(".gate") else t)
               for name, t in archive.tensors.items()}
        hot_archive = WeightArchive(hot)
        alpha_line = json.dumps({"t": 9, "kind": "alpha", "alpha": {"hhi": 1.0}})
        base, _, _ = run_stream(stream_lines(partner_frames), cfg, hot_archive)
        steered, _, _ = run_stream(stream_lines(partner_frames, extra={9: alpha_line}),
                                   cfg, hot_archive)
        base_ego = [r["pose"] for r in base if r["kind"] == "ego_pose"]
        steered_ego = [r["pose"] for r in steered if r["kind"] == "ego_pose"]
        assert base_ego[:8] == steered_ego[:8]     # first segment sampled before alpha
        assert base_ego[8:] != steered_ego[8:]     # second segment composes the module

    def test_unknown_alpha_module_skipped(self, cfg, archive, partner_frames):
        bad = json.dumps({"t": 0, "kind": "alpha", "alpha": {"nope": 1.0}})
        _, skipped, err = run_stream(stream_lines(partner_frames[:8], extra={0: bad}),
                                     cfg, archive)
        assert skipped == 1 and "nope" in err

    @pytest.mark.parametrize("kind", ["partner_pose", "ego_pose"])
    def test_wrong_pose_width_is_fatal(self, cfg, archive, kind):
        """One check for both pose kinds: the error names the kind and both widths."""
        line = json.dumps({"t": 0, "kind": kind, "pose": [0.0] * 5})
        dim = FeatureLayout(cfg.joints).dim
        with pytest.raises(ConfigError, match=f"^{kind} has 5 channels, engine expects {dim}$"):
            stream_run(io.StringIO(line + "\n"), io.StringIO(), cfg, archive,
                       log=io.StringIO())

    @pytest.mark.parametrize("stopper,error", [
        ({"t": 0, "kind": "end"}, None),
        ({"t": 0, "kind": "partner_pose", "pose": [0.0] * 5}, ConfigError),
    ], ids=["end", "wrong_width"])
    def test_early_stop_returns_promptly_and_leaves_no_reader(self, cfg, archive,
                                                             partner_frames, stopper, error):
        # 200 records follow the stop. stream_run reads on the caller's thread
        # and stops reading there, so none of them is parsed and no thread is
        # left behind to read them.
        frames = np.resize(partner_frames, (200, partner_frames.shape[1]))
        text = json.dumps(stopper) + "\n" + stream_lines(frames)
        before = set(threading.enumerate())
        start = time.perf_counter()
        if error is None:
            joined(lambda: stream_run(io.StringIO(text), io.StringIO(), cfg, archive,
                                      log=io.StringIO()))
        else:
            with pytest.raises(error):
                joined(lambda: stream_run(io.StringIO(text), io.StringIO(), cfg, archive,
                                          log=io.StringIO()))
        assert time.perf_counter() - start < 1.0
        assert set(threading.enumerate()) <= before, "the ingest thread outlived stream_run"

    def test_source_pulled_on_the_calling_thread(self, cfg, archive, partner_frames):
        pulls = []
        before = threading.active_count()

        def source():
            for line in stream_lines(partner_frames).splitlines(keepends=True):
                pulls.append((threading.get_ident(), threading.active_count()))
                yield line

        stream_run(source(), io.StringIO(), cfg, archive, log=io.StringIO())
        assert len(pulls) == len(partner_frames)
        assert pulls == [(threading.get_ident(), before)] * len(pulls)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fwsr", [False, True], ids=["segment", "fwsr"])
    def test_each_ticks_poses_flushed_before_the_next_pull(self, cfg, archive,
                                                           partner_frames, fwsr):
        events = []

        class LoggingSink(io.StringIO):
            def write(self, text):
                events.append(("write", json.loads(text)["kind"]))
                return super().write(text)

            def flush(self):
                events.append(("flush",))
                super().flush()

        def source():
            for k, line in enumerate(stream_lines(partner_frames).splitlines()):
                events.append(("pull", k))
                yield line

        run_cfg = dataclasses.replace(cfg, fwsr=fwsr)
        stream_run(source(), LoggingSink(), run_cfg, archive, log=io.StringIO())
        # Split the log at each pull: what follows pull k is record k's output.
        after_pull = []
        for event in events:
            if event[0] == "pull":
                after_pull.append([])
            else:
                after_pull[-1].append(event)
        assert len(after_pull) == len(partner_frames)
        per_tick = 1 if fwsr else cfg.future_len
        for k, out in enumerate(after_pull[:-1]):
            emits = fwsr or (k + 1) % cfg.future_len == 0
            expected = [("write", "ego_pose")] * per_tick + [("flush",)] if emits else []
            assert out == expected, k
        # The last tick's poses, then the end record, each flushed.
        assert after_pull[-1] == ([("write", "ego_pose")] * per_tick + [("flush",)]
                                  + [("write", "end"), ("flush",)])

    def test_nothing_pulled_after_end(self, cfg, archive, partner_frames):
        pulls = 0
        end_line = json.dumps({"t": 3, "kind": "end"})
        lines = stream_lines(partner_frames, extra={3: end_line}).splitlines()

        def source():
            nonlocal pulls
            for line in lines:
                pulls += 1
                yield line

        sink = io.StringIO()
        stream_run(source(), sink, cfg, archive, log=io.StringIO())
        assert pulls == 4                      # three partner poses, then end
        assert json.loads(sink.getvalue().splitlines()[-1]) == {"t": 0, "kind": "end"}

    def test_transcripts_deterministic(self, cfg, archive, partner_frames):
        text = stream_lines(partner_frames)
        a, _, _ = run_stream(text, cfg, archive)
        b, _, _ = run_stream(text, cfg, archive)
        assert strip_latency(a) == strip_latency(b)

    def test_end_record_stops_processing(self, cfg, archive, partner_frames):
        end_line = json.dumps({"t": 8, "kind": "end"})
        text = stream_lines(partner_frames, extra={8: end_line})
        records, _, _ = run_stream(text, cfg, archive)
        # Frames 8..15 arrive after the end record and are never consumed.
        assert sum(r["kind"] == "ego_pose" for r in records) == 8

    def test_input_ego_pose_rewrites_history(self, cfg, archive, partner_frames):
        override = json.dumps({"t": 0, "kind": "ego_pose",
                               "pose": [0.5] * partner_frames.shape[1]})
        plain, _, _ = run_stream(stream_lines(partner_frames[:8]), cfg, archive)
        forced, _, _ = run_stream(stream_lines(partner_frames[:8], extra={0: override}),
                                  cfg, archive)
        assert sum(r["kind"] == "ego_pose" for r in forced) == 8
        plain_poses = [r["pose"] for r in plain if r["kind"] == "ego_pose"]
        forced_poses = [r["pose"] for r in forced if r["kind"] == "ego_pose"]
        assert plain_poses != forced_poses

    def test_seed_changes_output(self, cfg, archive, partner_frames):
        text = stream_lines(partner_frames[:8])
        a, _, _ = run_stream(text, cfg, archive)
        b, _, _ = run_stream(text, dataclasses.replace(cfg, seed=99), archive)
        assert strip_latency(a) != strip_latency(b)


# (mode, weight, tick): a NaN at weight[0, 0] makes this tick of a compact
# hhi engine decode a non-finite frame.
FAILING_TICKS = [
    ("segment", "prior.vae_dec.w3", COMPACT_CFG.future_len - 1),
    ("slide", "prior.vae_dec.w3", 0),
    ("fwsr", "prior.vae_dec.w3", 0),
    # The refiner's query makes the refined latent NaN: tick 1 is the
    # first refinement tick.
    ("fwsr", "fwsr.cross_attn.w_q", 1),
]


def tick_state(engine: Engine) -> tuple:
    """The objects a tick rebinds, besides the generator state."""
    return engine.ticks, engine.history, engine.partner_window, engine.segment


def assert_same_state(engine: Engine, state: tuple, gen_state: dict) -> None:
    assert all(a is b for a, b in zip(tick_state(engine), state))
    np.testing.assert_equal(engine.gen.bit_generator.state, gen_state)


class TestEngineWiring:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), True,
                                        False, "0.5", None, 1j], ids=repr)
    def test_set_alpha_checks_weights_as_the_config_does(self, cfg, archive, weight):
        engine = Engine(archive, cfg)
        alpha = engine.alpha
        with pytest.raises(ConfigError):
            engine.set_alpha({"hhi": 0.5, "hsi": weight})
        assert engine.alpha is alpha
        with pytest.raises(ConfigError):
            EngineConfig(alpha={"hhi": 0.5, "hsi": weight})
        engine.set_alpha({"hhi": np.float32(0.25), "hsi": 1})
        assert engine.alpha == {"hhi": 0.25, "hsi": 1}

    def test_config_alpha_names_only_modules_the_archive_has(self, cfg, archive):
        """The config's alpha is checked as set_alpha checks it: an unknown
        module id, or one whose weights the archive lacks, is a ConfigError
        when the engine is built."""
        with pytest.raises(ConfigError, match="unknown modules"):
            Engine(archive, dataclasses.replace(cfg, alpha={"hhx": 1.0}))
        no_hsi = WeightArchive({k: v for k, v in archive.tensors.items()
                                if not k.startswith("mim.hsi.")})
        with pytest.raises(ConfigError, match="unknown modules"):
            Engine(no_hsi, dataclasses.replace(cfg, alpha={"hhi": 0.5, "hsi": 0.5}))
        assert Engine(no_hsi, dataclasses.replace(cfg, alpha={"hhi": 0.5})).alpha == {"hhi": 0.5}

    @pytest.mark.parametrize("text", [5, None, b"wave", ["wave"]], ids=repr)
    def test_set_text_rejects_a_non_string_at_once(self, cfg, archive, text):
        engine = Engine(archive, cfg)
        engine.set_text("wave")
        with pytest.raises(ConfigError):
            engine.set_text(text)
        assert engine.text == "wave"
        engine.run_ticks(cfg.future_len)
        assert engine.text == "wave"

    @pytest.mark.parametrize("scene", [5, "room.rmgv", np.zeros((4, 4, 4), dtype=bool)],
                             ids=["int", "str", "array"])
    def test_set_scene_rejects_a_non_grid_at_once(self, scene):
        """Anything but a VoxelGrid or None is a ConfigError on the call, and
        the scene the engine had stays in place."""
        cfg = dataclasses.replace(COMPACT_CFG, steps=2, alpha={"hsi": 1.0})
        engine = Engine(init_weights(cfg, 3), cfg)
        grid = VoxelGrid.from_bool_array(GridSpec([-1, -1, 0], [1, 1, 1], (4, 4, 2)),
                                         np.ones((4, 4, 2), dtype=bool))
        engine.set_scene(grid)
        with pytest.raises(ConfigError, match="VoxelGrid or None"):
            engine.set_scene(scene)
        assert engine.scene_grid is grid
        engine.run_ticks(cfg.future_len)
        engine.set_scene(None)
        assert engine.scene_grid is None
        assert len(engine.run_ticks(cfg.future_len)) == cfg.future_len

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_partner_buffer_stays_bounded(self, mode):
        """Only the frames a window can read are kept: the last history_len
        normalized partner frames, oldest first, however long the stream
        runs. The window is empty until the first frame arrives, and a tick
        without a partner frame leaves it as it is. The ego history stays
        (H, D) float32 on every tick, also when a segment of F = 5 > H = 3
        frames slides it."""
        cfg = dataclasses.replace(COMPACT_CFG, steps=2, history_len=3, future_len=5,
                                  alpha={"hhi": 1.0})
        tensors = dict(init_weights(cfg, 3).tensors)
        dim = tensors["norm.mean"].shape[0]
        gen = Rng(3).generator("norm")
        tensors["norm.mean"] = gen.uniform(-1.0, 1.0, dim).astype(F32)
        tensors["norm.std"] = gen.uniform(0.5, 2.0, dim).astype(F32)
        engine = Engine(WeightArchive(tensors), cfg, mode=mode)
        assert engine.partner_window.shape == (0, dim)
        assert engine.partner_window.dtype == F32
        pushed = []
        for i, frame in enumerate(featurize(synthetic_sequence(40, seed=6)).frames):
            assert engine.history.shape == (cfg.history_len, dim)
            assert engine.history.dtype == F32
            if i % 3 == 2:
                before = engine.partner_window.copy()
                engine.tick(None)
                np.testing.assert_array_equal(engine.partner_window, before)
                continue
            engine.tick(frame)
            pushed.append(frame)
            np.testing.assert_array_equal(
                engine.partner_window,
                normalize(np.stack(pushed[-cfg.history_len:]), engine.normalizer))
        assert engine.history.shape == (cfg.history_len, dim)
        assert engine.history.dtype == F32
        assert not hasattr(engine, "partner")

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_non_finite_frame_is_refused_before_any_state_changes(self, mode,
                                                                 partner_frames):
        """A NaN or inf partner frame or ego pose raises NumericError and leaves
        the engine as it was: the frames after it emit what an engine that
        never saw it emits."""
        from test_golden import golden_archive

        cfg = dataclasses.replace(COMPACT_CFG, steps=2, alpha={"hhi": 1.0})
        archive = golden_archive(cfg)  # non-zero module gates and FiLM head
        engine, twin = Engine(archive, cfg, mode=mode), Engine(archive, cfg, mode=mode)
        for frame in partner_frames[:3]:
            engine.tick(frame)
            twin.tick(frame)
        ticks, buffered = engine.ticks, engine.partner_window.copy()
        for value in (np.nan, np.inf):
            bad = partner_frames[3].copy()
            bad[5] = value
            with pytest.raises(NumericError):
                engine.tick(bad)
            assert engine.ticks == ticks
            np.testing.assert_array_equal(engine.partner_window, buffered)
            with pytest.raises(NumericError):
                engine.observe_ego(bad)
            np.testing.assert_array_equal(engine.history, twin.history)
        emitted = 0
        for frame in partner_frames[3:]:
            got, expected = engine.tick(frame), twin.tick(frame)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)
            emitted += len(got)
        assert emitted > 0

    @staticmethod
    def nan_weight_engine(mode: str, weight: str) -> Engine:
        """A compact hhi engine whose archive holds a NaN at weight[0, 0]."""
        cfg = dataclasses.replace(COMPACT_CFG, steps=2, alpha={"hhi": 1.0})
        tensors = dict(init_weights(cfg, 3).tensors)
        bad = tensors[weight].copy()
        bad[0, 0] = np.nan
        tensors[weight] = bad
        return Engine(WeightArchive(tensors), cfg, mode=mode)

    @pytest.mark.parametrize("mode, weight, tick", FAILING_TICKS)
    def test_non_finite_decoded_frame_is_refused(self, mode, weight, tick, partner_frames):
        """A NaN weight that makes a decoded frame NaN raises NumericError on
        the tick that decodes it, before the history takes the frame; the
        ticks before it emit finite frames."""
        engine = self.nan_weight_engine(mode, weight)
        for partner in partner_frames[:tick]:
            assert all(np.isfinite(f).all() for f in engine.tick(partner))
        history = engine.history
        with pytest.raises(NumericError, match="decoded frames"):
            engine.tick(partner_frames[tick])
        assert engine.history is history

    @pytest.mark.parametrize("mode, weight, tick", FAILING_TICKS)
    def test_a_failed_tick_fails_alike_when_repeated(self, mode, weight, tick,
                                                     partner_frames):
        """A tick that raises leaves the engine as it was, so repeating it
        raises the same NumericError each time and changes nothing."""
        engine = self.nan_weight_engine(mode, weight)
        for partner in partner_frames[:tick]:
            engine.tick(partner)
        state, gen_state = tick_state(engine), engine.gen.bit_generator.state
        messages = []
        for _ in range(3):
            with pytest.raises(NumericError) as raised:
                engine.tick(partner_frames[tick])
            messages.append(str(raised.value))
            assert_same_state(engine, state, gen_state)
        assert messages == messages[:1] * 3

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_a_transient_fault_is_rolled_back(self, mode, monkeypatch):
        """A decode that runs and then raises, on any one tick of the first
        two segments (boundaries, fwsr's probe tick and its refinement
        ticks), leaves the clock, both windows, the segment and the generator
        state as they were. A caller that skips the tick then gets every later
        frame of a twin engine that never saw it, byte for byte."""
        import remogen.runtime.engine as engine_module
        from test_golden import golden_archive

        cfg = dataclasses.replace(COMPACT_CFG, steps=2, alpha={"hhi": 1.0})
        archive = golden_archive(cfg)  # non-zero module gates and FiLM head
        f_len = cfg.future_len
        partner = featurize(synthetic_sequence(4 * f_len, seed=4)).frames
        real_decode, armed = engine_module.decode_segment, []

        def decode(*args, **kwargs):
            out = real_decode(*args, **kwargs)
            if armed:
                armed.clear()
                raise NumericError("transient fault")
            return out

        monkeypatch.setattr(engine_module, "decode_segment", decode)
        # Segment mode decodes only on the last tick of a segment.
        failing = [k for k in range(2 * f_len) if mode != "segment" or k % f_len == f_len - 1]
        for k in failing:
            engine, twin = Engine(archive, cfg, mode=mode), Engine(archive, cfg, mode=mode)
            for frame in partner[:k]:
                engine.tick(frame)
                twin.tick(frame)
            state, gen_state = tick_state(engine), engine.gen.bit_generator.state
            armed.append(k)
            with pytest.raises(NumericError, match="transient fault"):
                engine.tick(partner[k])
            assert not armed
            assert_same_state(engine, state, gen_state)
            emitted = 0
            for frame in partner[k + 1:]:
                got, expected = engine.tick(frame), twin.tick(frame)
                assert [f.tobytes() for f in got] == [f.tobytes() for f in expected], k
                emitted += len(got)
            assert emitted >= f_len, k

    def test_zero_gate_archive_neutral_under_alpha(self, cfg, archive, partner_frames):
        plain = Engine(archive, cfg)
        steered = Engine(archive, cfg)
        steered.set_alpha({"hhi": 1.0, "hsi": 1.0})
        a = plain.run_ticks(8, partner_frames)
        b = steered.run_ticks(8, partner_frames)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_missing_tensor_is_config_error(self, cfg, archive):
        tensors = dict(archive.tensors)
        tensors.pop("prior.denoiser.out_w")
        with pytest.raises(ConfigError):
            Engine(WeightArchive(tensors), cfg)

    def test_wrong_shape_is_config_error(self, cfg, archive):
        tensors = dict(archive.tensors)
        tensors["prior.denoiser.out_w"] = np.zeros((2, 2), dtype=F32)
        with pytest.raises(ConfigError):
            Engine(WeightArchive(tensors), cfg)

    def test_flatten_rebuild_round_trip(self):
        """flatten_params of each part of an engine's params yields the
        archive's names in the archive's order, and rebuild_params of that
        dict gives back the very arrays and the structural values. The digest
        pins the RMGW1 names and their order as init_weights writes them."""
        cfg = EngineConfig()
        archive = init_weights(cfg, 7)
        engine = Engine(archive, cfg)
        parts = {"prior": engine.prior, "mim.hhi": engine.mims["hhi"],
                 "mim.hsi": engine.mims["hsi"], "fwsr": engine.fwsr_params}
        names = []
        for prefix, params in parts.items():
            flat = flatten_params(prefix, params)
            assert all(flat[name] is archive.tensors[name] for name in flat)
            rebuilt = flatten_params(prefix, rebuild_params(prefix, params, flat))
            assert list(rebuilt) == list(flat)
            assert all(rebuilt[name] is flat[name] for name in flat)
            names += flat
        assert names + ["norm.mean", "norm.std"] == archive.names()
        digest = hashlib.blake2b("\n".join(archive.names()).encode(), digest_size=8)
        assert (len(names), digest.hexdigest()) == (280, "a8a5d0eb1d19ec41")
        prior = rebuild_params("prior", engine.prior, archive.tensors)
        assert (prior.latent_dim, prior.denoiser.blocks[0].attn.heads) == \
            (cfg.latent_dim, cfg.heads)

    def test_archive_with_vae_encoder_tensors_still_loads(self, tmp_path, partner_frames):
        """Archives written while the prior still had a VAE encoder also hold
        prior.vae_enc.*: they load, and every mode emits the frames of the
        same archive without those tensors, byte for byte."""
        from test_golden import golden_archive

        cfg = dataclasses.replace(COMPACT_CFG, alpha={"hhi": 1.0})
        current = golden_archive(cfg)  # non-zero module gates and FiLM head
        assert not any(name.startswith("prior.vae_enc.") for name in current.names())
        d, hidden = FeatureLayout(cfg.joints).dim, cfg.vae_hidden
        enc_in, enc_out = (cfg.history_len + cfg.future_len) * d, 2 * cfg.latent_dim
        shapes = {"w1": (enc_in, hidden), "b1": (hidden,), "w2": (hidden, hidden),
                  "b2": (hidden,), "w3": (hidden, enc_out), "b3": (enc_out,)}
        gen = Rng(4).generator("old", "vae_enc")
        old = dict(current.tensors)
        old.update({f"prior.vae_enc.{k}": gen.standard_normal(shape).astype(F32)
                    for k, shape in shapes.items()})
        path = tmp_path / "old.rmgw"
        save_archive(WeightArchive(old), path)
        loaded = load_archive(path)
        assert sorted(loaded.names()) == sorted(old)

        def emitted(a, mode):
            frames = Engine(a, cfg, mode=mode).run_ticks(2 * cfg.future_len, partner_frames)
            return b"".join(f.tobytes() for f in frames)

        for mode in ("segment", "fwsr", "slide"):
            assert emitted(loaded, mode) == emitted(current, mode), mode

    def test_fwsr_mode_needs_fwsr_weights(self, cfg, archive):
        tensors = {k: v for k, v in archive.tensors.items() if not k.startswith("fwsr.")}
        with pytest.raises(ConfigError):
            Engine(WeightArchive(tensors), dataclasses.replace(cfg, fwsr=True))

    def test_run_ticks_emits_requested_frames(self, cfg, archive):
        engine = Engine(archive, cfg, mode="slide")
        out = engine.run_ticks(5)
        assert len(out) == 5

    def test_batched_sensitivity_matches_reference_op(self, cfg, archive, partner_frames):
        """The sensitivity an fwsr engine refines with is the finite-difference
        oracle's, at the history and latent of its segment, on a compact and
        an engine-size prior."""
        from decoder_reference import window_decoder
        from sensitivity_oracle import estimate_sensitivity

        from remogen.prior import decode_batch, decode_segment, project_history

        for c, a in ((COMPACT_CFG, init_weights(COMPACT_CFG, 5)), (cfg, archive)):
            engine = Engine(a, dataclasses.replace(c, alpha={"hhi": 1.0}), mode="fwsr")
            for segment in range(2):
                history = engine.history
                engine.tick(partner_frames[2 * segment])
                engine.tick(partner_frames[2 * segment + 1])
                oracle = estimate_sensitivity(window_decoder(engine.prior), history,
                                              engine.segment.z0)
                # The oracle's float32 rounding over its 2e-3 step: at most
                # 7.7e-4 relative on seeded compact and engine-size priors.
                np.testing.assert_allclose(engine.segment.sensitivity, oracle, rtol=1e-3)
                engine.run_ticks(c.future_len - 2)

        # The oracle decodes its probes in one batch; each row is the
        # one-latent decode bit for bit.
        z0 = Rng(21).generator("z").standard_normal(cfg.latent_dim, dtype=F32)
        zs = z0 + Rng(22).generator("dz").standard_normal((5, cfg.latent_dim), dtype=F32)
        projection = project_history(engine.history, engine.prior)
        batch = decode_batch(projection, zs, engine.prior)
        for row, z in zip(batch, zs):
            np.testing.assert_array_equal(
                row, decode_segment(projection, z, engine.prior))

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_decode_frame_ranges_per_mode(self, mode, cfg, archive, monkeypatch):
        """Every fwsr decode asks for exactly one frame, the one it emits;
        segment and slide mode decode the whole segment."""
        import remogen.runtime.engine as engine_module

        ranges = []
        real_decode = engine_module.decode_segment

        def recording_decode(*args, frames=slice(None), **kwargs):
            ranges.append(frames)
            return real_decode(*args, frames=frames, **kwargs)

        monkeypatch.setattr(engine_module, "decode_segment", recording_decode)
        engine = Engine(archive, cfg, mode=mode)
        assert len(engine.run_ticks(2 * cfg.future_len)) == 2 * cfg.future_len
        assert ranges
        if mode == "fwsr":
            phases = list(range(cfg.future_len)) * 2
            assert ranges == [slice(f, f + 1) for f in phases]
        else:
            assert ranges == [slice(None)] * len(ranges)

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_history_projections_per_tick(self, mode, partner_frames, monkeypatch):
        """fwsr projects two histories per segment through the decoder's
        history rows: the boundary history on the boundary tick, shared by
        the frame-0 decode and the probe, and the refiner's decode history on
        tick 1; ticks 2..F-1 project none. Segment and slide mode project
        once per decode."""
        import remogen.prior as prior_module
        import remogen.runtime.engine as engine_module

        calls = []
        real = prior_module.project_history

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # At the engine's name, and at the prior's for any the decoder made.
        monkeypatch.setattr(engine_module, "project_history", counting)
        monkeypatch.setattr(prior_module, "project_history", counting)
        cfg = dataclasses.replace(COMPACT_CFG, alpha={"hhi": 1.0})
        engine = Engine(init_weights(cfg, 3), cfg, mode=mode)
        per_tick = []
        for frame in partner_frames:
            before = len(calls)
            engine.tick(frame)
            per_tick.append(len(calls) - before)
        f_len = cfg.future_len
        expected = {"fwsr": [1, 1] + [0] * (f_len - 2),
                    "segment": [0] * (f_len - 1) + [1],
                    "slide": [1] * f_len}
        assert len(partner_frames) == 2 * f_len
        assert per_tick == expected[mode] * 2


class TestSegmentStart:
    """Every mode starts a segment the same way, and every decode and probe
    the engine makes reads a history projection the engine built."""

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_every_decode_reads_a_projection_the_engine_built(self, mode, partner_frames,
                                                              monkeypatch):
        """Segment and slide decodes, and fwsr's frame-0 decode, read the
        projection of the engine's history built on their own tick. fwsr's
        probe on tick 1 reads the boundary tick's projection, and its
        refined frames read the projection of the engine's history built on
        tick 1."""
        import remogen.runtime.engine as engine_module

        cfg = dataclasses.replace(COMPACT_CFG, alpha={"hhi": 1.0})
        engine = Engine(init_weights(cfg, 3), cfg, mode=mode)
        built, reads = {}, []
        real_project = engine_module.project_history
        real_decode = engine_module.decode_segment
        real_probe = engine_module.decoder_sensitivity

        def project(m_h, params):
            projection = real_project(m_h, params)
            source = "history" if m_h is engine.history else "other"
            built[id(projection)] = (projection, engine.ticks - 1, source)
            return projection

        def decode(m_h, z, params, **kwargs):
            reads.append(("decode", engine.ticks - 1, m_h))
            return real_decode(m_h, z, params, **kwargs)

        def probe(m_h, z0, params):
            reads.append(("probe", engine.ticks - 1, m_h))
            return real_probe(m_h, z0, params)

        monkeypatch.setattr(engine_module, "project_history", project)
        monkeypatch.setattr(engine_module, "decode_segment", decode)
        monkeypatch.setattr(engine_module, "decoder_sensitivity", probe)
        for frame in partner_frames:
            engine.tick(frame)

        f_len = cfg.future_len
        assert len(partner_frames) == 2 * f_len
        expected_reads = {"segment": 2, "slide": 2 * f_len, "fwsr": 2 * f_len + 2}
        assert len(reads) == expected_reads[mode]
        for what, tick, m_h in reads:
            assert (m_h.shape, m_h.dtype) == ((1, cfg.vae_hidden), np.float64), (what, tick)
            projection, built_on, source = built[id(m_h)]
            assert projection is m_h
            phase = tick % f_len
            if mode != "fwsr" or phase == 0:
                assert (what, built_on, source) == ("decode", tick, "history")
            elif what == "probe":
                assert (phase, built_on, source) == (1, tick - 1, "history")
            else:
                assert (built_on, source) == (tick - phase + 1, "history")

    def test_slide_first_tick_emits_fwsr_first_tick(self, partner_frames):
        """Slide decodes the whole segment and keeps frame 0; fwsr decodes
        frame 0 alone. With the same archive, seed, text and partner frame
        the first tick emits the same bits."""
        from test_golden import golden_archive

        cfg = dataclasses.replace(COMPACT_CFG, alpha={"hhi": 1.0})
        archive = golden_archive(cfg)  # non-zero module gates
        firsts = []
        for seed in range(3):
            emitted = []
            for mode in ("slide", "fwsr"):
                engine = Engine(archive, dataclasses.replace(cfg, seed=seed), mode=mode)
                engine.set_text("wave")
                emitted.append(engine.tick(partner_frames[seed]))
            slide, fwsr = emitted
            assert len(slide) == len(fwsr) == 1
            assert slide[0].tobytes() == fwsr[0].tobytes(), seed
            firsts.append(slide[0].tobytes())
        assert len(set(firsts)) == len(firsts)


class TestModuleBatching:
    @pytest.fixture(scope="class")
    def hot_archive(self, cfg):
        gen = Rng(31).generator("gates")
        return WeightArchive({
            name: (gen.uniform(0.05, 0.15, t.shape).astype(F32) if name.endswith(".gate")
                   else t)
            for name, t in init_weights(cfg, 0).tensors.items()})

    def test_contexts_prepared_once_per_segment(self, cfg, hot_archive, partner_frames,
                                                monkeypatch):
        from remogen.runtime import engine as engine_mod

        calls = {"prepare": [], "deltas": []}
        prepare, deltas = engine_mod.prepare_context, engine_mod.module_deltas

        def counting_prepare(c, params, t):
            calls["prepare"].append(next(mid for mid, m in engine.mims.items()
                                         if m.stacked is params))
            return prepare(c, params, t)

        def counting_deltas(h, c, params):
            calls["deltas"].append(params.module_id)
            return deltas(h, c, params)

        monkeypatch.setattr(engine_mod, "prepare_context", counting_prepare)
        monkeypatch.setattr(engine_mod, "module_deltas", counting_deltas)
        both = dataclasses.replace(cfg, alpha={"hhi": 0.5, "hsi": 0.5})
        engine = Engine(hot_archive, both)
        spec = GridSpec([-1.5, -1.5, 0.0], [1.5, 1.5, 1.5], (30, 30, 15))
        occ = Rng(32).generator("grid").uniform(size=spec.dims) < 0.3
        engine.set_scene(VoxelGrid.from_bool_array(spec, occ))
        engine.run_ticks(16, partner_frames)
        segments = 16 // both.future_len
        assert sorted(calls["prepare"]) == ["hhi"] * segments + ["hsi"] * segments
        assert sorted(calls["deltas"]) == (["hhi"] * segments * both.steps
                                           + ["hsi"] * segments * both.steps)

    @pytest.mark.parametrize("mode", ["segment", "fwsr", "slide"])
    def test_tokens_embedded_once_per_step(self, cfg, hot_archive, partner_frames,
                                           monkeypatch, mode):
        """Each DDPM step embeds (text, null) once, and the modules read its
        null row: the (T, width) tokens of a null-only embedding, bit for bit.

        The text and history rows are embedded once per segment; every step's
        tokens equal the per-step reference embedding of (text, null)."""
        import remogen.prior as prior_mod
        from remogen.runtime import engine as engine_mod
        from token_reference import reference_tokens

        real_segment, real_tokens = engine_mod.segment_tokens, prior_mod.denoiser_tokens
        real_deltas = engine_mod.module_deltas
        segments, embeds, module_inputs = [], [], []

        def recording_segment(params, m_h, text):
            prefix = real_segment(params, m_h, text)
            segments.append((prefix, m_h, text))
            return prefix

        def counting_tokens(params, z_t, t, prefix):
            tokens = real_tokens(params, z_t, t, prefix)
            embeds.append((z_t.copy(), t, prefix, tokens.copy()))
            return tokens

        def recording_deltas(h, c, params):
            module_inputs.append(h.copy())
            return real_deltas(h, c, params)

        monkeypatch.setattr(engine_mod, "segment_tokens", recording_segment)
        monkeypatch.setattr(prior_mod, "denoiser_tokens", counting_tokens)
        monkeypatch.setattr(engine_mod, "denoiser_tokens", counting_tokens)
        monkeypatch.setattr(engine_mod, "module_deltas", recording_deltas)
        engine = Engine(hot_archive, dataclasses.replace(cfg, alpha={"hhi": 1.0}), mode=mode)
        engine.set_text("wave")
        engine.run_ticks(cfg.future_len, partner_frames)
        samples = cfg.future_len if mode == "slide" else 1
        assert len(segments) == samples
        assert len(embeds) == samples * cfg.steps
        assert len(module_inputs) == len(embeds)
        for k, (prefix, m_h, text) in enumerate(segments):
            assert text == "wave"
            steps = embeds[k * cfg.steps:(k + 1) * cfg.steps]
            inputs = module_inputs[k * cfg.steps:(k + 1) * cfg.steps]
            assert [t for _, t, _, _ in steps] == list(range(cfg.steps - 1, -1, -1))
            for (z_t, t, step_prefix, tokens), h in zip(steps, inputs):
                assert step_prefix is prefix
                reference = reference_tokens(engine.prior, z_t, t, m_h, text)
                np.testing.assert_array_equal(tokens, reference)
                assert h.shape == (engine.prior.n_tokens, cfg.width)
                np.testing.assert_array_equal(h, reference[1])

    @pytest.mark.parametrize("mode", ["segment", "fwsr"])
    def test_stacked_weights_live_with_the_engine(self, cfg, hot_archive, partner_frames,
                                                  mode):
        engine = Engine(hot_archive, dataclasses.replace(cfg, alpha={"hhi": 1.0}), mode=mode)
        assert "stacked" not in vars(engine.mims["hhi"])
        engine.run_ticks(12, partner_frames)   # ends mid-segment in fwsr mode
        assert "stacked" not in vars(engine.mims["hsi"])   # inactive: never stacked
        ref = weakref.ref(engine.mims["hhi"].stacked.self_attn.w_q)
        # Freed as soon as the engine is dropped, without a cycle collection.
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestFloat64Twins:
    """An fwsr engine's refinement ticks multiply float64 twins of the
    decoder's and the refiner's weights, each built once on first use, kept
    with its params and read-only."""

    @staticmethod
    def check_twin(twin, weight):
        assert twin.dtype == np.float64
        np.testing.assert_array_equal(twin.astype(F32), weight, strict=True)
        with pytest.raises(ValueError):
            twin[...] = 0.0

    def test_refinement_ticks_multiply_float64_twins(self, monkeypatch):
        import remogen.tensorcore as tensorcore

        cfg = dataclasses.replace(COMPACT_CFG, alpha={"hhi": 1.0})
        engine = Engine(init_weights(cfg, 3), cfg, mode="fwsr")
        prior, fwsr = engine.prior, engine.fwsr_params
        assert not any(name in vars(prior) for name in ("decoder", "decoder_gram"))
        assert "float64_weights" not in vars(fwsr)

        weights, real = [], tensorcore._product

        def recording(a, b, acc):
            weights.append(np.asarray(b).dtype)
            return real(a, b, acc)

        monkeypatch.setattr(tensorcore, "_product", recording)
        partner = featurize(synthetic_sequence(2 * cfg.future_len, seed=4)).frames
        for frame in partner:
            phase = engine.ticks % cfg.future_len
            del weights[:]
            engine.tick(frame)
            if phase >= 2:
                assert weights and set(weights) == {np.dtype(np.float64)}, phase

        decoder, p = vars(prior)["decoder"], prior.vae_dec
        assert prior.decoder is decoder
        for name in ("w1", "w2", "w3"):
            self.check_twin(getattr(decoder, name), getattr(p, name))
        assert all(getattr(decoder, b) is getattr(p, b) for b in ("b1", "b2", "b3"))
        gram = vars(prior)["decoder_gram"]
        assert prior.decoder_gram is gram and not gram.flags.writeable

        twins = vars(fwsr)["float64_weights"]
        assert fwsr.float64_weights is twins
        self.check_twin(twins.dyn_w, fwsr.dyn_w)
        self.check_twin(twins.film_w, fwsr.film_w)
        self.check_twin(twins.dyn_attn.w_qkv, fwsr.dyn_attn.w_qkv)
        for attn, f32 in ((twins.dyn_attn, fwsr.dyn_attn), (twins.cross_attn, fwsr.cross_attn)):
            for name in ("w_q", "w_k", "w_v", "w_o"):
                self.check_twin(getattr(attn, name), getattr(f32, name))


class TestBench:
    def test_repeatability_and_component_sums(self, cfg, archive):
        from remogen.runtime import bench

        first, second = bench(cfg, archive, n_frames=64), bench(cfg, archive, n_frames=64)
        for mode, a in first.items():
            b = second[mode]
            assert a.frames == b.frames == 64
            # What repeats is the work, not the wall clock: both runs record
            # the same components with the same call counts.
            assert ({k: len(v) for k, v in a.durations.items()}
                    == {k: len(v) for k, v in b.durations.items()}), mode
            # Top-level phases are disjoint scopes; their sum stays under the
            # measured total plus timer overhead.
            disjoint = ("denoise_total", "decode", "sensitivity", "fwsr_refine", "pre_post")
            phase_sum = sum(sum(a.durations.get(k, ())) for k in disjoint)
            assert phase_sum <= a.total * 1.1
            if mode == "fwsr":
                # Refinement re-decodes inside its own scope.
                assert 0.0 < sum(a.durations["fwsr_decode"]) <= sum(a.durations["fwsr_refine"])


class TestSensitivityProbe:
    """An fwsr engine probes the decoder sensitivity once per segment, on the
    first refinement tick; the boundary tick ends after sampling and the
    frame-0 decode."""

    @staticmethod
    def probes_per_tick(monkeypatch, cfg, archive, ticks):
        import remogen.runtime.engine as engine_module

        calls = []
        real = engine_module.decoder_sensitivity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "decoder_sensitivity", counting)
        recorder = LatencyRecorder()
        engine = Engine(archive, cfg, mode="fwsr", recorder=recorder)
        per_tick = []
        for _ in range(ticks):
            before = len(calls)
            engine.tick()
            per_tick.append(len(calls) - before)
        assert len(recorder.durations.get("sensitivity", ())) == len(calls)
        return per_tick

    def test_first_refinement_tick_probes_once_per_segment(self, monkeypatch):
        cfg = dataclasses.replace(COMPACT_CFG, future_len=4)
        per_tick = self.probes_per_tick(monkeypatch, cfg, init_weights(cfg, 3), 12)
        assert per_tick == [0, 1, 0, 0] * 3

    def test_one_frame_segments_never_probe(self, monkeypatch):
        cfg = dataclasses.replace(COMPACT_CFG, future_len=1)
        assert self.probes_per_tick(monkeypatch, cfg, init_weights(cfg, 3), 5) == [0] * 5

    def test_bench_keeps_the_probe_a_top_level_phase(self, monkeypatch):
        """The probe runs inside the first refinement step, but bench times it
        as its own phase: the step's own time leaves it out."""
        import remogen.runtime.engine as engine_module
        from remogen.runtime import bench
        from remogen.runtime.bench import format_bench

        real = engine_module.decoder_sensitivity

        def slow(*args, **kwargs):
            time.sleep(0.1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "decoder_sensitivity", slow)
        results = bench(COMPACT_CFG, init_weights(COMPACT_CFG, 3), n_frames=16)
        b = results["fwsr"]
        assert len(b.durations["sensitivity"]) == 2
        assert min(b.durations["sensitivity"]) >= 0.1
        assert max(b.durations["fwsr_refine"]) < 0.1
        row = next(line for line in format_bench(results).splitlines()
                   if "sensitivity probe" in line)
        assert row.startswith("  sensitivity probe ")   # sub-rows indent by four
        assert "x 2;" in row


class TestTracePoints:
    def test_perfbench_program_points_resolve(self):
        # perfbench/spans.py wraps these names when tracing; a name the program
        # no longer exports would make `--trace 1` fail. The file is parsed, not
        # imported, so the check writes nothing next to it.
        import ast
        import importlib
        from pathlib import Path

        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        tree = ast.parse(spans.read_text(encoding="utf-8"))
        points = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "PROGRAM_POINTS"
                              for t in node.targets))
        assert points
        for module, attr, _span in points:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def _perfbench_program_points() -> tuple:
    """PROGRAM_POINTS of perfbench/spans.py, parsed, not imported."""
    import ast
    from pathlib import Path

    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PROGRAM_POINTS" for t in node.targets))


# Points perfbench wraps that the program no longer calls under that name;
# ROADMAP item 1 replaces the patching with events the program emits.
_DEAD_POINTS = {("remogen.runtime.engine", "decode_batch"),
                ("remogen.prior", "denoiser_tokens")}


# An fwsr config with hhi and hsi active: with a scene, it runs every layer.
_EVERY_LAYER_CFG = dataclasses.replace(COMPACT_CFG, fwsr=True, alpha={"hhi": 1.0, "hsi": 1.0})


def _every_layer_stream(sink: io.StringIO) -> None:
    """An fwsr stream of two segments with hhi and hsi active and a small
    scene, its ego poses written to sink."""
    cfg = _EVERY_LAYER_CFG
    spec = GridSpec([-1.5, -1.5, 0.0], [1.5, 1.5, 1.5], (30, 30, 15))
    occ = Rng(32).generator("grid").uniform(size=spec.dims) < 0.3
    frames = featurize(synthetic_sequence(2 * cfg.future_len, seed=2)).frames
    stream_run(io.StringIO(stream_lines(frames)), sink, cfg, init_weights(cfg, 0),
               log=io.StringIO(), scene_grid=VoxelGrid.from_bool_array(spec, occ))


class TestTracePointsCalled:
    """Every point perfbench wraps is called in a run that exercises every
    layer: a traced metric on a point nothing calls reads 0."""

    @pytest.fixture(scope="class")
    def point_calls(self):
        """Calls per (module, attr) point over _every_layer_stream."""
        import collections
        import importlib

        calls = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            for module, attr, _span in _perfbench_program_points():
                target = importlib.import_module(module)

                def counting(*args, _key=(module, attr), _real=getattr(target, attr),
                             **kwargs):
                    calls[_key] += 1
                    return _real(*args, **kwargs)

                mp.setattr(target, attr, counting)
            _every_layer_stream(io.StringIO())
        return calls

    @pytest.mark.parametrize("point", [
        pytest.param(p[:2], id=f"{p[0]}.{p[1]}",
                     marks=[pytest.mark.xfail(strict=True, reason="dead point, ROADMAP item 1")]
                     if p[:2] in _DEAD_POINTS else [])
        for p in _perfbench_program_points()])
    def test_each_program_point_is_called(self, point_calls, point):
        assert point_calls[point] > 0


class TestTracedLayerMetrics:
    """perfbench's own Tracer notes what the traced functions return: a
    function that returns another type breaks a `--trace 1` run."""

    def test_every_layer_metric_is_finite(self, monkeypatch):
        import importlib.util
        import math
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        # No __pycache__ is written under perfbench/.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(spans)

        sink = io.StringIO()
        tracer = spans.Tracer("every-layer")
        tracer.install()
        try:
            _every_layer_stream(sink)
        finally:
            tracer.uninstall()
        poses = sum(json.loads(line)["kind"] == "ego_pose"
                    for line in sink.getvalue().splitlines())
        assert poses == 2 * _EVERY_LAYER_CFG.future_len
        metrics = spans.layer_metrics(tracer.spans, poses, _EVERY_LAYER_CFG.steps)
        assert {name: value for name, (value, _unit) in metrics.items()
                if not math.isfinite(value)} == {}
        crops = [note for *_, name, _s, _e, note in tracer.spans if name == "scene.ego_crop"]
        assert crops and all(0.0 < note < 1.0 for note in crops)
        assert metrics["traffic.ego_crop_occupied_frac"][0] == pytest.approx(np.mean(crops))
