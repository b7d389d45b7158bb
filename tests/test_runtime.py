"""Runtime tests: the three codecs, config parsing, stream loop, engine wiring."""
import dataclasses
import io
import json
import struct
import threading

import numpy as np
import pytest

from remogen.errors import ConfigError, CorruptArchiveError, FormatError
from remogen.motion import FeatureLayout, MotionSegment, featurize, synthetic_sequence
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
from remogen.runtime.weights import flatten_params, rebuild_params
from remogen.scene import GridSpec, VoxelGrid, room_grid_spec
from remogen.tensorcore import Rng

F32 = np.float32


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

    def test_save_load_save_byte_identical(self, tmp_path, archive):
        a = tmp_path / "a.rmgw"
        b = tmp_path / "b.rmgw"
        save_archive(archive, a)
        save_archive(load_archive(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_tensors_own_their_data(self, tmp_path, archive):
        # No tensor may stay a view into the file buffer.
        path = tmp_path / "own.rmgw"
        save_archive(archive, path)
        for name, arr in load_archive(path).tensors.items():
            assert arr.flags.owndata and arr.flags.writeable, name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmgw"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_archive(path)

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
        grid = VoxelGrid.empty(GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4)))
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
        save_voxels(VoxelGrid.empty(room_grid_spec()), path)
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

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.rmgv"
        save_voxels(VoxelGrid.empty(GridSpec([0, 0, 0], [1, 1, 1], (4, 4, 4))), path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_voxels(path)


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

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("steps = ten")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("width = 130")  # not divisible by heads


class TestStreamRecords:
    def test_round_trip(self):
        rec = StreamRecord(t=3, kind="partner_pose", pose=np.ones(4, dtype=F32))
        back = parse_record(format_record(rec))
        assert back.t == 3 and back.kind == "partner_pose"
        np.testing.assert_array_equal(back.pose, rec.pose)

    def test_alpha_record(self):
        back = parse_record('{"t": 0, "kind": "alpha", "alpha": {"hhi": 0.5}}')
        assert back.alpha == {"hhi": 0.5}

    def test_malformed_records(self):
        for line in ("not json", '{"kind": "mystery"}', '{"kind": "text"}',
                     '[1, 2]', '{"kind": "partner_pose"}', *BAD_PAYLOADS):
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
        extra = {2 * i: line for i, line in enumerate(BAD_PAYLOADS)}
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

    def test_wrong_pose_width_is_fatal(self, cfg, archive):
        line = json.dumps({"t": 0, "kind": "partner_pose", "pose": [0.0] * 5})
        with pytest.raises(ConfigError):
            stream_run(io.StringIO(line + "\n"), io.StringIO(), cfg, archive,
                       log=io.StringIO())

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


class TestEngineWiring:
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

    def test_flatten_rebuild_round_trip(self, cfg, archive):
        engine = Engine(archive, cfg)
        flat = flatten_params("prior", engine.prior)
        rebuilt = rebuild_params("prior", engine.prior, flat)
        assert np.array_equal(rebuilt.denoiser.out_w, engine.prior.denoiser.out_w)
        assert rebuilt.latent_dim == engine.prior.latent_dim

    def test_fwsr_mode_needs_fwsr_weights(self, cfg, archive):
        tensors = {k: v for k, v in archive.tensors.items() if not k.startswith("fwsr.")}
        with pytest.raises(ConfigError):
            Engine(WeightArchive(tensors), dataclasses.replace(cfg, fwsr=True))

    def test_run_ticks_emits_requested_frames(self, cfg, archive):
        engine = Engine(archive, cfg, mode="slide")
        out = engine.run_ticks(5)
        assert len(out) == 5

    def test_batched_sensitivity_matches_reference_op(self, cfg, archive):
        from remogen.fwsr import estimate_sensitivity
        from remogen.prior import decode_batch, decode_segment

        engine = Engine(archive, cfg, mode="fwsr")
        z0 = Rng(21).generator("z").standard_normal(cfg.latent_dim, dtype=F32)
        zs = z0 + Rng(22).generator("dz").standard_normal((5, cfg.latent_dim), dtype=F32)
        batch = decode_batch(engine.history, zs, engine.prior)
        for row, z in zip(batch, zs):
            np.testing.assert_array_equal(
                row, decode_segment(engine.history, z, engine.prior).frames)

        def row_wise(h, probes):
            return np.stack([decode_segment(h, z, engine.prior).frames for z in probes])

        fast = estimate_sensitivity(lambda h, p: decode_batch(h, p, engine.prior),
                                    engine.history, z0, cfg.h_step)
        slow = estimate_sensitivity(row_wise, engine.history, z0, cfg.h_step)
        np.testing.assert_array_equal(fast.s, slow.s)


class TestBench:
    def test_repeatability_and_component_sums(self, cfg, archive):
        from remogen.runtime import bench

        for mode in ("segment", "fwsr"):
            a = bench(cfg, archive, n_frames=64, modes=(mode,))[mode]
            b = bench(cfg, archive, n_frames=64, modes=(mode,))[mode]
            # Sanity band, not precision: per-frame means of two runs are comparable.
            assert 0.5 <= a.per_frame / b.per_frame <= 2.0
            # Top-level phases are disjoint scopes; their sum stays under the
            # measured total plus timer overhead.
            disjoint = ("denoise_total", "decode", "sensitivity", "fwsr_refine", "pre_post")
            phase_sum = sum(a.components.get(k, 0.0) for k in disjoint)
            assert phase_sum <= a.total * 1.1
            if mode == "fwsr":
                # Refinement re-decodes inside its own scope.
                assert 0.0 < a.components["fwsr_decode"] <= a.components["fwsr_refine"]


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
