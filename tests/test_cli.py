"""Command-line surface tests: happy paths and exit codes."""
import io
import json
import os
import select
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from remogen import cli
from remogen.cli import main
from remogen.errors import EmptyInputError, InsufficientFramesError
from remogen.motion import FeatureLayout, MotionSegment, featurize, synthetic_sequence
from remogen.runtime import (
    WeightArchive,
    init_weights,
    load_config,
    load_motion,
    load_voxels,
    save_archive,
    save_motion,
)


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "w.rmgw"
    assert main(["init-weights", "--out", str(path), "--seed", "3"]) == 0
    return path


class TestInitWeights:
    def test_creates_loadable_archive(self, weights_path):
        from remogen.runtime import load_archive

        archive = load_archive(weights_path)
        assert "prior.denoiser.out_w" in archive
        assert "mim.hhi.blocks.0.gate" in archive
        assert "fwsr.film_w" in archive


class TestGenerate:
    def test_writes_motion_file(self, tmp_path, weights_path):
        out = tmp_path / "gen.rmgm"
        rc = main(["generate", "--weights", str(weights_path), "--text", "wave hello",
                   "--segments", "2", "--out", str(out)])
        assert rc == 0
        seg, layout = load_motion(out)
        assert seg.frames.shape == (16, layout.dim)

    def test_fwsr_flag_changes_output(self, tmp_path, weights_path):
        a, b = tmp_path / "seg.rmgm", tmp_path / "ref.rmgm"
        main(["generate", "--weights", str(weights_path), "--segments", "1",
              "--out", str(a), "--seed", "5"])
        main(["generate", "--weights", str(weights_path), "--segments", "1",
              "--out", str(b), "--seed", "5", "--fwsr"])
        x, _ = load_motion(a)
        y, _ = load_motion(b)
        assert x.frames.shape == y.frames.shape
        # Zero-gated refinement still re-decodes with a shifted history, so
        # later frames differ while frame 0 matches.
        np.testing.assert_array_equal(x.frames[0], y.frames[0])
        assert not np.array_equal(x.frames[1:], y.frames[1:])

    def test_partner_conditioning_runs(self, tmp_path, weights_path):
        partner_path = tmp_path / "partner.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=7)), partner_path,
                    FeatureLayout())
        out = tmp_path / "react.rmgm"
        rc = main(["generate", "--weights", str(weights_path), "--segments", "2",
                   "--out", str(out), "--partner", str(partner_path),
                   "--alpha", "hhi=1.0"])
        assert rc == 0

    def test_partner_at_another_frame_rate_is_config_error(self, tmp_path, weights_path,
                                                           capsys):
        """A partner recorded at 30 fps is not played against the config's
        10 fps: exit 2, a message naming both rates, and no file written."""
        partner_path = tmp_path / "partner30.rmgm"
        frames = featurize(synthetic_sequence(16, seed=7)).frames
        save_motion(MotionSegment(frames, fps=30.0), partner_path, FeatureLayout())
        out = tmp_path / "react.rmgm"
        capsys.readouterr()
        rc = main(["generate", "--weights", str(weights_path), "--segments", "1",
                   "--out", str(out), "--partner", str(partner_path), "--alpha", "hhi=1.0"])
        assert rc == 2 and not out.exists()
        assert "runs at 30 fps, the config at 10" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_alpha_is_config_error(self, tmp_path, weights_path, weight):
        out = tmp_path / "x.rmgm"
        rc = main(["generate", "--weights", str(weights_path), "--segments", "1",
                   "--out", str(out), "--alpha", f"hhi={weight}"])
        assert rc == 2 and not out.exists()
        config = tmp_path / "bad.cfg"
        config.write_text(f"alpha = hhi={weight}\n")
        assert main(["stream", "--weights", str(weights_path), "--config", str(config)]) == 2
        assert main(["bench", "--weights", str(weights_path), "--frames", "8",
                     "--config", str(config)]) == 2

    def test_unknown_alpha_module_is_config_error(self, tmp_path, weights_path,
                                                  monkeypatch):
        out = tmp_path / "x.rmgm"
        rc = main(["generate", "--weights", str(weights_path), "--segments", "1",
                   "--out", str(out), "--alpha", "hhx=1.0"])
        assert rc == 2 and not out.exists()
        config = tmp_path / "hhx.cfg"
        config.write_text("alpha = hhx=1.0\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["stream", "--weights", str(weights_path), "--config", str(config)]) == 2

    def test_negative_counts_are_config_errors(self, tmp_path, weights_path):
        out = tmp_path / "x.rmgm"
        rc = main(["generate", "--weights", str(weights_path), "--segments", "-3",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert main(["bench", "--weights", str(weights_path), "--frames", "-1"]) == 2

    def test_unsupported_joint_count_is_config_error(self, tmp_path, weights_path):
        config = tmp_path / "joints.cfg"
        config.write_text("joints = 3\n")
        assert main(["stream", "--weights", str(weights_path), "--config", str(config)]) == 2
        # Rejected with the config, before the archive is read: a corrupt
        # archive would otherwise be a format error (exit 3).
        garbage = tmp_path / "garbage.rmgw"
        garbage.write_bytes(b"garbage")
        assert main(["bench", "--weights", str(garbage), "--frames", "8",
                     "--config", str(config)]) == 2

    @pytest.mark.parametrize("weight, flags", [
        ("prior.vae_dec.w3", []),
        ("prior.vae_dec.w3", ["--fwsr"]),
        ("fwsr.cross_attn.w_q", ["--fwsr"]),
    ])
    def test_nan_weight_is_numeric_error_and_writes_no_file(self, tmp_path, weights_path,
                                                            capsys, weight, flags):
        """A NaN weight that makes a decoded frame NaN exits 4 before any file
        is written."""
        from remogen.runtime import load_archive

        tensors = dict(load_archive(weights_path).tensors)
        bad = tensors[weight].copy()
        bad[0, 0] = np.nan
        tensors[weight] = bad
        weights = tmp_path / "nan.rmgw"
        save_archive(WeightArchive(tensors), weights)
        out = tmp_path / "x.rmgm"
        capsys.readouterr()
        assert main(["generate", "--weights", str(weights), "--segments", "1",
                     "--out", str(out), *flags]) == 4
        assert "non-finite values in decoded frames" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_weight_writes_only_the_numeric_error_line(self, tmp_path, weights_path,
                                                           value):
        """An infinite denoiser weight turns into inf - inf inside the tick;
        generate exits 4, and its stderr is the one `numeric error:` line,
        with no numpy RuntimeWarning before it."""
        from remogen.runtime import load_archive

        tensors = dict(load_archive(weights_path).tensors)
        name = "prior.denoiser.blocks.0.ffn.w1"
        bad = tensors[name].copy()
        bad[0, 0] = value
        tensors[name] = bad
        weights = tmp_path / "inf.rmgw"
        save_archive(WeightArchive(tensors), weights)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "remogen.cli", "generate",
             "--weights", str(weights), "--segments", "1", "--out", str(tmp_path / "x.rmgm")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric error: "), proc.stderr

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("tensor", ["norm.mean", "norm.std"])
    @pytest.mark.parametrize("command", ["generate", "stream"])
    def test_non_finite_normalizer_exits_4_before_the_first_tick(
            self, tmp_path, weights_path, monkeypatch, capsys, command, tensor, value):
        """A non-finite norm.mean or norm.std is refused when the engine is
        built, naming the tensor: generate writes no file, and stream reads no
        record and writes no line."""
        from remogen.runtime import load_archive

        tensors = dict(load_archive(weights_path).tensors)
        bad = tensors[tensor].copy()
        bad[5] = value
        tensors[tensor] = bad
        weights = tmp_path / "bad-norm.rmgw"
        save_archive(WeightArchive(tensors), weights)
        out = tmp_path / "x.rmgm"
        stdin = io.StringIO('{"t": 0, "kind": "partner_pose", "pose": [0.0]}\n')
        monkeypatch.setattr(sys, "stdin", stdin)
        capsys.readouterr()
        argv = {"generate": ["--segments", "1", "--out", str(out)], "stream": []}[command]
        assert main([command, "--weights", str(weights), *argv]) == 4
        captured = capsys.readouterr()
        assert f"non-finite values in {tensor}" in captured.err
        assert captured.out == "" and stdin.tell() == 0 and not out.exists()

    def test_missing_weights_is_format_error(self, tmp_path):
        bad = tmp_path / "missing.rmgw"
        bad.write_bytes(b"garbage")
        rc = main(["generate", "--weights", str(bad), "--segments", "1",
                   "--out", str(tmp_path / "x.rmgm")])
        assert rc == 3


class TestStream:
    def test_each_pose_reaches_a_pipe_before_stdin_closes(self, weights_path):
        # Python block-buffers a piped stdout unless PYTHONUNBUFFERED is set,
        # so the child runs without it, as a plain shell pipeline would.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        pose = [float(v) for v in featurize(synthetic_sequence(1, seed=4)).frames[0]]
        proc = subprocess.Popen(
            [sys.executable, "-m", "remogen.cli", "stream", "--weights", str(weights_path),
             "--fwsr"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, bufsize=0)
        try:
            proc.stdin.write((json.dumps({"t": 0, "kind": "partner_pose", "pose": pose})
                              + "\n").encode())
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "no pose reached the pipe while stdin was open"
            first = json.loads(proc.stdout.readline())
            assert first["kind"] == "ego_pose" and first["t"] == 0
            rest, err = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err.decode()
        assert [json.loads(line) for line in rest.splitlines()] == [{"t": 1, "kind": "end"}]


    def test_nan_decoder_weight_writes_only_json_lines(self, tmp_path, monkeypatch, capsys):
        """A NaN decoder weight makes every emitted pose NaN: stream exits 4,
        and each line it wrote to stdout before that is JSON."""
        config = tmp_path / "compact.cfg"
        config.write_text("history_len = 2\nfuture_len = 8\nsteps = 5\nlatent_dim = 16\n"
                          "text_dim = 16\nwidth = 32\nheads = 2\nn_blocks = 2\n"
                          "ffn_hidden = 64\nvae_hidden = 64\ninjection_layers = 0,1\n")
        tensors = dict(init_weights(load_config(config), seed=3).tensors)
        w3 = tensors["prior.vae_dec.w3"].copy()
        w3[0, 0] = np.nan
        tensors["prior.vae_dec.w3"] = w3
        weights = tmp_path / "nan.rmgw"
        save_archive(WeightArchive(tensors), weights)
        pose = [float(v) for v in featurize(synthetic_sequence(1, seed=4)).frames[0]]
        records = "".join(json.dumps({"t": t, "kind": "partner_pose", "pose": pose}) + "\n"
                          for t in range(4))
        monkeypatch.setattr(sys, "stdin", io.StringIO(records))
        capsys.readouterr()
        rc = main(["stream", "--weights", str(weights), "--fwsr", "--config", str(config)])
        captured = capsys.readouterr()
        assert rc == 4, captured.err
        assert "numeric error" in captured.err
        for line in captured.out.splitlines():
            json.loads(line, parse_constant=lambda name: pytest.fail(f"bare {name}: {line}"))


class TestVoxelizeAndMetrics:
    def test_voxelize_then_metrics(self, tmp_path, weights_path):
        pts = tmp_path / "points.xyz"
        pts.write_text("0.5 0.5 0.5\n0.2 0.2 0.2\nbad line\n")
        vox = tmp_path / "scene.rmgv"
        rc = main(["voxelize", "--points", str(pts),
                   "--bounds", "0", "0", "0", "1", "1", "1",
                   "--dims", "4", "4", "4", "--out", str(vox)])
        assert rc == 0
        grid = load_voxels(vox)
        assert grid.occupied_count() == 2

        gen_path = tmp_path / "pred.rmgm"
        ref_path = tmp_path / "ref.rmgm"
        save_motion(featurize(synthetic_sequence(32, seed=1)), gen_path, FeatureLayout())
        save_motion(featurize(synthetic_sequence(32, seed=2)), ref_path, FeatureLayout())
        rc = main(["metrics", "--pred", str(gen_path), "--ref", str(ref_path),
                   "--scene", str(vox)])
        assert rc == 0

    def test_metrics_report_is_json(self, tmp_path, capsys):
        a = tmp_path / "a.rmgm"
        b = tmp_path / "b.rmgm"
        save_motion(featurize(synthetic_sequence(24, seed=3)), a, FeatureLayout())
        save_motion(featurize(synthetic_sequence(24, seed=4)), b, FeatureLayout())
        assert main(["metrics", "--pred", str(a), "--ref", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "fid" in report and "peak_jerk_pred" in report

    def test_metrics_uses_file_layout(self, tmp_path, capsys):
        layout = FeatureLayout(10)
        gen = np.random.default_rng(5)
        paths = []
        for name in ("pred", "ref", "partner"):
            path = tmp_path / f"{name}.rmgm"
            frames = gen.standard_normal((16, layout.dim)).astype(np.float32)
            save_motion(MotionSegment(frames), path, layout)
            paths.append(str(path))
        pred, ref, partner = paths
        assert main(["metrics", "--pred", pred, "--ref", ref, "--partner", partner]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["peak_jerk_pred"] is not None and "collision_pct" in report

    def test_short_partner_keeps_the_scene_check_of_every_pred_frame(self, tmp_path,
                                                                     capsys):
        """A --partner shorter than --pred limits the partner check alone: the
        scene check still covers every pred frame. The ego walks into the
        occupied box (x in [-4, -2]) only after the partner's 8 frames, and
        the partner stands 50 m away."""
        layout = FeatureLayout()
        pts, vox = tmp_path / "points.xyz", tmp_path / "scene.rmgv"
        pts.write_text("-3 0 1\n")
        assert main(["voxelize", "--points", str(pts), "--bounds", "-4", "-2", "-1",
                     "-2", "2", "3", "--dims", "1", "1", "1", "--out", str(vox)]) == 0
        pred, partner = tmp_path / "pred.rmgm", tmp_path / "partner.rmgm"
        save_motion(featurize(synthetic_sequence(32, seed=1)), pred, layout)
        far = featurize(synthetic_sequence(8, seed=2)).frames.copy()
        far[:, layout.span("root_translation").start] += 50.0
        save_motion(MotionSegment(far), partner, layout)

        def collision(*extra):
            capsys.readouterr()
            assert main(["metrics", "--pred", str(pred), "--ref", str(pred), *extra]) == 0
            return json.loads(capsys.readouterr().out)["collision_pct"]

        scene_alone = collision("--scene", str(vox))
        assert 0.0 < scene_alone < 100.0
        assert collision("--scene", str(vox), "--partner", str(partner)) == scene_alone
        assert collision("--partner", str(partner)) == 0.0

    @pytest.mark.parametrize("pred_fps, partner_fps", [(10.0, 30.0), (30.0, 10.0)])
    def test_partner_at_another_frame_rate_is_config_error(self, tmp_path, capsys,
                                                           pred_fps, partner_fps):
        """Collisions are scored frame by frame, so a partner whose frame
        rate is not the pred's is refused with exit 2 and no report."""
        pred, partner = tmp_path / "pred.rmgm", tmp_path / "partner.rmgm"
        for path, fps, seed in ((pred, pred_fps, 1), (partner, partner_fps, 2)):
            frames = featurize(synthetic_sequence(16, seed=seed)).frames
            save_motion(MotionSegment(frames, fps=fps), path, FeatureLayout())
        capsys.readouterr()
        assert main(["metrics", "--pred", str(pred), "--ref", str(pred),
                     "--partner", str(partner)]) == 2
        captured = capsys.readouterr()
        assert f"runs at {partner_fps:g} fps, --pred at {pred_fps:g}" in captured.err
        assert captured.out == ""

    def test_metrics_layout_mismatch_is_config_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.rmgm"
        ref = tmp_path / "ref.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=1)), pred, FeatureLayout())
        frames = np.zeros((16, FeatureLayout(10).dim), dtype=np.float32)
        save_motion(MotionSegment(frames), ref, FeatureLayout(10))
        assert main(["metrics", "--pred", str(pred), "--ref", str(ref)]) == 2
        assert "differs from ref layout" in capsys.readouterr().err

    @pytest.mark.parametrize("layout_id,joints", [("body0", 0), ("body007", 7)])
    def test_non_canonical_layout_id_is_format_error(self, tmp_path, capsys, layout_id,
                                                     joints):
        """A motion file whose layout id is no canonical bodyN, N >= 1, exits
        3. A body0 file, with no joints, once crashed peak_jerk."""
        from remogen.runtime.codecs import MOTION_MAGIC

        t, d = 16, 12 * joints + 12  # FeatureLayout(0) is refused
        ident = layout_id.encode("utf-8")
        path = tmp_path / "odd.rmgm"
        path.write_bytes(MOTION_MAGIC + struct.pack("<IfIII", 1, 10.0, joints, d, t)
                         + struct.pack("<I", len(ident)) + ident + bytes(4 * t * d))
        capsys.readouterr()
        assert main(["metrics", "--pred", str(path), "--ref", str(path)]) == 3
        captured = capsys.readouterr()
        assert f"unknown layout id {layout_id!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--pred", "--ref", "--partner"])
    def test_zero_frame_motion_file_is_config_error(self, tmp_path, weights_path, capsys,
                                                    flag):
        """A motion file from `generate --segments 0` holds no frames; passing
        it to metrics is a config error that names the file."""
        empty = tmp_path / "empty.rmgm"
        assert main(["generate", "--weights", str(weights_path), "--segments", "0",
                     "--out", str(empty)]) == 0
        assert len(load_motion(empty)[0]) == 0
        full = tmp_path / "full.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=1)), full, FeatureLayout())
        paths = {"--pred": str(full), "--ref": str(full), flag: str(empty)}
        capsys.readouterr()
        assert main(["metrics", *(a for kv in paths.items() for a in kv)]) == 2
        assert f"{empty} holds no frames" in capsys.readouterr().err

    def test_fid_of_a_file_against_itself_is_zero(self, tmp_path, capsys):
        """Rounding takes the Frechet distance of equal sets a little below
        zero; the report prints 0.0."""
        a = tmp_path / "a.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=1)), a, FeatureLayout())
        capsys.readouterr()
        assert main(["metrics", "--pred", str(a), "--ref", str(a)]) == 0
        assert json.loads(capsys.readouterr().out)["fid"] == 0.0

    def test_report_keys(self, tmp_path, capsys):
        """With --scene and --partner the report holds these keys, in order."""
        vox = tmp_path / "scene.rmgv"
        pts = tmp_path / "points.xyz"
        pts.write_text("0.5 0.5 0.5\n")
        assert main(["voxelize", "--points", str(pts), "--bounds", "0", "0", "0", "1", "1", "1",
                     "--dims", "4", "4", "4", "--out", str(vox)]) == 0
        paths = []
        for seed in range(3):
            paths.append(tmp_path / f"{seed}.rmgm")
            save_motion(featurize(synthetic_sequence(16, seed=seed)), paths[-1],
                        FeatureLayout())
        capsys.readouterr()
        assert main(["metrics", "--pred", str(paths[0]), "--ref", str(paths[1]),
                     "--partner", str(paths[2]), "--scene", str(vox)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["fid", "diversity_pred", "peak_jerk_pred", "peak_jerk_ref",
                                "collision_pct"]

    @pytest.mark.parametrize("flag", ["--pred", "--ref", "--partner"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_frame_is_numeric_error(self, tmp_path, capsys, flag, value):
        """A motion file with a non-finite value in any frame is refused with
        exit 4 and a message naming the file, whichever input it is."""
        full = tmp_path / "full.rmgm"
        segment = featurize(synthetic_sequence(16, seed=1))
        save_motion(segment, full, FeatureLayout())
        frames = segment.frames.copy()
        frames[3, FeatureLayout().span("joint_positions").start] = value
        bad = tmp_path / "bad.rmgm"
        save_motion(MotionSegment(frames), bad, FeatureLayout())
        paths = {"--pred": str(full), "--ref": str(full), "--partner": str(full),
                 flag: str(bad)}
        capsys.readouterr()
        assert main(["metrics", *(a for kv in paths.items() for a in kv)]) == 4
        captured = capsys.readouterr()
        assert f"{bad} holds non-finite frames" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("error", [EmptyInputError, InsufficientFramesError])
    def test_every_package_error_has_an_exit_code(self, tmp_path, capsys, monkeypatch,
                                                  error):
        def failing(*args, **kwargs):
            raise error("bad input")

        monkeypatch.setattr(cli, "peak_jerk", failing)
        a = tmp_path / "a.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=3)), a, FeatureLayout())
        assert main(["metrics", "--pred", str(a), "--ref", str(a)]) == 2
        assert "bad input" in capsys.readouterr().err

    def test_voxelize_needs_dims_or_resolution(self, tmp_path):
        pts = tmp_path / "p.xyz"
        pts.write_text("0 0 0\n")
        rc = main(["voxelize", "--points", str(pts),
                   "--bounds", "0", "0", "0", "1", "1", "1",
                   "--out", str(tmp_path / "v.rmgv")])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["abc 1 2", "0.5 nan 0.5", "0.5 0.5 inf", "-inf 0 0",
                                     "1e999 0 0", "0.5,0.5,0.5 1 2"])
    def test_voxelize_refuses_a_point_that_is_not_three_finite_numbers(self, tmp_path,
                                                                       capsys, bad):
        """A line whose first three fields are not finite numbers is a format
        error naming the line, and no file is written."""
        pts = tmp_path / "p.xyz"
        pts.write_text(f"0.5 0.5 0.5\nshort line\n{bad}\n0.2 0.2 0.2\n")
        out = tmp_path / "v.rmgv"
        rc = main(["voxelize", "--points", str(pts),
                   "--bounds", "0", "0", "0", "1", "1", "1",
                   "--dims", "4", "4", "4", "--out", str(out)])
        assert rc == 3
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        ["--bounds", "0", "0", "0", "inf", "1", "1", "--resolution", "0.1"],
        ["--bounds", "0", "0", "0", "1", "1", "1", "--dims", "4294967297", "1", "1"],
        ["--bounds", "0", "0", "0", "inf", "1", "1", "--dims", "2", "2", "2"],
        ["--bounds", "nan", "0", "0", "1", "1", "1", "--dims", "2", "2", "2"],
        ["--bounds", "0", "0", "0", "1", "1", "1", "--resolution", "3"],
        ["--bounds", "0", "0", "0", "1", "1", "1", "--dims", "0", "1", "1"],
    ])
    def test_voxelize_refuses_a_grid_it_cannot_write(self, tmp_path, capsys, grid):
        pts = tmp_path / "p.xyz"
        pts.write_text("0 0 0\n")
        out = tmp_path / "v.rmgv"
        rc = main(["voxelize", "--points", str(pts), *grid, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("resolution", ["0", "-0.1", "nan"])
    def test_voxelize_refuses_a_resolution_that_is_not_positive(self, tmp_path, capsys,
                                                                resolution):
        pts = tmp_path / "p.xyz"
        pts.write_text("0 0 0\n")
        out = tmp_path / "v.rmgv"
        rc = main(["voxelize", "--points", str(pts),
                   "--bounds", "0", "0", "0", "1", "1", "1",
                   "--resolution", resolution, "--out", str(out)])
        assert rc == 2
        assert "--resolution must be > 0" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_bench_prints_breakdowns(self, weights_path, capsys):
        assert main(["bench", "--weights", str(weights_path), "--frames", "16"]) == 0
        out = capsys.readouterr().out
        assert "[segment]" in out and "[fwsr]" in out and "[slide]" in out
        assert "per frame" in out
        refinement = next(line for line in out.splitlines() if "refinement decoding" in line)
        assert "x 14; per call p50 " in refinement and ", p95 " in refinement
        assert ", max " in refinement
        # One probe per fwsr segment, reported as a top-level phase.
        probe = next(line for line in out.splitlines() if "sensitivity probe" in line)
        assert probe.startswith("  sensitivity probe ") and "x 2;" in probe

    def test_bench_zero_frames_prints_empty_rows(self, weights_path, capsys):
        assert main(["bench", "--weights", str(weights_path), "--frames", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"[{mode}] 0 frames, total 0.000 s, per frame 0.000 ms"
            for mode in ("segment", "fwsr", "slide")]

    def test_bench_config_runs_the_modules(self, tmp_path, weights_path, capsys):
        config = tmp_path / "hhi.cfg"
        config.write_text("alpha = hhi=1.0\n")
        plain = ["bench", "--weights", str(weights_path), "--frames", "8"]
        assert main(plain) == 0
        assert "interaction modules" not in capsys.readouterr().out
        assert main(plain + ["--config", str(config)]) == 0
        assert "interaction modules" in capsys.readouterr().out

    def test_bench_bad_config_or_seed_is_config_error(self, tmp_path, weights_path,
                                                      monkeypatch):
        bad, good = tmp_path / "bad.cfg", tmp_path / "good.cfg"
        bad.write_text("alpha = nope\n")
        good.write_text("alpha = hhi=1.0\n")
        args = ["bench", "--weights", str(weights_path), "--frames", "8", "--config"]
        assert main(args + [str(bad)]) == 2
        monkeypatch.setenv("REMOGEN_SEED", "not-a-number")
        assert main(args + [str(good)]) == 2

    def test_env_seed_override(self, tmp_path, weights_path, monkeypatch):
        a, b = tmp_path / "a.rmgm", tmp_path / "b.rmgm"
        monkeypatch.setenv("REMOGEN_SEED", "123")
        main(["generate", "--weights", str(weights_path), "--segments", "1",
              "--out", str(a), "--seed", "0"])
        monkeypatch.delenv("REMOGEN_SEED")
        main(["generate", "--weights", str(weights_path), "--segments", "1",
              "--out", str(b), "--seed", "123"])
        x, _ = load_motion(a)
        y, _ = load_motion(b)
        np.testing.assert_array_equal(x.frames, y.frames)

    def test_bad_env_seed_is_config_error(self, weights_path, monkeypatch, tmp_path):
        monkeypatch.setenv("REMOGEN_SEED", "not-a-number")
        rc = main(["generate", "--weights", str(weights_path), "--segments", "1",
                   "--out", str(tmp_path / "x.rmgm")])
        assert rc == 2
