"""Command-line surface tests: happy paths and exit codes."""
import io
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from remogen.cli import main
from remogen.motion import FeatureLayout, MotionSegment, featurize, synthetic_sequence
from remogen.runtime import load_motion, load_voxels, save_motion


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

    def test_metrics_layout_mismatch_is_config_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.rmgm"
        ref = tmp_path / "ref.rmgm"
        save_motion(featurize(synthetic_sequence(16, seed=1)), pred, FeatureLayout())
        frames = np.zeros((16, FeatureLayout(10).dim), dtype=np.float32)
        save_motion(MotionSegment(frames), ref, FeatureLayout(10))
        assert main(["metrics", "--pred", str(pred), "--ref", str(ref)]) == 2
        assert "differs from ref layout" in capsys.readouterr().err

    def test_voxelize_needs_dims_or_resolution(self, tmp_path):
        pts = tmp_path / "p.xyz"
        pts.write_text("0 0 0\n")
        rc = main(["voxelize", "--points", str(pts),
                   "--bounds", "0", "0", "0", "1", "1", "1",
                   "--out", str(tmp_path / "v.rmgv")])
        assert rc == 2


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
