"""Command-line surface.

Exit codes: 0 ok, 2 configuration or other input error, 3 file format error,
4 numeric error.
REMOGEN_SEED, when set, overrides the configured seed everywhere.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError, RemogenError
from .metrics import collision_pct, diversity, embed_windows, frechet_distance, peak_jerk
from .motion import FeatureLayout, joint_positions_from_features
from .runtime import (
    Engine,
    EngineConfig,
    bench,
    format_bench,
    init_weights,
    load_archive,
    load_config,
    load_motion,
    load_voxels,
    parse_alpha,
    save_archive,
    save_motion,
    save_voxels,
    stream_run,
)
from .scene import GridSpec, voxelize_points
from .motion import MotionSegment


def _seed_override(cfg: EngineConfig) -> EngineConfig:
    env = os.environ.get("REMOGEN_SEED")
    if env is None:
        return cfg
    try:
        return dataclasses.replace(cfg, seed=int(env))
    except ValueError as exc:
        raise ConfigError(f"REMOGEN_SEED must be an integer, got {env!r}") from exc


def _non_negative(value: int, flag: str) -> int:
    if value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value}")
    return value


def _cmd_init_weights(args) -> int:
    cfg = _seed_override(EngineConfig(seed=args.seed))
    save_archive(init_weights(cfg, cfg.seed), args.out)
    print(f"wrote seeded archive to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    segments = _non_negative(args.segments, "--segments")
    cfg = EngineConfig(seed=args.seed, fwsr=args.fwsr,
                       alpha=parse_alpha(args.alpha) if args.alpha else {})
    cfg = _seed_override(cfg)
    engine = Engine(load_archive(args.weights), cfg)
    if args.scene:
        engine.set_scene(load_voxels(args.scene))
    partner = None
    if args.partner:
        partner_seg, _ = load_motion(args.partner)
        partner = partner_seg.frames
    engine.set_text(args.text)
    frames = engine.run_ticks(segments * cfg.future_len, partner)
    stacked = np.stack(frames) if frames else np.zeros((0, engine.layout.dim), dtype=np.float32)
    segment = MotionSegment(stacked, fps=cfg.fps)
    save_motion(segment, args.out, FeatureLayout(cfg.joints))
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _cmd_stream(args) -> int:
    cfg = load_config(args.config) if args.config else EngineConfig()
    if args.fwsr:
        cfg = dataclasses.replace(cfg, fwsr=True)
    cfg = _seed_override(cfg)
    archive = load_archive(args.weights)
    scene = load_voxels(args.scene) if args.scene else None
    stream_run(sys.stdin, sys.stdout, cfg, archive, scene_grid=scene)
    return 0


def _load_frames(path: str):
    """load_motion, with a file that holds no frames a ConfigError and one
    that holds a non-finite value a NumericError."""
    segment, layout = load_motion(path)
    if not len(segment):
        raise ConfigError(f"{path} holds no frames")
    if not np.isfinite(segment.frames).all():
        raise NumericError(f"{path} holds non-finite frames")
    return segment, layout


def _cmd_metrics(args) -> int:
    pred_seg, layout = _load_frames(args.pred)
    ref_seg, ref_layout = _load_frames(args.ref)
    if ref_layout != layout:
        raise ConfigError(f"pred layout {layout.layout_id!r} differs from "
                          f"ref layout {ref_layout.layout_id!r}")
    pred_emb = embed_windows(pred_seg.frames)
    ref_emb = embed_windows(ref_seg.frames)
    report = {
        "fid": (frechet_distance(pred_emb, ref_emb)
                if len(pred_emb) > 1 and len(ref_emb) > 1 else None),
        "diversity_pred": diversity(pred_emb) if len(pred_emb) > 1 else None,
        "peak_jerk_pred": peak_jerk(joint_positions_from_features(pred_seg.frames, layout),
                                    pred_seg.fps) if len(pred_seg) >= 4 else None,
        "peak_jerk_ref": peak_jerk(joint_positions_from_features(ref_seg.frames, ref_layout),
                                   ref_seg.fps) if len(ref_seg) >= 4 else None,
    }
    if args.scene or args.partner:
        grid = load_voxels(args.scene) if args.scene else None
        partner_joints = None
        if args.partner:
            partner_seg, partner_layout = _load_frames(args.partner)
            partner_joints = joint_positions_from_features(partner_seg.frames, partner_layout)
        report["collision_pct"] = collision_pct(
            joint_positions_from_features(pred_seg.frames, layout),
            grid=grid, partner_joints=partner_joints)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_bench(args) -> int:
    n_frames = _non_negative(args.frames, "--frames")
    cfg = _seed_override(load_config(args.config) if args.config else EngineConfig())
    archive = load_archive(args.weights)
    results = bench(cfg, archive, n_frames=n_frames)
    print(format_bench(results))
    return 0


def _read_points(path: str) -> list:
    """x y z rows of a points file; a line with fewer than three fields is
    skipped, and one whose first three are not finite numbers is a
    FormatError."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            parts = line.split()
            if len(parts) < 3:
                continue
            try:
                xyz = [float(v) for v in parts[:3]]
            except ValueError:
                xyz = None
            if xyz is None or not np.all(np.isfinite(xyz)):
                raise FormatError(f"{path} line {number}: {' '.join(parts[:3])!r} is not "
                                  f"three finite coordinates")
            points.append(xyz)
    return points


def _cmd_voxelize(args) -> int:
    points = _read_points(args.points)
    bounds = args.bounds
    if args.dims:
        spec = GridSpec(bounds[:3], bounds[3:], tuple(args.dims))
    elif args.resolution is not None:
        if not args.resolution > 0:
            raise ConfigError(f"--resolution must be > 0, got {args.resolution}")
        spec = GridSpec.from_resolution(bounds[:3], bounds[3:], args.resolution)
    else:
        raise ConfigError("voxelize needs --dims or --resolution")
    grid = voxelize_points(np.asarray(points, dtype=np.float64), spec)
    save_voxels(grid, args.out)
    print(f"wrote {grid.occupied_count()} occupied cells to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remogen",
                                     description="real-time reaction motion generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-weights", help="materialize a seeded random archive")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_init_weights)

    p = sub.add_parser("generate", help="offline rollout to a motion file")
    p.add_argument("--weights", required=True)
    p.add_argument("--text", default="")
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--scene")
    p.add_argument("--partner")
    p.add_argument("--alpha", help="module weights, e.g. hhi=0.5,hsi=0.5")
    p.add_argument("--fwsr", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stream", help="NDJSON records on stdin/stdout")
    p.add_argument("--weights", required=True)
    p.add_argument("--config")
    p.add_argument("--scene")
    p.add_argument("--fwsr", action="store_true")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("metrics", help="evaluate a prediction against a reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--scene")
    p.add_argument("--partner")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bench", help="latency breakdown over generated frames")
    p.add_argument("--weights", required=True)
    p.add_argument("--frames", type=int, default=1000)
    p.add_argument("--config", help="engine config file, as for stream (e.g. with alpha)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("voxelize", help="point samples to a voxel occupancy file")
    p.add_argument("--points", required=True)
    p.add_argument("--bounds", required=True, nargs=6, type=float,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"))
    p.add_argument("--dims", nargs=3, type=int, metavar=("NX", "NY", "NZ"))
    p.add_argument("--resolution", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_voxelize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except RemogenError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
