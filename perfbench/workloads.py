"""The benchmark's workloads, its weight archive and scene, and its seeded inputs.

Inputs come in episodes: one fresh engine fed EPISODE_FRAMES partner records
(open loop) or asked for EPISODE_FRAMES frames (closed loop). Each workload
has a pool of POOL episodes whose outputs are pinned by reference sketches in
reference/; a run's --seed picks the order in which it plays the pool.
"""
from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from remogen.fwsr import seeded_fwsr_params
from remogen.motion import FeatureLayout, featurize, synthetic_sequence
from remogen.runtime import (
    EngineConfig,
    WeightArchive,
    init_weights,
    save_archive,
    save_voxels,
)
from remogen.scene import VoxelGrid, room_grid_spec
from remogen.tensorcore import Rng

EPISODE_FRAMES = 64   # frames per episode; a text record opens each open-loop episode
CALL_FRAMES = 8       # frames per closed-loop Engine.run_ticks call: one segment
POOL = 16             # episodes per workload with committed reference sketches
WEIGHT_SEED = 7
GATE_RANGE = (0.05, 0.15)  # seeded per-channel adapter gates, mean 0.1
SCENE_SEED = 3

ARCHIVE_FILE = "weights.rmgw"
SCENE_FILE = "room.rmgv"

PROMPTS = (
    "shake hands", "wave hello", "step back", "walk forward", "turn left",
    "high five", "hug", "sit down", "point at the table", "dodge to the right",
    "bow", "follow the partner", "clap", "reach for the shelf", "nod", "stand still",
)


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str          # "open": records on a fixed schedule; "closed": one waiting caller
    rate_hz: float     # partner records per second in the open loop
    mode: str          # engine inference mode
    alpha: dict        # interaction module weights
    scene: bool        # whether a room_grid_spec() scene file is loaded
    why: str           # the one-line reason the workload exists
    untouched: str     # layers the workload is meant to leave unexercised

    def config(self, seed: int) -> EngineConfig:
        return EngineConfig(fwsr=self.mode == "fwsr", alpha=dict(self.alpha), seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="react_fwsr_hhi", loop="open", rate_hz=10.0, mode="fwsr", alpha={"hhi": 1.0},
        scene=False,
        why="north-star path: per-frame FWSR reaction to a partner at the model's 10 fps; "
            "the only workload that runs fwsr and the sensitivity probe",
        untouched="scene (no grid, no ego crop, no scene encoder)"),
    Workload(
        name="scene_segment_hhi_hsi", loop="open", rate_hz=20.0, mode="segment",
        alpha={"hhi": 0.5, "hsi": 0.5}, scene=True,
        why="the only workload that runs the scene layer (ego crop of a 12M-cell room "
            "grid, scene encoder) and composes two clamped modules",
        untouched="fwsr (segment mode: no refinement, no sensitivity probe)"),
    Workload(
        name="generate_segment_bare", loop="closed", rate_hz=0.0, mode="segment", alpha={},
        scene=False,
        why="the `remogen generate` path: Engine.run_ticks with no adapters, "
            "denoiser-bound, so prior and tensorcore work shows at full size",
        untouched="mim, scene, fwsr and the stream layer"),
)}


@dataclass(frozen=True)
class Episode:
    index: int
    seed: int                         # engine seed
    text: str
    partner: Optional[np.ndarray]     # (EPISODE_FRAMES, D) float32, open loop only


def episode(workload: Workload, index: int) -> Episode:
    """Pool episode `index` of a workload; a pure function of its arguments."""
    partner = None
    if workload.loop == "open":
        seed = zlib.crc32(f"{workload.name}/{index}".encode())
        partner = featurize(synthetic_sequence(EPISODE_FRAMES, seed=seed)).frames
    return Episode(index=index, seed=1000 + index, text=PROMPTS[index % len(PROMPTS)],
                   partner=partner)


def play_order(seed: int) -> list:
    """The order in which a run with this seed plays the pool; runs cycle through it."""
    return [int(i) for i in np.random.default_rng(seed % 2**64).permutation(POOL)]


def stream_lines(ep: Episode, withhold_partner: bool = False) -> list:
    """The episode as NDJSON input: a text record, then one partner_pose per frame.

    withhold_partner replaces every partner pose by zeros, which is how the
    output-check self-test feeds a run whose partner is missing.
    """
    lines = [json.dumps({"t": 0, "kind": "text", "text": ep.text})]
    for t, pose in enumerate(ep.partner):
        values = np.zeros_like(pose) if withhold_partner else pose
        lines.append(json.dumps({"t": t, "kind": "partner_pose",
                                 "pose": [round(float(v), 6) for v in values]},
                                separators=(",", ":")))
    return lines


def bench_archive() -> WeightArchive:
    """init_weights with seeded non-zero adapter gates and a non-zero FWSR FiLM head.

    init_weights is neutral: adapters are zero-gated and refinement returns z0
    unchanged, so a shortcut no trained model could use would look like a gain.
    """
    cfg = EngineConfig()
    tensors = dict(init_weights(cfg, WEIGHT_SEED).tensors)
    gen = Rng(WEIGHT_SEED).generator("perfbench", "gates")
    for name in sorted(tensors):
        if name.startswith("mim.") and name.endswith(".gate"):
            tensors[name] = gen.uniform(*GATE_RANGE, tensors[name].shape).astype(np.float32)
    film = seeded_fwsr_params(Rng(WEIGHT_SEED).child("fwsr"),
                              feature_dim=FeatureLayout(cfg.joints).dim,
                              latent_dim=cfg.latent_dim, heads=cfg.heads,
                              beta_sens=cfg.beta_sens, zero_film=False).film_w
    tensors["fwsr.film_w"] = film
    return WeightArchive(tensors)


def room_scene() -> VoxelGrid:
    """A furnished room on room_grid_spec(): walls, a table by the start pose, clutter."""
    spec = room_grid_spec()
    lo, size = spec.min_corner, spec.voxel_size
    occ = np.zeros(spec.dims, dtype=bool)

    def box(a, b):
        i0 = np.clip(np.floor((np.asarray(a) - lo) / size).astype(int), 0, spec.dims)
        i1 = np.clip(np.ceil((np.asarray(b) - lo) / size).astype(int), 0, spec.dims)
        occ[i0[0]:i1[0], i0[1]:i1[1], i0[2]:i1[2]] = True

    box([-3.0, -4.0, 0.0], [3.0, 4.0, 0.04])                  # floor
    for a, b in (([-3.0, -4.0, 0.0], [-2.9, 4.0, 2.0]), ([2.9, -4.0, 0.0], [3.0, 4.0, 2.0]),
                 ([-3.0, -4.0, 0.0], [3.0, -3.9, 2.0]), ([-3.0, 3.9, 0.0], [3.0, 4.0, 2.0])):
        box(a, b)                                             # walls
    box([0.3, -0.5, 0.70], [1.1, 0.4, 0.76])                  # table top within reach
    for x in (0.32, 1.05):
        for y in (-0.48, 0.35):
            box([x, y, 0.0], [x + 0.05, y + 0.05, 0.70])      # table legs
    box([-0.9, -0.2, 0.0], [-0.45, 0.25, 0.45])               # stool behind the start pose
    gen = Rng(SCENE_SEED).generator("perfbench", "clutter")
    for _ in range(40):
        x, y = gen.uniform([-2.7, -3.7], [2.7, 3.7])
        hx, hy = gen.uniform(0.1, 0.5, size=2)
        box([x - hx, y - hy, 0.0], [x + hx, y + hy, gen.uniform(0.2, 1.8)])
    return VoxelGrid.from_bool_array(spec, occ)


def build_assets(work: str) -> None:
    """Write the archive and scene into `work`, each by an atomic rename."""
    os.makedirs(work, exist_ok=True)
    for name, make, save in ((ARCHIVE_FILE, bench_archive, save_archive),
                             (SCENE_FILE, room_scene, save_voxels)):
        path = os.path.join(work, name)
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            save(make(), tmp)
            os.replace(tmp, path)
