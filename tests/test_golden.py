"""Golden outputs: the engine's emitted frames, pinned bit for bit across versions.

Each engine case runs one inference mode for 16 frames on an archive whose
adapter gates and FWSR FiLM head are seeded non-zero, so the modules and the
refinement actually move the output. The stream case runs stream_run in fwsr
mode over a fixed NDJSON transcript with a text and an alpha record inside a
segment, and pins the emitted poses as they are written (latency stripped).
A change that alters any emitted bit fails here and has to say so and
regenerate the fixtures it changes, naming them (no name regenerates every
case); each rewrite prints the case's max abs change:

    PYTHONPATH=src python tests/test_golden.py --write [CASE ...]
"""
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from remogen.fwsr import seeded_fwsr_params
from remogen.motion import FeatureLayout, featurize, synthetic_sequence
from remogen.runtime import Engine, EngineConfig, WeightArchive, init_weights, stream_run
from remogen.scene import GridSpec, VoxelGrid
from remogen.tensorcore import Rng

GOLDEN_DIR = Path(__file__).parent / "golden"
FRAMES = 16
SEED = 7

# name -> (mode, alpha, with a scene grid)
CASES = {
    "fwsr_hhi": ("fwsr", {"hhi": 1.0}, False),
    "segment_hhi_hsi": ("segment", {"hhi": 0.5, "hsi": 0.5}, True),
    "slide_bare": ("slide", {}, False),
}
STREAM_CASE = "stream_fwsr_hhi"
STREAM_FRAMES = 24
# Records placed before the partner pose of the given index. Both land
# inside a segment (future_len 8), so each takes effect at the next boundary.
STREAM_EXTRAS = {
    4: {"kind": "text", "text": "step toward the partner"},
    13: {"kind": "alpha", "alpha": {"hhi": 0.5}},
}


def golden_archive(cfg: EngineConfig) -> WeightArchive:
    tensors = dict(init_weights(cfg, SEED).tensors)
    gen = Rng(SEED).generator("golden", "gates")
    for name in sorted(tensors):
        if name.startswith("mim.") and name.endswith(".gate"):
            tensors[name] = gen.uniform(0.05, 0.15, tensors[name].shape).astype(np.float32)
    tensors["fwsr.film_w"] = seeded_fwsr_params(
        Rng(SEED).child("golden", "fwsr"), feature_dim=FeatureLayout(cfg.joints).dim,
        latent_dim=cfg.latent_dim, heads=cfg.heads, beta_sens=cfg.beta_sens,
        zero_film=False).film_w
    return WeightArchive(tensors)


def small_grid() -> VoxelGrid:
    spec = GridSpec([-1.5, -1.5, 0.0], [1.5, 1.5, 1.5], (30, 30, 15))
    occ = Rng(SEED).generator("golden", "grid").uniform(size=spec.dims) < 0.3
    return VoxelGrid.from_bool_array(spec, occ)


def run_case(name: str) -> np.ndarray:
    mode, alpha, with_scene = CASES[name]
    cfg = EngineConfig(alpha=alpha, seed=SEED)
    engine = Engine(golden_archive(cfg), cfg, mode=mode)
    if with_scene:
        engine.set_scene(small_grid())
    engine.set_text("step toward the partner")
    partner = featurize(synthetic_sequence(FRAMES, seed=SEED)).frames
    return np.stack(engine.run_ticks(FRAMES, partner)[:FRAMES])


def stream_transcript() -> str:
    """The stream case's input: one partner pose per frame, poses rounded to
    6 decimals as a client writing JSON would send them, with the
    STREAM_EXTRAS records in between."""
    partner = featurize(synthetic_sequence(STREAM_FRAMES, seed=SEED)).frames
    lines = []
    for t, pose in enumerate(partner):
        if t in STREAM_EXTRAS:
            lines.append(json.dumps({"t": t, **STREAM_EXTRAS[t]}))
        lines.append(json.dumps({"t": t, "kind": "partner_pose",
                                 "pose": [round(float(v), 6) for v in pose]}))
    return "\n".join(lines) + "\n"


def run_stream_case() -> np.ndarray:
    cfg = EngineConfig(alpha={"hhi": 1.0}, seed=SEED, fwsr=True)
    sink, log = io.StringIO(), io.StringIO()
    skipped = stream_run(io.StringIO(stream_transcript()), sink, cfg,
                         golden_archive(cfg), log=log)
    assert skipped == 0, log.getvalue()
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    poses = [r for r in records if r["kind"] == "ego_pose"]
    assert [r["t"] for r in poses] == list(range(STREAM_FRAMES))
    assert records[-1] == {"t": STREAM_FRAMES, "kind": "end"}
    # Only latency_ms is not a function of the input; the poses are pinned as
    # the numbers written out.
    return np.array([r["pose"] for r in poses], dtype=np.float64)


def run_named(name: str) -> np.ndarray:
    return run_stream_case() if name == STREAM_CASE else run_case(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_matches_golden(name):
    expected = np.load(GOLDEN_DIR / f"{name}.npy")
    np.testing.assert_array_equal(run_case(name), expected)


def test_stream_transcript_matches_golden():
    expected = np.load(GOLDEN_DIR / f"{STREAM_CASE}.npy")
    np.testing.assert_array_equal(run_stream_case(), expected)


def write_cases(names) -> None:
    """Regenerate the named fixtures (all when none is named), printing how
    far each moved from the fixture it replaces."""
    known = sorted([*CASES, STREAM_CASE])
    unknown = sorted(set(names) - set(known))
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; known: {known}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(names or known):
        path = GOLDEN_DIR / f"{case}.npy"
        frames = run_named(case)
        if path.exists():
            old = np.load(path)
            change = (f"max abs change {np.max(np.abs(frames - old)):.3g}"
                      if old.shape == frames.shape else f"shape {old.shape} -> {frames.shape}")
        else:
            change = "new"
        np.save(path, frames)
        print(f"wrote {path} ({change})")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write [CASE ...]")
    write_cases(sys.argv[2:])
