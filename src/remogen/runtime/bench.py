"""Latency benchmark comparing the three inference paths on one config."""
from __future__ import annotations

from typing import Sequence

from ..metrics import LatencyBreakdown, latency_profile
from .codecs import WeightArchive
from .config import EngineConfig
from .engine import Engine


def bench(cfg: EngineConfig, archive: WeightArchive, n_frames: int = 1000,
          modes: Sequence[str] = ("segment", "fwsr", "slide")) -> dict:
    """Per-mode latency breakdowns over n_frames generated frames each."""
    results = {}
    for mode in modes:
        def run(recorder, n, _mode=mode):
            engine = Engine(archive, cfg, mode=_mode, recorder=recorder)
            return len(engine.run_ticks(n))

        results[mode] = latency_profile(run, n_frames)
    return results


_COMPONENT_ROWS = (
    ("denoise_total", "denoising total (cond + uncond)"),
    ("denoiser", "  denoiser"),
    ("mim", "  interaction modules"),
    ("decode", "decoding"),
    ("sensitivity", "sensitivity probe"),
    ("fwsr_refine", "frame refinement"),
    ("fwsr_decode", "  refinement decoding"),
    ("pre_post", "pre/post-processing"),
)


def format_breakdown(name: str, b: LatencyBreakdown) -> str:
    lines = [f"[{name}] {b.frames} frames, total {b.total:.3f} s, "
             f"per frame {b.per_frame * 1000:.3f} ms"]
    components, counts = b.components, b.counts
    for key, label in _COMPONENT_ROWS:
        if key in components:
            per = b.component_per_count(key)
            p50, p95, worst = (v * 1000 for v in b.component_tail(key))
            lines.append(f"  {label:<34} {components[key]:.3f} s "
                         f"({per * 1000:.3f} ms x {counts[key]}; per call "
                         f"p50 {p50:.3f}, p95 {p95:.3f}, max {worst:.3f} ms)")
    return "\n".join(lines)


def format_bench(results: dict) -> str:
    blocks = [format_breakdown(mode, b) for mode, b in results.items()]
    if "fwsr" in results and "slide" in results and results["fwsr"].per_frame > 0:
        ratio = results["slide"].per_frame / results["fwsr"].per_frame
        blocks.append(f"slide/fwsr per-frame ratio: {ratio:.2f}x")
    return "\n".join(blocks)
