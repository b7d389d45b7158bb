"""Latency benchmark comparing the three inference paths on one config."""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from .codecs import WeightArchive
from .config import EngineConfig
from .engine import MODES, Engine


class LatencyRecorder:
    """Keeps the wall time of every call per named component via scoped timers.

    Scopes nest: a scope's time includes the scopes opened inside it. bench
    sets `frames` and `total` (seconds) once its run is over.
    """

    def __init__(self):
        self.durations: dict = {}  # component -> seconds of each call, in call order
        self.frames = 0
        self.total = 0.0

    @contextmanager
    def track(self, component: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(component, []).append(time.perf_counter() - start)


def bench(cfg: EngineConfig, archive: WeightArchive, n_frames: int = 1000) -> dict:
    """{mode: LatencyRecorder} over n_frames generated frames per mode.

    The clock starts once the mode's Engine is built, so construction is left
    out; work an engine does on first use is counted on the tick that does it.
    """
    results = {}
    for mode in MODES:
        recorder = LatencyRecorder()
        engine = Engine(archive, cfg, mode=mode, recorder=recorder)
        start = time.perf_counter()
        recorder.frames = len(engine.run_ticks(n_frames))
        recorder.total = time.perf_counter() - start
        results[mode] = recorder
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


def _per_frame(rec: LatencyRecorder) -> float:
    return rec.total / rec.frames if rec.frames else 0.0


def format_breakdown(name: str, rec: LatencyRecorder) -> str:
    lines = [f"[{name}] {rec.frames} frames, total {rec.total:.3f} s, "
             f"per frame {_per_frame(rec) * 1000:.3f} ms"]
    for key, label in _COMPONENT_ROWS:
        calls = rec.durations.get(key)
        if calls:
            total = sum(calls)
            p50, p95 = np.percentile(calls, [50, 95]) * 1000
            lines.append(f"  {label:<34} {total:.3f} s "
                         f"({total / len(calls) * 1000:.3f} ms x {len(calls)}; per call "
                         f"p50 {p50:.3f}, p95 {p95:.3f}, max {max(calls) * 1000:.3f} ms)")
    return "\n".join(lines)


def format_bench(results: dict) -> str:
    blocks = [format_breakdown(mode, rec) for mode, rec in results.items()]
    if "fwsr" in results and "slide" in results and _per_frame(results["fwsr"]) > 0:
        ratio = _per_frame(results["slide"]) / _per_frame(results["fwsr"])
        blocks.append(f"slide/fwsr per-frame ratio: {ratio:.2f}x")
    return "\n".join(blocks)
