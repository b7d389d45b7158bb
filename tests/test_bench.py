"""Bench tests: the recorder's scopes, the bench clock and the printed rows."""
import importlib
import inspect
import re
import time
import types

import numpy as np
import pytest

from remogen.runtime import EngineConfig, init_weights
from remogen.runtime.bench import (
    _COMPONENT_ROWS,
    LatencyRecorder,
    bench,
    format_breakdown,
    format_bench,
)
from remogen.runtime.engine import MODES, Engine

COMPACT_CFG = EngineConfig(latent_dim=16, text_dim=16, width=32, heads=2, n_blocks=2,
                           ffn_hidden=64, vae_hidden=64, injection_layers=(0, 1))
# Top-level phases: scopes that never open inside one another.
DISJOINT = ("denoise_total", "decode", "sensitivity", "fwsr_refine", "pre_post")


@pytest.fixture(scope="module")
def archive():
    return init_weights(COMPACT_CFG, 3)


def recorded(durations: dict, frames: int = 20, total: float = 1.0) -> LatencyRecorder:
    rec = LatencyRecorder()
    rec.durations = durations
    rec.frames, rec.total = frames, total
    return rec


class TestLatencyRecorder:
    def test_ordinary_scopes_nest(self):
        rec = LatencyRecorder()
        with rec.track("outer"):
            with rec.track("inner"):
                time.sleep(0.05)
        assert rec.durations["outer"][0] >= rec.durations["inner"][0] >= 0.05


class TestBenchClock:
    def test_zero_frames_empty_report(self, archive):
        results = bench(COMPACT_CFG, archive, n_frames=0)
        assert list(results) == list(MODES)
        for rec in results.values():
            assert rec.frames == 0 and rec.durations == {}
        out = format_bench(results).splitlines()
        assert len(out) == len(MODES)   # no component rows, no ratio
        assert all(line.endswith("per frame 0.000 ms") for line in out)

    def test_components_bounded_by_total(self, archive):
        for mode, rec in bench(COMPACT_CFG, archive, n_frames=16).items():
            assert rec.frames == 16
            assert len(rec.durations["pre_post"]) == 16   # one per tick
            phase_sum = sum(sum(rec.durations.get(k, ())) for k in DISJOINT)
            assert 0.0 < phase_sum <= rec.total * 1.1, mode

    def test_engine_construction_is_not_timed(self, archive, monkeypatch):
        """bench reads a fake clock that only Engine construction advances,
        by 0.2 s: a bench that timed construction would report the advance."""
        now = [0.0]
        bench_module = importlib.import_module("remogen.runtime.bench")
        monkeypatch.setattr(bench_module, "time",
                            types.SimpleNamespace(perf_counter=lambda: now[0]))
        real = Engine.__init__

        def slow_init(self, *args, **kwargs):
            now[0] += 0.2
            real(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "__init__", slow_init)
        for mode, rec in bench(COMPACT_CFG, archive, n_frames=8).items():
            assert rec.frames == 8
            assert rec.total < 0.2, mode


class TestFormatBench:
    def test_per_call_tail(self):
        calls = [0.0] * 18 + [0.02, 0.04]
        row = format_breakdown("segment", recorded({"denoiser": calls})).splitlines()[1]
        p50, p95 = np.percentile(calls, [50, 95]) * 1000
        assert p50 < 10 <= p95 <= 40
        assert row == (f"    {'denoiser':<32} 0.060 s (3.000 ms x 20; per call "
                       f"p50 {p50:.3f}, p95 {p95:.3f}, max 40.000 ms)")

    def test_absent_component_has_no_row(self):
        out = format_breakdown("fwsr", recorded({"decode": [0.001]}, frames=4, total=0.01))
        lines = out.splitlines()
        assert lines[0] == "[fwsr] 4 frames, total 0.010 s, per frame 2.500 ms"
        assert len(lines) == 2 and lines[1].startswith("  decoding ")
        assert "sensitivity probe" not in out

    def test_ratio_of_per_frame_means(self):
        results = {"fwsr": recorded({}, frames=10, total=0.01),
                   "slide": recorded({}, frames=5, total=0.02)}
        assert format_bench(results).splitlines()[-1] == "slide/fwsr per-frame ratio: 4.00x"


class TestComponentRows:
    def test_every_engine_scope_has_a_row(self):
        """The scopes Engine opens with self._track("...") are exactly the
        components `remogen bench` prints, so a new scope cannot drop out of it."""
        engine_module = importlib.import_module("remogen.runtime.engine")
        scopes = re.findall(r'self\._track\("([^"]+)"\)', inspect.getsource(engine_module))
        rows = [key for key, _ in _COMPONENT_ROWS]
        assert len(set(rows)) == len(rows)
        assert set(scopes) == set(rows)
