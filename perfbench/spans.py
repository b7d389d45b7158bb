"""Span tracing for the traced run, from outside the program.

Installing a Tracer replaces public functions at the names the engine, the
stream loop and the library modules call them by with wrappers that record
one span per call: id, parent span, name, start, end and a note computed
from the arguments or result. Spans stay in memory and are written out when
the run ends. Only the traced run imports this module.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). The engine imports these by name, so they
# are wrapped where the engine looks them up; prior.denoiser_tokens is also
# wrapped where predict_clean_latent looks it up.
PROGRAM_POINTS = (
    ("remogen.runtime.engine", "ddpm_sample", "prior.sample"),
    ("remogen.runtime.engine", "predict_clean_latent", "prior.denoiser"),
    ("remogen.runtime.engine", "denoiser_tokens", "prior.token_embed"),
    ("remogen.prior", "denoiser_tokens", "prior.token_embed"),
    ("remogen.runtime.engine", "decode_segment", "prior.decode"),
    ("remogen.runtime.engine", "decode_batch", "prior.probe"),
    ("remogen.runtime.engine", "module_deltas", "mim.module_deltas"),
    ("remogen.runtime.engine", "compose_deltas", "mim.compose"),
    ("remogen.runtime.engine", "encode_others", "mim.encode_others"),
    ("remogen.runtime.engine", "encode_scene", "mim.encode_scene"),
    ("remogen.runtime.engine", "extract_ego_voxels", "scene.ego_crop"),
    ("remogen.runtime.engine", "refine_latent", "fwsr.refine"),
    ("remogen.runtime.engine", "normalize", "motion.normalize"),
    ("remogen.runtime.stream", "parse_record", "stream.parse"),
    ("remogen.runtime.stream", "format_record", "stream.format"),
)

# tensorcore kernels, wrapped in every library module that imports them.
# matmul is linear without the bias, so both count as "linear".
KERNEL_MODULES = ("remogen.prior", "remogen.mim", "remogen.fwsr")
KERNELS = {"mha_forward": "tensorcore.mha", "ffn_forward": "tensorcore.ffn",
           "linear": "tensorcore.linear", "matmul": "tensorcore.linear",
           "layer_norm": "tensorcore.layer_norm"}


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "note")


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _mflop(name: str, args: tuple) -> float:
    """Multiply-add work of a kernel call from its argument shapes, in MFLOP."""
    if name in ("linear", "matmul"):
        w = np.shape(args[1])
        return 2.0 * _rows(args[0]) * w[0] * w[1] / 1e6
    if name == "ffn_forward":
        p = args[1]
        return 2.0 * _rows(args[0]) * (p.w1.size + p.w2.size) / 1e6
    if name == "mha_forward":
        q_in, kv_in, p = args[0], args[1], args[2]
        t_q, t_kv, width = np.shape(q_in)[0], np.shape(kv_in)[0], p.width
        proj = t_q * p.w_q.size + t_kv * (p.w_k.size + p.w_v.size) + t_q * p.w_o.size
        return 2.0 * (proj + 2 * t_q * t_kv * width) / 1e6
    return 0.0


def _note(attr: str, args: tuple, result):
    if attr in ("mha_forward", "ffn_forward", "linear", "matmul"):
        return _mflop(attr, args)
    if attr == "decode_batch":
        return int(np.shape(args[1])[0])
    if attr == "extract_ego_voxels":
        return float(np.mean(result.occupancy))
    return None


class Tracer:
    """Records spans around wrapped calls; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []   # tuples in SPAN_FIELDS order
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def _wrap(self, name: str, attr: str, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append((sid, parent, name, start, end, _note(attr, args, result)))
            return result

        return traced

    def install(self) -> None:
        from remogen.runtime.engine import Engine

        points = list(PROGRAM_POINTS)
        for module in KERNEL_MODULES:
            mod = importlib.import_module(module)
            points += [(module, attr, span) for attr, span in KERNELS.items()
                       if hasattr(mod, attr)]
        for module, attr, span in points:
            target = importlib.import_module(module)
            self._patch(target, attr, span)
        self._patch(Engine, "tick", "engine.tick")

    def _patch(self, target, attr: str, span: str) -> None:
        original = getattr(target, attr)
        self._saved.append((target, attr, original))
        setattr(target, attr, self._wrap(span, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """NDJSON: a header naming the run and the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, frames: int, steps_per_segment: int) -> dict:
    """Per-layer metrics {name: (value, unit)} from one traced pass that emitted `frames` poses."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    samplers = set()
    for sid, parent, name, start, end, note in spans:
        by_name[name].append((sid, start, end, note))
        child_time[parent] += end - start
        if name == "prior.sample":
            samplers.add(parent)

    def durs(name):
        return np.array([e - s for _, s, e, _ in by_name[name]])

    def mean_ms(name):
        d = durs(name)
        return float(d.mean() * 1e3) if d.size else 0.0

    def count(name):
        return len(by_name[name])

    def per(n, base):
        return n / base if base else 0.0

    segments = count("prior.sample")
    steps = segments * steps_per_segment
    ticks = sorted(by_name["engine.tick"], key=lambda s: s[1])
    boundary = [(e - s) * 1e3 for sid, s, e, _ in ticks if sid in samplers]
    inner = [(e - s) * 1e3 for sid, s, e, _ in ticks if sid not in samplers]
    tick_self = sum((e - s) - child_time[sid] for sid, s, e, _ in ticks)
    sample_self = [(e - s) - child_time[sid] for sid, s, e, _ in by_name["prior.sample"]]
    crops = [note for *_, note in by_name["scene.ego_crop"]]
    mflop = sum(note or 0.0 for name in set(KERNELS.values()) for *_, note in by_name[name])

    def med(values):
        return float(np.median(values)) if len(values) else 0.0

    return {
        "stream.parse_us_per_record": (mean_ms("stream.parse") * 1e3, "us"),
        "stream.format_us_per_pose": (mean_ms("stream.format") * 1e3, "us"),
        "engine.tick_ms_boundary_p50": (med(boundary), "ms"),
        "engine.tick_ms_inner_p50": (med(inner), "ms"),
        "engine.tick_self_ms_per_frame": (per(tick_self * 1e3, frames), "ms"),
        "prior.sample_ms": (mean_ms("prior.sample"), "ms"),
        "prior.sample_self_ms": (float(np.mean(sample_self) * 1e3) if sample_self else 0.0,
                                 "ms"),
        "prior.denoiser_ms": (mean_ms("prior.denoiser"), "ms"),
        "prior.denoiser_calls_per_segment": (per(count("prior.denoiser"), segments), "count"),
        "prior.token_embeds_per_step": (per(count("prior.token_embed"), steps), "count"),
        "prior.decode_ms": (mean_ms("prior.decode"), "ms"),
        "prior.decode_calls_per_frame": (per(count("prior.decode"), frames), "count"),
        "prior.probe_ms": (mean_ms("prior.probe"), "ms"),
        "prior.probe_rows_per_segment": (
            per(sum(n for *_, n in by_name["prior.probe"]), segments), "count"),
        "mim.module_deltas_ms": (mean_ms("mim.module_deltas"), "ms"),
        "mim.module_calls_per_step": (per(count("mim.module_deltas"), steps), "count"),
        "mim.compose_ms": (mean_ms("mim.compose"), "ms"),
        "mim.encode_others_ms": (mean_ms("mim.encode_others"), "ms"),
        "mim.encode_scene_ms": (mean_ms("mim.encode_scene"), "ms"),
        "scene.ego_crop_ms": (mean_ms("scene.ego_crop"), "ms"),
        "scene.ego_crop_calls_per_segment": (per(count("scene.ego_crop"), segments), "count"),
        "fwsr.refine_ms": (mean_ms("fwsr.refine"), "ms"),
        "fwsr.refine_calls_per_segment": (per(count("fwsr.refine"), segments), "count"),
        "motion.normalize_calls_per_frame": (per(count("motion.normalize"), frames), "count"),
        "motion.normalize_us": (mean_ms("motion.normalize") * 1e3, "us"),
        "tensorcore.mha_ms_per_frame": (per(durs("tensorcore.mha").sum() * 1e3, frames), "ms"),
        "tensorcore.ffn_ms_per_frame": (per(durs("tensorcore.ffn").sum() * 1e3, frames), "ms"),
        "tensorcore.linear_ms_per_frame": (
            per(durs("tensorcore.linear").sum() * 1e3, frames), "ms"),
        "tensorcore.layer_norm_ms_per_frame": (
            per(durs("tensorcore.layer_norm").sum() * 1e3, frames), "ms"),
        "tensorcore.mha_calls_per_frame": (per(count("tensorcore.mha"), frames), "count"),
        "tensorcore.mflop_per_frame": (per(mflop, frames), "MFLOP"),
        "traffic.boundary_tick_share": (per(len(boundary), len(ticks)), "share"),
        "traffic.ego_crop_occupied_frac": (float(np.mean(crops)) if crops else 0.0, "share"),
    }
