"""Engine configuration (flat key=value text) and the NDJSON stream records."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ConfigError, FormatError
from ..prior import GenerationConfig
from ..tensorcore import F32

RECORD_KINDS = ("partner_pose", "text", "alpha", "ego_pose", "end")


@dataclass(frozen=True)
class EngineConfig:
    """Every runtime knob in one validated value object."""

    history_len: int = 2
    future_len: int = 8
    steps: int = 10
    guidance_scale: float = 2.0
    latent_dim: int = 64
    text_dim: int = 32
    width: int = 128
    heads: int = 4
    n_blocks: int = 4
    ffn_hidden: int = 256
    vae_hidden: int = 256
    injection_layers: tuple = (0, 1, 2, 3)
    beta_sens: float = 1.0
    h_step: float = 1e-3
    fps: float = 10.0
    alpha: dict = field(default_factory=dict)
    fwsr: bool = False
    seed: int = 0
    collision_radius: float = 0.05
    contact_radius: float = 0.1
    joints: int = 22

    def __post_init__(self):
        if self.history_len < 1 or self.future_len < 1 or self.steps < 1:
            raise ConfigError("history_len, future_len and steps must be >= 1")
        if self.width % self.heads != 0:
            raise ConfigError("width must be divisible by heads")
        if any(i < 0 or i >= self.n_blocks for i in self.injection_layers):
            raise ConfigError("injection layers must index denoiser blocks")
        if self.beta_sens < 0 or self.h_step <= 0 or self.fps <= 0:
            raise ConfigError("beta_sens >= 0, h_step > 0, fps > 0 required")
        if self.collision_radius <= 0 or self.contact_radius <= 0:
            raise ConfigError("radii must be positive")

    def generation(self, seed: Optional[int] = None) -> GenerationConfig:
        return GenerationConfig(history_len=self.history_len, future_len=self.future_len,
                                steps=self.steps, guidance_scale=self.guidance_scale,
                                seed=self.seed if seed is None else seed, fps=self.fps)


_INT_KEYS = {"history_len", "future_len", "steps", "latent_dim", "text_dim", "width",
             "heads", "n_blocks", "ffn_hidden", "vae_hidden", "seed", "joints"}
_FLOAT_KEYS = {"guidance_scale", "beta_sens", "h_step", "fps",
               "collision_radius", "contact_radius"}
_BOOL_KEYS = {"fwsr"}


def parse_alpha(text: str) -> dict:
    """Comma-separated module weights, e.g. "hhi=0.5,hsi=0.5"."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"alpha entry {part!r} is not id=weight")
        key, value = part.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"alpha weight {value!r} is not a number") from exc
    return out


def parse_config(text: str) -> EngineConfig:
    """Parse key = value lines; blank lines and # comments are skipped.

    Unknown keys are rejected so typos fail fast.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        known = {f.name for f in fields(EngineConfig)}
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false", "0", "1", "on", "off"):
                    raise ValueError(f"not a boolean: {value!r}")
                values[key] = value.lower() in ("true", "1", "on")
            elif key == "injection_layers":
                values[key] = tuple(int(v) for v in value.split(",") if v.strip())
            elif key == "alpha":
                values[key] = parse_alpha(value)
            else:
                raise ConfigError(f"line {lineno}: key {key!r} has no parser")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return EngineConfig(**values)


def load_config(path) -> EngineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class StreamRecord:
    """One NDJSON stream event; payload depends on kind."""

    t: int
    kind: str
    pose: Optional[np.ndarray] = None
    text: Optional[str] = None
    alpha: Optional[dict] = None
    latency_ms: Optional[float] = None

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise FormatError(f"unknown record kind {self.kind!r}")
        if self.kind in ("partner_pose", "ego_pose"):
            if self.pose is None:
                raise FormatError(f"{self.kind} record needs a pose payload")
            object.__setattr__(self, "pose", np.asarray(self.pose, dtype=F32).reshape(-1))
        if self.kind == "text" and self.text is None:
            raise FormatError("text record needs a text payload")
        if self.kind == "alpha" and not isinstance(self.alpha, dict):
            raise FormatError("alpha record needs an id->weight map")


def parse_record(line: str) -> StreamRecord:
    """One NDJSON line as a record; every malformed payload raises FormatError."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"record is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("record must be a JSON object")
    kind = obj.get("kind")
    if kind not in RECORD_KINDS:
        raise FormatError(f"unknown record kind {kind!r}")
    try:
        t = int(obj.get("t", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError("record t must be an integer") from exc
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise FormatError("text payload must be a string")
    alpha = obj.get("alpha")
    if alpha is not None:
        if not isinstance(alpha, dict):
            raise FormatError("alpha payload must be an object")
        try:
            alpha = {str(k): float(v) for k, v in alpha.items()}
        except (TypeError, ValueError) as exc:
            raise FormatError(f"alpha weights must be numbers: {exc}") from exc
        if not all(np.isfinite(v) for v in alpha.values()):
            raise FormatError("alpha weights must be finite")
    pose = obj.get("pose")
    if pose is not None:
        try:
            pose = np.asarray(pose, dtype=F32)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"pose must be a list of numbers: {exc}") from exc
        if not np.isfinite(pose).all():
            raise FormatError("pose entries must be finite numbers")
    return StreamRecord(t=t, kind=kind, pose=pose, text=text, alpha=alpha,
                        latency_ms=obj.get("latency_ms"))


def format_record(record: StreamRecord) -> str:
    obj: dict = {"t": record.t, "kind": record.kind}
    if record.pose is not None:
        obj["pose"] = [round(float(v), 6) for v in record.pose]
    if record.text is not None:
        obj["text"] = record.text
    if record.alpha is not None:
        obj["alpha"] = record.alpha
    if record.latency_ms is not None:
        obj["latency_ms"] = round(record.latency_ms, 3)
    return json.dumps(obj, separators=(",", ":"))
