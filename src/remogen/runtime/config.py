"""Engine configuration (flat key=value text) and the NDJSON stream records."""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from ..errors import ConfigError, FormatError, NumericError
from ..motion import BODY22_PARENTS
from ..tensorcore import F32, F64

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
    fps: float = 10.0
    alpha: dict = field(default_factory=dict)
    fwsr: bool = False
    seed: int = 0
    joints: int = 22

    def __post_init__(self):
        if self.history_len < 1 or self.future_len < 1 or self.steps < 1:
            raise ConfigError("history_len, future_len and steps must be >= 1")
        if self.heads < 1 or self.width % self.heads != 0:
            raise ConfigError("heads must be >= 1 and divide width")
        if not self.injection_layers:
            raise ConfigError("injection_layers must name at least one denoiser block")
        if any(i < 0 or i >= self.n_blocks for i in self.injection_layers):
            raise ConfigError("injection layers must index denoiser blocks")
        scalars = (self.guidance_scale, self.beta_sens, self.fps)
        if not all(math.isfinite(v) for v in scalars):
            raise ConfigError("guidance_scale, beta_sens and fps must be finite")
        if self.beta_sens < 0 or self.fps <= 0:
            raise ConfigError("beta_sens >= 0 and fps > 0 required")
        check_alpha(self.alpha)
        if self.joints != len(BODY22_PARENTS):
            # The engine seeds its history from the 22-joint synthetic skeleton.
            raise ConfigError(f"joints must be {len(BODY22_PARENTS)} (the body22 "
                              f"skeleton), got {self.joints}")


def check_alpha(alpha: dict) -> None:
    """ConfigError unless every module weight is a finite real number (not a bool)."""
    bad = {k: v for k, v in alpha.items()
           if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)}
    if bad:
        raise ConfigError(f"alpha weights must be finite numbers, got {bad}")


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


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "0", "1", "on", "off"):
        raise ValueError(f"not a boolean: {value!r}")
    return value.lower() in ("true", "1", "on")


# A config value is parsed by the type its EngineConfig field is annotated with.
_FIELD_TYPES = get_type_hints(EngineConfig)
_PARSERS = {int: int, float: float, bool: _parse_bool, dict: parse_alpha,
            tuple: lambda value: tuple(int(v) for v in value.split(",") if v.strip())}


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
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[_FIELD_TYPES[key]](value)
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


def _is_json_number(value) -> bool:
    """A JSON number as json.loads returns it: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_record(line: str) -> StreamRecord:
    """One NDJSON line as a record; every malformed payload raises FormatError."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit limit;
        # RecursionError, arrays nested deeper than the decoder recurses.
        raise FormatError(f"record is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("record must be a JSON object")
    kind = obj.get("kind")
    if kind not in RECORD_KINDS:
        raise FormatError(f"unknown record kind {kind!r}")
    t = obj.get("t", 0)
    if isinstance(t, bool) or not isinstance(t, int):
        raise FormatError(f"record t must be an integer, got {type(t).__name__}")
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise FormatError("text payload must be a string")
    alpha = obj.get("alpha")
    if alpha is not None:
        if not isinstance(alpha, dict):
            raise FormatError("alpha payload must be an object")
        if not all(_is_json_number(v) for v in alpha.values()):
            raise FormatError("alpha weights must be numbers")
        try:
            alpha = {k: float(v) for k, v in alpha.items()}
        except OverflowError as exc:  # an integer past the float range
            raise FormatError(f"alpha weights must be finite: {exc}") from exc
        if not all(np.isfinite(v) for v in alpha.values()):
            raise FormatError("alpha weights must be finite")
    pose = obj.get("pose")
    if pose is not None:
        if not isinstance(pose, list):
            raise FormatError("pose must be a list of numbers")
        try:
            # A number past the float32 range casts to inf, which the
            # finiteness check below refuses; numpy's overflow warning
            # would only say the same thing first.
            with np.errstate(all="ignore"):
                pose = np.asarray(pose, dtype=F32)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"pose must be a list of numbers: {exc}") from exc
        if not np.isfinite(pose).all():
            raise FormatError("pose entries must be finite numbers")
    latency_ms = obj.get("latency_ms")
    if latency_ms is not None:
        if not _is_json_number(latency_ms):
            raise FormatError("latency_ms must be a number")
        try:
            latency_ms = float(latency_ms)
        except OverflowError as exc:
            raise FormatError("latency_ms must be a finite number") from exc
        if not math.isfinite(latency_ms):
            raise FormatError("latency_ms must be a finite number")
    return StreamRecord(t=t, kind=kind, pose=pose, text=text, alpha=alpha,
                        latency_ms=latency_ms)


def format_record(record: StreamRecord) -> str:
    """One compact JSON line; NumericError if a value is not finite, since a
    bare NaN or Infinity would not be JSON."""
    obj: dict = {"t": record.t, "kind": record.kind}
    if record.pose is not None:
        # The pose is float32, so v * 1e6 is exact in float64 and np.round
        # gives the doubles round(float(v), 6) gives, in one call.
        obj["pose"] = np.round(record.pose.astype(F64), 6).tolist()
    if record.text is not None:
        obj["text"] = record.text
    if record.alpha is not None:
        obj["alpha"] = record.alpha
    if record.latency_ms is not None:
        obj["latency_ms"] = round(record.latency_ms, 3)
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{record.kind} record t={record.t}: {exc}") from exc
