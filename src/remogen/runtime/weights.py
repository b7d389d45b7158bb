"""Mapping between parameter dataclasses and named archive tensors.

Parameter objects are trees of frozen dataclasses whose leaves are float32
arrays; scalar fields (dims, ids, hyperparameters) are structural and come
from the config-built template, not the archive.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigError
from ..tensorcore import F32


def flatten_params(prefix: str, obj) -> dict:
    """Collect every array leaf as {dotted.name: array}."""
    out: dict = {}
    _walk_collect(obj, prefix, out)
    return out


def _walk_collect(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, np.ndarray):
        out[prefix] = np.asarray(obj, dtype=F32, order="C")
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _walk_collect(getattr(obj, f.name), f"{prefix}.{f.name}", out)
        return
    if isinstance(obj, tuple):
        for i, item in enumerate(obj):
            _walk_collect(item, f"{prefix}.{i}", out)
        return
    if isinstance(obj, dict):
        for key in sorted(obj):
            _walk_collect(obj[key], f"{prefix}.{key}", out)
        return
    # ints, floats, strings, bools: structural, not stored


def rebuild_params(prefix: str, template, tensors: dict):
    """Clone the template structure with array leaves replaced from `tensors`.

    Raises ConfigError when a leaf is missing or has the wrong shape, which
    means the archive and the engine config disagree.
    """
    if isinstance(template, np.ndarray):
        if prefix not in tensors:
            raise ConfigError(f"archive is missing tensor {prefix!r}")
        arr = np.asarray(tensors[prefix], dtype=F32, order="C")
        if arr.shape != template.shape:
            raise ConfigError(f"tensor {prefix!r} has shape {arr.shape}, "
                              f"config expects {template.shape}")
        return arr
    if dataclasses.is_dataclass(template):
        kwargs = {}
        for f in dataclasses.fields(template):
            kwargs[f.name] = rebuild_params(f"{prefix}.{f.name}",
                                            getattr(template, f.name), tensors)
        return type(template)(**kwargs)
    if isinstance(template, tuple):
        return tuple(rebuild_params(f"{prefix}.{i}", item, tensors)
                     for i, item in enumerate(template))
    if isinstance(template, dict):
        return {key: rebuild_params(f"{prefix}.{key}", template[key], tensors)
                for key in sorted(template)}
    return template
