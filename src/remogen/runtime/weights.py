"""Mapping between parameter dataclasses and named archive tensors.

Parameter objects are trees of frozen dataclasses whose leaves are float32
arrays; scalar fields (dims, ids, hyperparameters) are structural and come
from the config-built template, not the archive. Both directions are one
tensorcore.map_leaves walk, so a tensor's archive name is its dotted path in
the tree and the archive holds the tensors in walk order.
"""
from __future__ import annotations

from ..errors import ConfigError
from ..tensorcore import map_leaves


def flatten_params(prefix: str, obj) -> dict:
    """Collect every array leaf as {dotted.name: array}, in walk order."""
    out: dict = {}

    def collect(name, leaf):
        out[name] = leaf
        return leaf

    map_leaves(collect, obj, prefix)
    return out


def rebuild_params(prefix: str, template, tensors: dict):
    """Clone the template structure with array leaves replaced from `tensors`.

    The tensors are used as they are: a WeightArchive holds float32 C-order
    arrays. Raises ConfigError when a leaf is missing or has the wrong shape,
    which means the archive and the engine config disagree.
    """
    def load(name, leaf):
        if name not in tensors:
            raise ConfigError(f"archive is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != leaf.shape:
            raise ConfigError(f"tensor {name!r} has shape {arr.shape}, "
                              f"config expects {leaf.shape}")
        return arr

    return map_leaves(load, template, prefix)
