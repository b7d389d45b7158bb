"""Multi-head attention with both contractions as np.einsum.

mha_forward once contracted QK^T and the softmax-weighted mix of V with
np.einsum, which runs numpy's own C loop. It now runs both as batched BLAS
products on head-major views. The einsum formula lives here as the reference
mha_forward is held to within one float32 ulp. Its weight products
accumulate in acc, as mha_forward's do.
"""
import numpy as np

F32 = np.float32
F64 = np.float64


def _heads(x, w, p, acc):
    y = (np.asarray(x, dtype=acc) @ np.asarray(w, dtype=acc)).astype(F64)
    return y.reshape(*y.shape[:-1], p.heads, p.width // p.heads)


def reference_mha(q_in, kv_in, p, bias=None, acc=F64):
    """mha_forward of q_in attending to the tokens kv_in, with separate Q/K/V
    projections and einsum contractions."""
    q = _heads(q_in, p.w_q, p, acc)
    k, v = _heads(kv_in, p.w_k, p, acc), _heads(kv_in, p.w_v, p, acc)
    logits = np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(p.width // p.heads)
    if bias is not None:
        logits = logits + bias
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = np.einsum("...hqk,...khd->...qhd", weights, v)
    mixed = mixed.reshape(*mixed.shape[:-2], p.width)
    return (mixed.astype(acc) @ np.asarray(p.w_o, dtype=acc)).astype(F32)
