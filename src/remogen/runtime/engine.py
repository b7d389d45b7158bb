"""The online generation engine: wires prior, adapters and refinement together.

The engine works in normalized feature space internally and denormalizes at
emission. One tick corresponds to one input frame of wall-clock time:

  segment mode  - buffer F ticks, then sample and emit a whole segment
  fwsr mode     - sample at the segment start, then refine and emit one
                  frame per tick, decoding only the frame it emits
  slide mode    - re-sample a full segment every tick, keep only frame 0
                  (the latency-heavy baseline)

In fwsr mode the engine holds the segment's refinement state itself: z0,
the boundary history projection, the sensitivity vector, the projected
decode history and the rolling history. Each history window the decoder
reads is projected through the decoder's history rows once
(prior.project_history): the boundary history on the boundary tick, shared
by the frame-0 decode and the sensitivity probe, and the decode history on
the first refinement tick. A refinement tick then multiplies only the
refined latent by the decoder's latent rows.

Text and composition-weight changes are queued and applied at the next
segment boundary, since one denoising pass is conditioned on a single text.
"""
from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..fwsr import (
    DynamicContext,
    FwsrParams,
    SensitivityVector,
    refine_latent,
    seeded_fwsr_params,
)
# Unused here, but perfbench/spans.py wraps this name in this module's
# namespace when tracing; dropping the import breaks `--trace 1`.
from ..prior import decode_batch  # noqa: F401
from ..metrics import LatencyRecorder
from ..mim import (
    MimParams,
    compose_deltas,
    encode_others,
    encode_scene,
    module_deltas,
    prepare_context,
    seeded_mim_params,
)
from ..motion import (
    FeatureLayout,
    HistoryWindow,
    Normalizer,
    RigidTransform,
    normalize,
    rest_history,
    rotation_about_axis,
    rotation_from_6d,
    update_history,
)
from ..prior import (
    DecoderHistory,
    HistoryProjection,
    PriorParams,
    ddpm_sample,
    decode_segment,
    decoder_sensitivity,
    denoiser_tokens,
    embed_text,
    null_embedding,
    predict_clean_latent,
    project_history,
    seeded_prior_params,
    segment_tokens,
)
from ..scene import VoxelGrid, extract_ego_voxels
from ..tensorcore import F32, SHAPE_ONLY, Rng, require_finite
from .codecs import WeightArchive
from .config import EngineConfig, check_alpha
from .weights import flatten_params, rebuild_params

MODULE_SOURCES = {"hhi": "others", "hsi": "scene"}
MODES = ("segment", "fwsr", "slide")


def _prior_params(cfg: EngineConfig, layout: FeatureLayout, rng: Rng) -> PriorParams:
    return seeded_prior_params(rng, feature_dim=layout.dim,
                               history_len=cfg.history_len, future_len=cfg.future_len,
                               latent_dim=cfg.latent_dim, text_dim=cfg.text_dim,
                               width=cfg.width, heads=cfg.heads, n_blocks=cfg.n_blocks,
                               ffn_hidden=cfg.ffn_hidden, vae_hidden=cfg.vae_hidden)


def _mim_params(cfg: EngineConfig, layout: FeatureLayout, module_id: str, source: str,
                rng: Rng) -> MimParams:
    return seeded_mim_params(module_id, source, rng, feature_dim=layout.dim,
                             width=cfg.width, heads=cfg.heads, ffn_hidden=cfg.ffn_hidden,
                             injection_layers=cfg.injection_layers, zero_gate=True)


def _fwsr_params(cfg: EngineConfig, layout: FeatureLayout, rng: Rng) -> FwsrParams:
    return seeded_fwsr_params(rng, feature_dim=layout.dim, latent_dim=cfg.latent_dim,
                              heads=cfg.heads, beta_sens=cfg.beta_sens, zero_film=True)


# Shape templates for rebuild_params come from the same builders run on a
# SHAPE_ONLY Rng: no draws, and no weight matrix is allocated.
_SHAPES = Rng(0, SHAPE_ONLY)


def init_weights(cfg: EngineConfig, seed: int) -> WeightArchive:
    """A fully seeded random archive with zero-gated adapters.

    Adapters start neutral, so the whole pipeline runs end to end without any
    training while leaving the prior's outputs untouched.
    """
    layout = FeatureLayout(cfg.joints)
    rng = Rng(seed)
    tensors: dict = {}
    tensors.update(flatten_params("prior", _prior_params(cfg, layout, rng.child("prior"))))
    for module_id, source in MODULE_SOURCES.items():
        mim = _mim_params(cfg, layout, module_id, source, rng.child("mim", module_id))
        tensors.update(flatten_params(f"mim.{module_id}", mim))
    tensors.update(flatten_params("fwsr", _fwsr_params(cfg, layout, rng.child("fwsr"))))
    tensors["norm.mean"] = np.zeros(layout.dim, dtype=F32)
    tensors["norm.std"] = np.ones(layout.dim, dtype=F32)
    return WeightArchive(tensors)


class Engine:
    """Stateful streaming generator over one weight archive and config."""

    def __init__(self, archive: WeightArchive, cfg: EngineConfig,
                 mode: Optional[str] = None,
                 recorder: Optional[LatencyRecorder] = None):
        self.cfg = cfg
        self.layout = FeatureLayout(cfg.joints)
        self.mode = mode or ("fwsr" if cfg.fwsr else "segment")
        if self.mode not in MODES:
            raise ConfigError(f"unknown inference mode {self.mode!r}")
        self.recorder = recorder

        names = archive.names()
        self.prior = rebuild_params("prior", _prior_params(cfg, self.layout, _SHAPES),
                                    archive.tensors)
        self.mims: dict = {}
        for module_id, source in MODULE_SOURCES.items():
            if any(n.startswith(f"mim.{module_id}.") for n in names):
                template = _mim_params(cfg, self.layout, module_id, source, _SHAPES)
                self.mims[module_id] = rebuild_params(f"mim.{module_id}", template,
                                                      archive.tensors)
        self.fwsr_params: Optional[FwsrParams] = None
        if any(n.startswith("fwsr.") for n in names):
            self.fwsr_params = rebuild_params("fwsr", _fwsr_params(cfg, self.layout, _SHAPES),
                                              archive.tensors)
        if self.mode == "fwsr" and self.fwsr_params is None:
            raise ConfigError("fwsr mode requested but the archive has no fwsr weights")
        self.normalizer = Normalizer(archive.get("norm.mean"), archive.get("norm.std"))

        self.canonical_to_world = RigidTransform.identity()
        self.scene_grid: Optional[VoxelGrid] = None
        self.gen = Rng(cfg.seed).generator("engine")

        self.text = ""
        self.alpha = self._checked_alpha(cfg.alpha)
        self._pending_text: Optional[str] = None
        self._pending_alpha: Optional[dict] = None

        seed_history = rest_history(cfg.history_len, self.layout, fps=cfg.fps)
        self.history = HistoryWindow(normalize(seed_history.frames, self.normalizer))
        self.dyn = DynamicContext(cfg.history_len, self.layout.dim)
        self.ticks = 0
        self.frames_emitted = 0
        # fwsr: the state of the segment being refined, set on its boundary tick
        self._z0: Optional[np.ndarray] = None
        self._boundary: Optional[HistoryProjection] = None
        self._sensitivity: Optional[SensitivityVector] = None
        self._decode_history: Optional[HistoryProjection] = None
        self._rolling: Optional[HistoryWindow] = None

    # -- state fed from outside ------------------------------------------------

    def set_scene(self, grid: Optional[VoxelGrid]) -> None:
        self.scene_grid = grid

    def set_text(self, text: str) -> None:
        if not isinstance(text, str):
            raise ConfigError(f"text must be a string, not {type(text).__name__}")
        self._pending_text = text

    def set_alpha(self, alpha: dict) -> None:
        self._pending_alpha = self._checked_alpha(alpha)

    def _checked_alpha(self, alpha: dict) -> dict:
        """A copy of alpha; ConfigError if it names a module the archive lacks
        or holds a weight that is not a finite number."""
        unknown = [k for k in alpha if k not in self.mims]
        if unknown:
            raise ConfigError(f"alpha names unknown modules {unknown}")
        check_alpha(alpha)
        return dict(alpha)

    def observe_ego(self, pose: np.ndarray) -> None:
        """Teacher-forced ego observation; slides the sampler history."""
        self.history = self.history.slide(self._normalized(pose, "ego pose"))

    def _normalized(self, pose: np.ndarray, what: str) -> np.ndarray:
        """pose as one normalized frame; a non-finite one raises NumericError
        before the caller changes any state."""
        frame = normalize(np.asarray(pose, dtype=F32).reshape(1, -1), self.normalizer)[0]
        return require_finite(frame, what)

    # -- internals ---------------------------------------------------------------

    def _track(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.track(name)

    def _apply_pending(self) -> None:
        if self._pending_text is not None:
            self.text = self._pending_text
            self._pending_text = None
        if self._pending_alpha is not None:
            self.alpha = self._pending_alpha
            self._pending_alpha = None

    def _ego_anchor(self) -> RigidTransform:
        """Floor-level yaw frame of the current ego root, in world coordinates."""
        frame = normalize(self.history.frames[-1:], self.normalizer, inverse=True)[0]
        root = frame[self.layout.span("root_translation")]
        rot6 = frame[self.layout.span("rotations_6d")][:6]
        r = rotation_from_6d(rot6)
        yaw = float(np.arctan2(r[1, 0], r[0, 0]))
        local = RigidTransform(rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw),
                               np.array([root[0], root[1], 0.0], dtype=np.float64))
        world = self.canonical_to_world
        return RigidTransform(world.rotation @ local.rotation,
                              world.rotation @ local.translation + world.translation)

    def _module_context(self, module_id: str):
        params = self.mims[module_id]
        if params.source == "others":
            window = self.dyn.window(0)
            if not len(window):
                window = np.zeros((1, self.layout.dim), dtype=F32)
            return encode_others(window, params.encoder)
        if self.scene_grid is None:
            return None
        block = extract_ego_voxels(self.scene_grid, self._ego_anchor())
        return encode_scene(block, params.encoder)

    def _prepared_contexts(self) -> dict:
        """{module id: prepared context} for each active module that has a context.

        Each context is encoded and prepared for its module's stacked blocks
        here, once per segment.
        """
        out = {}
        for mid in self.alpha:
            ctx = self._module_context(mid)
            if ctx is not None:
                out[mid] = prepare_context(ctx, self.mims[mid].stacked, self.prior.n_tokens)
        return out

    def _sample_z0(self) -> np.ndarray:
        """Sample the segment latent from the current history, text and modules.

        The (text, null) token rows that no step changes are embedded once
        per segment; each DDPM step then embeds only its latent and adds the
        cached time token. The modules read the null row, since their
        residuals carry no text and apply to both rows. perfbench/spans.py
        wraps ddpm_sample, denoiser_tokens and predict_clean_latent at this
        module's names, so they are called here under those names.
        """
        contexts = self._prepared_contexts()
        texts = (embed_text(self.text, self.prior.text_dim),
                 null_embedding(self.prior.text_dim))
        prefix = segment_tokens(self.prior, self.history, texts)

        def denoise(z_t, t):
            tokens = denoiser_tokens(self.prior, z_t, t, prefix)
            deltas = None
            if contexts:
                with self._track("mim"):
                    deltas = compose_deltas([module_deltas(tokens[1], c, self.mims[mid])
                                             for mid, c in contexts.items()], self.alpha)
            with self._track("denoiser"):
                return predict_clean_latent(self.prior, tokens, deltas)

        with self._track("denoise_total"):
            return ddpm_sample(denoise, self.prior.latent_dim, self.cfg.steps,
                               self.cfg.guidance_scale, self.gen)

    def _decode(self, history: DecoderHistory, z: np.ndarray, component: str = "decode",
                frames: slice = slice(None)):
        with self._track(component):
            return decode_segment(history, z, self.prior, fps=self.cfg.fps, frames=frames)

    def _emit(self, normalized_frame: np.ndarray) -> np.ndarray:
        self.frames_emitted += 1
        # A (D,) array of its own, not a row view that keeps a (1, D) base alive.
        return normalize(normalized_frame, self.normalizer, inverse=True)

    # -- the clock ----------------------------------------------------------------

    def tick(self, partner_frame: Optional[np.ndarray] = None) -> list:
        """Advance one input frame; returns denormalized ego frames emitted now."""
        with self._track("pre_post"):
            if partner_frame is not None:
                self.dyn.push(self._normalized(partner_frame, "partner frame"))
        phase = self.ticks % self.cfg.future_len
        self.ticks += 1

        if self.mode == "segment":
            if self.ticks % self.cfg.future_len != 0:
                return []
            self._apply_pending()
            self.dyn.mark_segment_start()
            z0 = self._sample_z0()
            segment = self._decode(self.history, z0)
            self.history = update_history(self.history, segment)
            return [self._emit(f) for f in segment.frames]

        if self.mode == "slide":
            self._apply_pending()
            self.dyn.mark_segment_start()
            z0 = self._sample_z0()
            segment = self._decode(self.history, z0)
            first = segment.frames[0]
            self.history = self.history.slide(first)
            return [self._emit(first)]

        # fwsr mode: sample z0 at the segment boundary, then refine it and
        # decode one frame per tick
        if phase == 0:
            self._apply_pending()
            self.dyn.mark_segment_start()
            self._z0 = self._sample_z0()
            # The frame-0 decode and the probe on tick 1 share this projection,
            # timed with the decode.
            with self._track("decode"):
                self._boundary = project_history(self.history, self.prior)
                frame = decode_segment(self._boundary, self._z0, self.prior, fps=self.cfg.fps,
                                       frames=slice(0, 1)).frames[0]
            self._rolling = self.history.slide(frame)
        else:
            if phase == 1:
                with self._track("sensitivity"):
                    self._sensitivity = SensitivityVector(
                        decoder_sensitivity(self._boundary, self._z0, self.prior))
            with self._track("fwsr_refine"):
                if phase == 1:
                    # Every refined frame decodes against the first updated history.
                    self._decode_history = project_history(self._rolling, self.prior)
                z = refine_latent(self._z0, self._rolling, self.dyn.window(phase),
                                  self._sensitivity, self.fwsr_params)
                frame = self._decode(self._decode_history, z, "fwsr_decode",
                                     slice(phase, phase + 1)).frames[0]
                self._rolling = self._rolling.slide(frame)
        if phase == self.cfg.future_len - 1:
            self.history = self._rolling
        return [self._emit(frame)]

    def run_ticks(self, n_frames: int, partner_frames: Optional[np.ndarray] = None) -> list:
        """Drive enough ticks to emit at least n_frames; returns emitted frames."""
        out: list = []
        i = 0
        while len(out) < n_frames:
            partner = None
            if partner_frames is not None and i < len(partner_frames):
                partner = partner_frames[i]
            out.extend(self.tick(partner))
            i += 1
        return out
