"""The online generation engine: wires prior, adapters and refinement together.

The engine works in normalized feature space internally and denormalizes at
emission. One tick corresponds to one input frame of wall-clock time:

  segment mode  - buffer F ticks, then sample and emit a whole segment
  fwsr mode     - sample at the segment start, then refine and emit one
                  frame per tick, decoding only the frame it emits
  slide mode    - re-sample a full segment every tick, keep only frame 0
                  (the latency-heavy baseline)

Every mode starts a segment the same way (Engine._start_segment): sample
z0, project the history through the decoder's history rows once
(prior.project_history, (1, vae_hidden) float64 rows) and decode the frames
it needs from those rows. fwsr's probe shares those rows with the frame-0
decode, and a refinement tick multiplies only the refined latent by the
decoder's latent rows.

While sampling, each DDPM step composes the active modules' (L, T, width)
residual stacks into one and hands its row k to the denoiser as the residual
of block sorted(blocks)[k]; every module's blocks come from one
cfg.injection_layers.

The engine keeps one window per stream of frames, each a float32 array of
normalized frames, oldest first: the ego history, (H, D), which slides by
every frame a mode emits and every pose observe_ego is given, and the
partner window, the last history_len partner frames, (n, D) with n <= H.
Both slide by one rule (Engine._slide). Sampling, decoding and refinement
read them as they stand on their tick.

Text and composition weights are read only at a segment start, so a change
takes effect at the next one: one denoising pass has a single text.

All a tick changes is one immutable EngineState, Engine.state, assigned
as the tick returns: a tick that raises (on a non-finite decoded frame,
say) leaves the engine as it was, so a caller may skip it and go on. A tick
and observe_ego run with numpy's floating-point reports off: a non-finite
value is reported once, by the NumericError of a finiteness check.
"""
from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from ..errors import ConfigError
from ..fwsr import FwsrParams, refine_latent, seeded_fwsr_params
# Unused here, but perfbench/spans.py wraps this name in this module's
# namespace when tracing; dropping the import breaks `--trace 1`.
from ..prior import decode_batch  # noqa: F401
from ..mim import (
    compose_deltas,
    encode_others,
    encode_scene,
    module_deltas,
    prepare_context,
    seeded_mim_params,
)
from ..motion import (
    FeatureLayout,
    Normalizer,
    RigidTransform,
    normalize,
    rest_history,
    rotation_about_axis,
    rotation_from_6d,
)
from ..prior import (
    PriorParams,
    ddpm_sample,
    decode_segment,
    decoder_sensitivity,
    denoiser_tokens,
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

if TYPE_CHECKING:
    from .bench import LatencyRecorder

MODULE_SOURCES = {"hhi": "others", "hsi": "scene"}
MODES = ("segment", "fwsr", "slide")


def _parts(cfg: EngineConfig, layout: FeatureLayout, rng: Rng) -> dict:
    """{archive prefix: params} of every part in archive order, part p seeded
    from rng.child(*p.split("."))."""
    parts = {"prior": seeded_prior_params(
        rng.child("prior"), feature_dim=layout.dim, history_len=cfg.history_len,
        future_len=cfg.future_len, latent_dim=cfg.latent_dim, text_dim=cfg.text_dim,
        width=cfg.width, heads=cfg.heads, n_blocks=cfg.n_blocks,
        ffn_hidden=cfg.ffn_hidden, vae_hidden=cfg.vae_hidden)}
    for module_id, source in MODULE_SOURCES.items():
        parts[f"mim.{module_id}"] = seeded_mim_params(
            module_id, source, rng.child("mim", module_id), feature_dim=layout.dim,
            width=cfg.width, heads=cfg.heads, ffn_hidden=cfg.ffn_hidden,
            injection_layers=cfg.injection_layers)
    parts["fwsr"] = seeded_fwsr_params(rng.child("fwsr"), feature_dim=layout.dim,
                                       latent_dim=cfg.latent_dim, heads=cfg.heads,
                                       beta_sens=cfg.beta_sens, zero_film=True)
    return parts


# Shape templates for rebuild_params come from the same builders run on a
# SHAPE_ONLY Rng: no draws, and no weight matrix is allocated.
_SHAPES = Rng(0, SHAPE_ONLY)


def init_weights(cfg: EngineConfig, seed: int) -> WeightArchive:
    """A fully seeded random archive with zero-gated adapters.

    Adapters start neutral, so the whole pipeline runs end to end without any
    training while leaving the prior's outputs untouched.
    """
    layout = FeatureLayout(cfg.joints)
    tensors: dict = {}
    for prefix, params in _parts(cfg, layout, Rng(seed)).items():
        tensors.update(flatten_params(prefix, params))
    tensors["norm.mean"] = np.zeros(layout.dim, dtype=F32)
    tensors["norm.std"] = np.ones(layout.dim, dtype=F32)
    return WeightArchive(tensors)


class EngineState(NamedTuple):
    """Everything a tick changes, replaced whole and never changed in place.

    A segment start sets z0 and boundary (project_history rows); fwsr sets
    sensitivity and decode_history on the first refinement tick. rng is the
    engine's Philox bit_generator.state.
    """

    ticks: int
    history: np.ndarray
    partner_window: np.ndarray
    z0: Optional[np.ndarray]
    boundary: Optional[np.ndarray]
    sensitivity: Optional[np.ndarray]
    decode_history: Optional[np.ndarray]
    rng: dict
    text: str
    alpha: dict


class Engine:
    """Stateful streaming generator over one weight archive and config.

    engine.state is a snapshot, `engine.state = saved` restores it, and
    copy.copy(engine) forks the engine. A fork shares the cfg, params,
    normalizer, scene grid and recorder; set_scene on one rebinds its own.
    """

    def __init__(self, archive: WeightArchive, cfg: EngineConfig,
                 mode: Optional[str] = None,
                 recorder: Optional[LatencyRecorder] = None):
        self.cfg = cfg
        self.layout = FeatureLayout(cfg.joints)
        self.mode = mode or ("fwsr" if cfg.fwsr else "segment")
        if self.mode not in MODES:
            raise ConfigError(f"unknown inference mode {self.mode!r}")
        self.recorder = recorder

        # The prior is required; a module or the refiner loads if the archive has it.
        names = archive.names()
        params = {prefix: rebuild_params(prefix, template, archive.tensors)
                  for prefix, template in _parts(cfg, self.layout, _SHAPES).items()
                  if prefix == "prior" or any(n.startswith(f"{prefix}.") for n in names)}
        self.prior: PriorParams = params["prior"]
        self.mims = {mid: params[f"mim.{mid}"] for mid in MODULE_SOURCES if f"mim.{mid}" in params}
        self.fwsr_params: Optional[FwsrParams] = params.get("fwsr")
        if self.mode == "fwsr" and self.fwsr_params is None:
            raise ConfigError("fwsr mode requested but the archive has no fwsr weights")
        self.normalizer = Normalizer(*(require_finite(archive.get(name), name)
                                       for name in ("norm.mean", "norm.std")))

        self.scene_grid: Optional[VoxelGrid] = None
        self.state = EngineState(
            ticks=0,
            history=normalize(rest_history(cfg.history_len, self.layout), self.normalizer),
            partner_window=np.zeros((0, self.layout.dim), dtype=F32),
            z0=None, boundary=None, sensitivity=None, decode_history=None,
            rng=Rng(cfg.seed).generator("engine").bit_generator.state,
            text="", alpha=self._checked_alpha(cfg.alpha))

    # -- state fed from outside ------------------------------------------------

    def set_scene(self, grid: Optional[VoxelGrid]) -> None:
        if grid is not None and not isinstance(grid, VoxelGrid):
            raise ConfigError(f"scene must be a VoxelGrid or None, not {type(grid).__name__}")
        self.scene_grid = grid

    def set_text(self, text: str) -> None:
        if not isinstance(text, str):
            raise ConfigError(f"text must be a string, not {type(text).__name__}")
        self.state = self.state._replace(text=text)

    def set_alpha(self, alpha: dict) -> None:
        self.state = self.state._replace(alpha=self._checked_alpha(alpha))

    def _checked_alpha(self, alpha: dict) -> dict:
        """A copy of alpha; ConfigError if it names a module the archive lacks
        or holds a weight that is not a finite number."""
        unknown = [k for k in alpha if k not in self.mims]
        if unknown:
            raise ConfigError(f"alpha names unknown modules {unknown}")
        check_alpha(alpha)
        return dict(alpha)

    def observe_ego(self, pose: np.ndarray) -> None:
        """Teacher-forced ego observation, in every mode the newest history row.

        The next segment start samples from it. In fwsr mode the refiner
        reads it from the next tick on; the decode history projected on a
        segment's tick 1 stays fixed for the rest of that segment.
        """
        # Reports off as in tick: the finiteness check names a non-finite pose.
        with np.errstate(all="ignore"):
            history = self._slide(self.state.history, self._normalized(pose, "ego pose"))
        self.state = self.state._replace(history=history)

    def _slide(self, window: np.ndarray, frames: np.ndarray) -> np.ndarray:
        """window followed by one (D,) frame or (n, D) frames, cut to its
        last history_len rows: the one rule both frame windows slide by."""
        return np.vstack([window, frames])[-self.cfg.history_len:]

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

    def _ego_anchor(self, history: np.ndarray) -> RigidTransform:
        """Floor-level yaw frame of the newest ego root, in world coordinates."""
        frame = normalize(history[-1:], self.normalizer, inverse=True)[0]
        root = frame[self.layout.span("root_translation")]
        rot6 = frame[self.layout.span("rotations_6d")][:6]
        r = rotation_from_6d(rot6)
        yaw = float(np.arctan2(r[1, 0], r[0, 0]))
        return RigidTransform(rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw),
                              np.array([root[0], root[1], 0.0], dtype=np.float64))

    def _module_context(self, module_id: str, s: EngineState):
        params = self.mims[module_id]
        if params.source == "others":
            window = s.partner_window
            if not len(window):
                window = np.zeros((1, self.layout.dim), dtype=F32)
            return encode_others(window, params.encoder)
        if self.scene_grid is None:
            return None
        block = extract_ego_voxels(self.scene_grid, self._ego_anchor(s.history))
        return encode_scene(block, params.encoder)

    def _prepared_contexts(self, s: EngineState) -> dict:
        """{module id: prepared context} for each active module that has a context.

        Each context is encoded and prepared for its module's stacked blocks
        here, once per segment.
        """
        out = {}
        for mid in s.alpha:
            ctx = self._module_context(mid, s)
            if ctx is not None:
                out[mid] = prepare_context(ctx, self.mims[mid].stacked, self.prior.n_tokens)
        return out

    def _sample_z0(self, s: EngineState) -> tuple:
        """(z0, generator state after its draws): the segment latent sampled
        from s's history, text and modules, with noise from s.rng on.

        The (text, null) token rows that no step changes are embedded once
        per segment; each DDPM step then embeds only its latent and adds the
        cached time token. The modules read the null row, since their
        residuals carry no text and apply to both rows. perfbench/spans.py
        wraps ddpm_sample, denoiser_tokens and predict_clean_latent at this
        module's names, so they are called here under those names.
        """
        contexts = self._prepared_contexts(s)
        weights = [float(s.alpha[mid]) for mid in contexts]
        layers = sorted(self.mims[next(iter(contexts))].blocks) if contexts else []
        prefix = segment_tokens(self.prior, s.history, s.text)

        def denoise(z_t, t):
            tokens = denoiser_tokens(self.prior, z_t, t, prefix)
            residuals = None
            if contexts:
                with self._track("mim"):
                    stack = compose_deltas([module_deltas(tokens[1], c, self.mims[mid])
                                            for mid, c in contexts.items()], weights)
                    residuals = dict(zip(layers, stack))
            with self._track("denoiser"):
                return predict_clean_latent(self.prior, tokens, residuals)

        gen = Rng(self.cfg.seed).generator("engine")
        gen.bit_generator.state = s.rng
        with self._track("denoise_total"):
            z0 = ddpm_sample(denoise, self.prior.latent_dim, self.cfg.steps,
                             self.cfg.guidance_scale, gen)
        return z0, gen.bit_generator.state

    def _start_segment(self, s: EngineState, frames: slice) -> tuple:
        """The segment start every mode makes: sample z0, then project the
        history once and decode `frames` of the segment from that projection.
        Returns (s with the new segment, the decoded (n, D) frames)."""
        z0, rng = self._sample_z0(s)
        with self._track("decode"):
            projection = project_history(s.history, self.prior)
            decoded = require_finite(decode_segment(projection, z0, self.prior,
                                                    frames=frames), "decoded frames")
        return s._replace(z0=z0, boundary=projection, sensitivity=None,
                          decode_history=None, rng=rng), decoded

    def _emit(self, normalized_frame: np.ndarray) -> np.ndarray:
        # A (D,) array of its own, not a row view that keeps a (1, D) base alive.
        return normalize(normalized_frame, self.normalizer, inverse=True)

    # -- the clock ----------------------------------------------------------------

    def tick(self, partner_frame: Optional[np.ndarray] = None) -> list:
        """Advance one input frame; returns denormalized ego frames emitted now."""
        s = self.state
        # A non-finite weight reaches numpy as inf - inf or the like; a finiteness
        # check raises NumericError for it, so numpy's RuntimeWarning is off.
        with np.errstate(all="ignore"):
            with self._track("pre_post"):
                if partner_frame is not None:
                    s = s._replace(partner_window=self._slide(
                        s.partner_window, self._normalized(partner_frame, "partner frame")))
            s, frames = self._advance(s)
            with self._track("pre_post"):
                out = [self._emit(f) for f in frames]
        self.state = s
        return out

    def _advance(self, s: EngineState) -> tuple:
        """(the next state, this tick's (n, D) normalized frames), n = 0 on
        most segment-mode ticks; the next state's history is slid by them."""
        phase = s.ticks % self.cfg.future_len
        s = s._replace(ticks=s.ticks + 1)

        if self.mode == "segment":
            if s.ticks % self.cfg.future_len != 0:
                return s, []
            s, frames = self._start_segment(s, slice(None))
        elif self.mode == "slide":
            # The baseline's full cost: the whole segment is decoded, and
            # only frame 0 is kept.
            s, frames = self._start_segment(s, slice(None))
            frames = frames[:1]
        # fwsr mode: sample z0 at the segment boundary, then refine it and
        # decode one frame per tick. The probe on tick 1 shares the boundary
        # tick's projection with the frame-0 decode.
        elif phase == 0:
            s, frames = self._start_segment(s, slice(0, 1))
        else:
            if phase == 1:
                with self._track("sensitivity"):
                    sensitivity = require_finite(
                        decoder_sensitivity(s.boundary, s.z0, self.prior), "sensitivity")
            with self._track("fwsr_refine"):
                if phase == 1:
                    # Every refined frame decodes against the first updated history.
                    s = s._replace(sensitivity=sensitivity,
                                   decode_history=project_history(s.history, self.prior))
                z = refine_latent(s.z0, s.history, s.partner_window,
                                  s.sensitivity, self.fwsr_params.float64_weights)
                with self._track("fwsr_decode"):
                    frames = require_finite(decode_segment(
                        s.decode_history, z, self.prior,
                        frames=slice(phase, phase + 1)), "decoded frames")
        return s._replace(history=self._slide(s.history, frames)), frames

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
