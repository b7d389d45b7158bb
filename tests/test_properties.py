"""Property tests for the parsers and file formats at the program's edges.

Whatever text arrives, parse_config fails only with ConfigError and
parse_record only with FormatError, so the CLI maps every bad config to exit
code 2 and the stream loop skips every bad record; every record it accepts
can be written back out. Whatever bytes a weight archive, motion file or
voxel file holds, loading it fails only with a FormatError subclass. Whatever
calls an engine receives, a bad one fails with a RemogenError and changes
nothing the next good call reads.
"""
import dataclasses
import functools
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from scene_reference import unpacked

from remogen.errors import ConfigError, FormatError, NumericError, RemogenError
from remogen.motion import (
    FeatureLayout,
    MotionSegment,
    featurize,
    normalize,
    synthetic_sequence,
)
from remogen.runtime import (
    Engine,
    EngineConfig,
    WeightArchive,
    format_record,
    load_archive,
    load_motion,
    load_voxels,
    parse_config,
    parse_record,
    save_archive,
    save_motion,
    save_voxels,
)
from remogen.runtime.codecs import ARCHIVE_MAGIC
from remogen.runtime.engine import MODES
from remogen.scene import GridSpec, VoxelGrid

CONFIG_KEYS = [f.name for f in dataclasses.fields(EngineConfig)]
RECORD_KEYS = ["t", "kind", "pose", "text", "alpha", "latency_ms"]
RECORD_KINDS = ["partner_pose", "text", "alpha", "ego_pose", "end"]

# Values shaped like what each key expects, plus anything at all.
config_values = st.one_of(
    st.text(max_size=20),
    st.integers(-10, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.integers(-2, 6), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.lists(st.tuples(st.sampled_from(["hhi", "hsi", "x"]),
                       st.floats(allow_nan=True, allow_infinity=True)),
             max_size=3).map(lambda v: ",".join(f"{k}={w!r}" for k, w in v)),
    st.sampled_from(["true", "false", "on", "", "0x10", "1e3", "nan", "inf"]),
)
config_lines = st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(CONFIG_KEYS), config_values)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=10),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=20,
)
record_objects = st.dictionaries(
    st.sampled_from(RECORD_KEYS),
    st.one_of(json_values, st.sampled_from(RECORD_KINDS)),
    max_size=6,
)
record_lines = st.one_of(st.text(max_size=80), record_objects.map(json.dumps))


@settings(max_examples=200, deadline=None)
@given(st.lists(config_lines, max_size=6).map("\n".join))
@example("heads = 0")
@example("injection_layers =")
@example("fps = nan")
@example("seed = " + "9" * 5000)
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, EngineConfig)


@settings(max_examples=200, deadline=None)
@given(record_lines)
@example("[" * 100000)
@example('{"kind": "end", "t": ' + "1" * 5000 + "}")
@example('{"kind": "alpha", "alpha": {"hhi": 1' + "0" * 400 + "}}")
@example('{"kind": "partner_pose", "pose": [1' + "0" * 400 + "]}")
def test_parse_record_raises_only_format_error(line):
    try:
        record = parse_record(line)
    except FormatError:
        return
    assert record.kind in RECORD_KINDS


@settings(max_examples=200, deadline=None)
@given(record_objects.map(json.dumps))
@example('{"kind": "end", "latency_ms": "abc"}')
@example('{"kind": "end", "latency_ms": [1.5]}')
@example('{"kind": "end", "latency_ms": Infinity}')
@example('{"kind": "end", "latency_ms": true}')
@example('{"kind": "end", "latency_ms": 1' + "0" * 400 + "}")
def test_accepted_records_format(line):
    try:
        record = parse_record(line)
    except FormatError:
        return
    back = parse_record(format_record(record))
    assert back.kind == record.kind and back.t == record.t


# -- file formats ----------------------------------------------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file path reused by every example of a test."""
    return tmp_path_factory.mktemp("codec") / "file"


def _archive_bytes(manifest: bytes, blob: bytes) -> bytes:
    return ARCHIVE_MAGIC + struct.pack("<I", len(manifest)) + manifest + blob


manifest_entries = st.dictionaries(
    st.sampled_from(["name", "shape", "dtype", "offset", "byte_length"]),
    st.one_of(json_values, st.sampled_from(["w", "b", "f32-le"]),
              st.lists(st.integers(-3, 5), max_size=4), st.integers(-8, 64)),
    max_size=5,
)
manifests = st.one_of(json_values, st.lists(manifest_entries, max_size=4))


def _one_entry(**fields) -> bytes:
    """A manifest of one valid 4-byte tensor entry with some fields replaced."""
    entry = {"name": "w", "shape": [1], "dtype": "f32-le", "offset": 0, "byte_length": 4}
    return json.dumps([{**entry, **fields}]).encode()


@settings(max_examples=300, deadline=None)
@given(manifest=manifests.map(lambda m: json.dumps(m).encode()),
       blob=st.binary(max_size=64))
@example(manifest=b"5", blob=b"")
@example(manifest=_one_entry(offset=float("inf")), blob=bytes(4))
@example(manifest=b"[" * 100000, blob=b"")
@example(manifest=_one_entry(name=["w"]), blob=bytes(4))
@example(manifest=_one_entry(shape=[-1, -1]), blob=bytes(4))
@example(manifest=_one_entry(shape=[1] * 70), blob=bytes(4))
@example(manifest=_one_entry(shape="12", byte_length=8), blob=bytes(8))
@example(manifest=_one_entry(offset=0.9), blob=bytes(4))
def test_random_manifests_never_crash_load_archive(manifest, blob, scratch):
    scratch.write_bytes(_archive_bytes(manifest, blob))
    try:
        archive = load_archive(scratch)
    except FormatError:
        return
    assert isinstance(archive, WeightArchive)
    # An accepted manifest is taken literally: each shape is the listed one.
    for entry in json.loads(manifest):
        assert list(archive.get(entry["name"]).shape) == entry["shape"]


def _valid_archive(path) -> bytes:
    save_archive(WeightArchive({"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                "b": np.ones(3, dtype=np.float32),
                                "s": np.zeros((), dtype=np.float32)}), path)
    return path.read_bytes()


def _valid_motion(path) -> bytes:
    layout = FeatureLayout(1)
    frames = np.linspace(-1, 1, 2 * layout.dim, dtype=np.float32).reshape(2, -1)
    save_motion(MotionSegment(frames, fps=10.0), path, layout)
    return path.read_bytes()


def _valid_voxels(path) -> bytes:
    spec = GridSpec(np.zeros(3), np.ones(3), (3, 2, 2))
    save_voxels(VoxelGrid(spec, np.array([0b1010_0101, 0b1001], dtype=np.uint8)), path)
    return path.read_bytes()


CODECS = {"archive": (_valid_archive, load_archive),
          "motion": (_valid_motion, load_motion),
          "voxels": (_valid_voxels, load_voxels)}

# A damage is a truncation point (None keeps the whole file) plus bit flips,
# each given as a fraction of the file so one strategy fits every size.
damages = st.tuples(st.one_of(st.none(), st.floats(0, 1, exclude_max=True)),
                    st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                       st.integers(0, 7)), max_size=4))


@pytest.mark.parametrize("codec", sorted(CODECS))
@settings(max_examples=300, deadline=None)
@given(damage=damages)
def test_damaged_files_raise_only_format_error(codec, damage, scratch):
    make, load = CODECS[codec]
    data = bytearray(make(scratch))
    cut, flips = damage
    for where, bit in flips:
        data[int(where * len(data))] ^= 1 << bit
    if cut is not None:
        data = data[:int(cut * len(data))]
    scratch.write_bytes(bytes(data))
    try:
        load(scratch)
    except FormatError:
        pass


# -- the engine's entry points under any sequence of calls ---------------------

SM_CFG = EngineConfig(latent_dim=16, text_dim=16, width=32, heads=2, n_blocks=2,
                      ffn_hidden=64, vae_hidden=64, injection_layers=(0, 1), steps=2,
                      future_len=4, alpha={"hhi": 0.5, "hsi": 0.5})
SM_DIM = FeatureLayout(SM_CFG.joints).dim


@functools.lru_cache(maxsize=None)
def _sm_inputs():
    """The archive (non-zero module gates and FiLM head, so partner and scene
    reach the output), a small scene grid and a pool of good poses."""
    from test_golden import golden_archive

    spec = GridSpec([-1.5, -1.5, 0.0], [1.5, 1.5, 1.5], (12, 12, 6))
    occ = np.random.default_rng(5).uniform(size=spec.dims) < 0.3
    poses = featurize(synthetic_sequence(16, seed=9)).frames
    return golden_archive(SM_CFG), VoxelGrid.from_bool_array(spec, occ), poses


def _pose(kind: str, i: int) -> np.ndarray:
    poses = _sm_inputs()[2]
    pose = poses[i % len(poses)].copy()
    if kind == "nan":
        pose[i % SM_DIM] = np.nan
    elif kind == "wide":
        pose = np.append(pose, np.float32(0.0))
    return pose


class EngineCalls(RuleBasedStateMachine):
    """Any sequence of calls on an engine, good or bad. A call either raises a
    RemogenError and leaves the engine's clock, history, partner window,
    segment and generator state as they were, or is accepted and replayed on
    a twin engine that sees only accepted calls; after every accepted tick
    both have emitted the same finite bits. A refused tick is refused the
    same way when it is repeated.

    Half the engines, with their twins, are built from an archive in which
    one weight is not finite. A tick with a good partner pose or none then
    emits finite frames or raises NumericError.

    The history's newest row is always the newest ego frame: the last pose an
    accepted tick emitted, or the pose an accepted observe_ego was given."""

    @initialize(mode=st.sampled_from(MODES), bad_weight=st.one_of(st.none(), st.tuples(
        st.deferred(lambda: st.sampled_from(sorted(_sm_inputs()[0].names()))),
        st.integers(min_value=0), st.sampled_from([np.nan, np.inf, -np.inf]))))
    def build(self, mode, bad_weight):
        """bad_weight, when given, is (tensor name, flat index modulo its size,
        value): that element of the archive is made non-finite. norm.mean and
        norm.std are refused when the engine is built; the engine is then
        built from the good archive."""
        archive = _sm_inputs()[0]
        if bad_weight is not None:
            name, where, value = bad_weight
            tensors = dict(archive.tensors)
            bad = tensors[name].copy()
            bad.reshape(-1)[where % bad.size] = value
            tensors[name] = bad
            if name.startswith("norm."):
                with pytest.raises(NumericError, match=f"non-finite values in {name}"):
                    Engine(WeightArchive(tensors), SM_CFG, mode=mode)
            else:
                archive = WeightArchive(tensors)
        self.engine = Engine(archive, SM_CFG, mode=mode)
        self.twin = Engine(archive, SM_CFG, mode=mode)
        self.calls = 0

    def _call(self, name, *args):
        """(engine's result, twin's result) of an accepted call; None for a
        refused one."""
        self.calls += 1
        e = self.engine
        before = (e.ticks, e.history.frames.copy(), e.partner_window.copy(), e.segment)
        gen_state = e.gen.bit_generator.state

        def assert_unchanged():
            assert e.ticks == before[0]
            np.testing.assert_array_equal(e.history.frames, before[1])
            np.testing.assert_array_equal(e.partner_window, before[2])
            assert e.segment is before[3]
            np.testing.assert_equal(e.gen.bit_generator.state, gen_state)

        try:
            out = getattr(e, name)(*args)
        except RemogenError as exc:
            assert_unchanged()
            self.refused = exc
            if name == "tick":
                with pytest.raises(type(exc)) as again:
                    e.tick(*args)
                assert str(again.value) == str(exc)
                assert_unchanged()
            return None
        return out, getattr(self.twin, name)(*args)

    @invariant()
    def partner_window_holds_at_most_history_len_rows(self):
        assert len(self.engine.partner_window) <= SM_CFG.history_len

    @rule(kind=st.sampled_from(["good", "good", "nan", "wide", "none"]))
    def tick(self, kind):
        frame = None if kind == "none" else _pose(kind, self.calls)
        result = self._call("tick", frame)
        if result is None:
            if kind in ("good", "none"):
                assert isinstance(self.refused, NumericError), self.refused
            return
        out, twin_out = result
        assert len(out) == len(twin_out)
        for a, b in zip(out, twin_out):
            assert np.isfinite(a).all()
            np.testing.assert_array_equal(a, b)
        if out:
            e = self.engine
            newest = normalize(e.history.frames[-1:], e.normalizer, inverse=True)[0]
            assert newest.tobytes() == out[-1].tobytes()

    @rule(text=st.one_of(st.text(max_size=8), st.integers(), st.none()))
    def set_text(self, text):
        self._call("set_text", text)

    @rule(alpha=st.one_of(
        st.fixed_dictionaries({}, optional={"hhi": st.floats(0.0, 1.0),
                                            "hsi": st.floats(0.0, 1.0)}),
        st.just({"hhx": 1.0}),
        st.just({"hhi": float("nan")})))
    def set_alpha(self, alpha):
        self._call("set_alpha", alpha)

    @rule(kind=st.sampled_from(["grid", "none", "int", "array"]))
    def set_scene(self, kind):
        grid = _sm_inputs()[1]
        scene = {"grid": grid, "none": None, "int": 5, "array": unpacked(grid)}[kind]
        self._call("set_scene", scene)

    @rule(kind=st.sampled_from(["good", "nan"]))
    def observe_ego(self, kind):
        pose = _pose(kind, self.calls)
        if self._call("observe_ego", pose) is not None:
            e = self.engine
            newest = normalize(pose[None], e.normalizer)[0]
            assert newest.tobytes() == e.history.frames[-1].tobytes()


EngineCalls.TestCase.settings = settings(max_examples=30, stateful_step_count=24,
                                         deadline=None)
TestEngineCalls = EngineCalls.TestCase
