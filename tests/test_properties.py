"""Property tests for the text parsers at the program's edges.

Whatever text arrives, parse_config fails only with ConfigError and
parse_record only with FormatError, so the CLI maps every bad config to exit
code 2 and the stream loop skips every bad record.
"""
import dataclasses
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from remogen.errors import ConfigError, FormatError
from remogen.runtime import EngineConfig, parse_config, parse_record

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
