"""Online streaming loop: NDJSON records in, ego pose records out.

The loop runs on the caller's thread. Records are read one at a time, and
each is handled before the next is read, so a source that writes faster than
the engine ticks is held back by the source itself (for `remogen stream`, the
OS pipe). The poses a tick emits are flushed before the next read. Output
transcripts, with timing fields stripped, are a pure function of the input
transcript, config, weights and seed.
"""
from __future__ import annotations

import sys
import time
from typing import IO, Optional

from ..errors import ConfigError, FormatError
from .codecs import WeightArchive
from .config import EngineConfig, StreamRecord, format_record, parse_record
from .engine import Engine


def stream_run(source: IO[str], sink: IO[str], cfg: EngineConfig,
               archive: WeightArchive, log: Optional[IO[str]] = None,
               scene_grid=None) -> int:
    """Run the engine over a record stream; returns the count of skipped records.

    Starts no thread: `source` is pulled on the calling thread, and only after
    the engine is built, so a caller that times records from the first pull
    leaves engine set-up out. An exception raised by `source` reaches the
    caller as it is. Nothing is read after an `end` record.
    """
    log = log if log is not None else sys.stderr
    engine = Engine(archive, cfg)
    if scene_grid is not None:
        engine.set_scene(scene_grid)
    return _serve(engine, source, sink, log)


def _serve(engine: Engine, source: IO[str], sink: IO[str], log: IO[str]) -> int:
    """The main loop of stream_run: records from source through the engine into sink."""
    skipped = 0
    emitted = 0
    for raw in source:
        line = raw.strip()
        if not line:
            continue
        try:
            record = parse_record(line)
        except FormatError as exc:
            skipped += 1
            print(f"skipping malformed record: {exc}", file=log)
            continue
        if record.kind == "end":
            break
        if record.kind == "partner_pose":
            if record.pose.shape[0] != engine.layout.dim:
                # Wrong feature width means the whole stream is miswired.
                raise ConfigError(
                    f"pose has {record.pose.shape[0]} channels, engine expects "
                    f"{engine.layout.dim}")
            start = time.perf_counter()
            frames = engine.tick(record.pose)
            latency_ms = (time.perf_counter() - start) * 1000.0
            for frame in frames:
                sink.write(format_record(StreamRecord(
                    t=emitted, kind="ego_pose", pose=frame,
                    latency_ms=latency_ms / max(len(frames), 1))) + "\n")
                emitted += 1
            if frames:
                sink.flush()
        elif record.kind == "ego_pose":
            if record.pose.shape[0] != engine.layout.dim:
                raise ConfigError("ego pose width does not match the engine")
            engine.observe_ego(record.pose)
        elif record.kind == "text":
            engine.set_text(record.text)
        elif record.kind == "alpha":
            try:
                engine.set_alpha(record.alpha)
            except ConfigError as exc:
                skipped += 1
                print(f"skipping record t={record.t}: {exc}", file=log)
    sink.write(format_record(StreamRecord(t=emitted, kind="end")) + "\n")
    sink.flush()
    return skipped
