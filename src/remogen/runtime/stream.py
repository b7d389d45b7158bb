"""Online streaming loop: NDJSON records in, ego pose records out.

Two logical contexts: an ingest thread parses records into a bounded FIFO
(capacity 64, back-pressuring the source), while the calling thread runs the
engine. All values crossing the queue are immutable. Output transcripts,
with timing fields stripped, are a pure function of the input transcript,
config, weights and seed.
"""
from __future__ import annotations

import queue
import sys
import threading
import time
from typing import IO, Optional

from ..errors import ConfigError, FormatError
from ..metrics import LatencyRecorder
from .codecs import WeightArchive
from .config import EngineConfig, StreamRecord, format_record, parse_record
from .engine import Engine

QUEUE_CAPACITY = 64
_EOF = object()


def _ingest(source: IO[str], q: "queue.Queue") -> None:
    """Parse lines into q; a reader failure is queued for the main loop, then _EOF."""
    try:
        for raw in source:
            line = raw.strip()
            if not line:
                continue
            try:
                q.put(parse_record(line))
            except FormatError as exc:
                q.put(("malformed", str(exc)))
    except Exception as exc:
        q.put(("failed", exc))
    finally:
        q.put(_EOF)


def stream_run(source: IO[str], sink: IO[str], cfg: EngineConfig,
               archive: WeightArchive, log: Optional[IO[str]] = None,
               scene_grid=None, recorder: Optional[LatencyRecorder] = None) -> int:
    """Run the engine over a record stream; returns the count of skipped records."""
    log = log if log is not None else sys.stderr
    engine = Engine(archive, cfg, recorder=recorder)
    if scene_grid is not None:
        engine.set_scene(scene_grid)

    q: "queue.Queue" = queue.Queue(maxsize=QUEUE_CAPACITY)
    worker = threading.Thread(target=_ingest, args=(source, q), daemon=True)
    worker.start()

    skipped = 0
    emitted = 0
    while True:
        item = q.get()
        if item is _EOF:
            break
        if isinstance(item, tuple):
            if item[0] == "failed":
                raise item[1]
            skipped += 1
            print(f"skipping malformed record: {item[1]}", file=log)
            continue
        record: StreamRecord = item
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
    worker.join(timeout=5.0)
    return skipped
