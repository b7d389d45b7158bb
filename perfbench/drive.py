"""Drive the program through its public functions, one episode at a time.

Open-loop episodes go through `stream_run`, fed NDJSON from a Pacer (or from
a plain list when nothing is timed); closed-loop episodes call
`Engine.run_ticks` directly, CALL_FRAMES frames per call, as one waiting
caller would.
"""
from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterator, Optional

from remogen.runtime import Engine, stream_run

import calibrate
import workloads as W

LEAD_S = 0.01            # the first record of an episode is due this long after the clock starts
CALIBRATE_GAP_S = 0.04   # a kernel sample starts only if the next record is due later than this


def thread_count() -> int:
    """OS threads of this process (BLAS workers included), 0 where unknown."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


class Sink:
    """Stream output target that stamps each record as it arrives."""

    def __init__(self):
        self.times: list = []
        self.lines: list = []
        self.written = threading.Condition()

    def write(self, text: str) -> None:
        self.times.append(time.perf_counter())
        self.lines.append(text)
        with self.written:
            self.written.notify_all()

    def flush(self) -> None:
        pass

    def wait_for(self, records: int, deadline: float) -> bool:
        """Block until `records` records have arrived; False if `deadline` comes first."""
        with self.written:
            return self.written.wait_for(lambda: len(self.times) >= records,
                                         timeout=max(0.0, deadline - time.perf_counter()))

    def poses(self) -> tuple:
        """(poses, arrival times) of the ego_pose records, in order."""
        poses, times = [], []
        for line, t in zip(self.lines, self.times):
            record = json.loads(line)
            if record.get("kind") == "ego_pose":
                poses.append(record["pose"])
                times.append(t)
        return poses, times


class Pacer:
    """Hands out one episode's partner records on a fixed clock that never waits for the engine.

    The clock starts when `stream_run`'s ingest thread first pulls, that is
    after the episode's engine is built, so engine construction counts in
    set-up and not in latency. Record k is then due at start + k / rate
    whatever the engine does. `stream_run`'s queue holds more records than an
    episode has, so the engine never holds the generator back; lag_max is how
    late the generator itself handed a record over (sleep overshoot and
    contention for the interpreter with the engine's thread).

    Between records the generator times the calibration kernel, but only in
    gaps where the engine is idle: every pose the handed records can produce
    has reached the sink, and the next record is not due for CALIBRATE_GAP_S.
    So the kernel samples the machine's speed all through the episode without
    delaying a record or competing with a tick that emits a pose.
    """

    def __init__(self, rate: float, mode: str, future_len: int, sink: Sink,
                 meter: calibrate.Speedometer):
        self.rate = rate
        self.mode = mode
        self.future_len = future_len
        self.sink = sink
        self.meter = meter
        self.start = None
        self.sent = 0
        self.lag_max = 0.0
        self.threads_max = 0
        self.kernel_cpu = 0.0     # CPU seconds the kernel took, to leave out of the run's

    def due(self, k: int) -> float:
        return self.start + k / self.rate

    def _calibrate(self, due: float) -> None:
        deadline = due - CALIBRATE_GAP_S
        if self.sink.wait_for(emitted_by(self.mode, self.future_len, self.sent), deadline):
            if time.perf_counter() < deadline:
                cpu0 = time.thread_time()
                self.meter.sample(1)
                self.kernel_cpu += time.thread_time() - cpu0

    def source(self, lines: list) -> Iterator[str]:
        """The episode's lines; the text record rides with the first pose."""
        self.threads_max = max(self.threads_max, thread_count())
        self.start = time.perf_counter() + LEAD_S
        yield lines[0]
        for line in lines[1:]:
            due = self.due(self.sent)
            self._calibrate(due)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lag_max = max(self.lag_max, time.perf_counter() - due)
            self.sent += 1
            yield line


@dataclass
class EpisodeRun:
    index: int                       # pool episode
    expected: int                    # poses the episode should have produced
    poses: list = field(default_factory=list)
    latencies: list = field(default_factory=list)   # seconds, one per pose
    skipped: int = 0                 # records stream_run skipped
    error: Optional[str] = None


def _crashed(run: EpisodeRun) -> None:
    run.error = traceback.format_exc()
    print(f"perfbench: episode {run.index} raised:\n{run.error}", file=sys.stderr)


def emitting_tick(mode: str, future_len: int, pose: int) -> int:
    """Index of the partner record whose tick emits pose `pose` of an episode.

    Segment mode emits a whole segment on the segment's last tick; fwsr mode
    emits one pose per tick.
    """
    if mode == "segment":
        return (pose // future_len + 1) * future_len - 1
    return pose


def emitted_by(mode: str, future_len: int, ticks: int) -> int:
    """Poses an episode has emitted once its first `ticks` ticks are done."""
    if mode == "segment":
        return ticks // future_len * future_len
    return ticks


def stream_episode(workload: W.Workload, ep: W.Episode, lines: list, archive,
                   grid=None, pacer: Optional[Pacer] = None) -> EpisodeRun:
    """One open-loop episode through stream_run; latency runs from each due time.

    Without a pacer the lines are fed as fast as stream_run pulls them and
    the run has no latencies.
    """
    run = EpisodeRun(index=ep.index, expected=W.EPISODE_FRAMES)
    cfg = workload.config(ep.seed)
    source = pacer.source(lines) if pacer is not None else iter(lines)
    sink = pacer.sink if pacer is not None else Sink()
    try:
        run.skipped = stream_run(source, sink, cfg, archive, log=io.StringIO(),
                                 scene_grid=grid)
    except Exception:  # a crash fails every pose it blocks; keep measuring
        _crashed(run)
    run.poses, times = sink.poses()
    if pacer is not None and pacer.start is not None:
        run.latencies = [t - pacer.due(emitting_tick(workload.mode, cfg.future_len, j))
                         for j, t in enumerate(times)]
    return run


def generate_episode(workload: W.Workload, ep: W.Episode, archive, calls: int,
                     deadline: Optional[float] = None) -> EpisodeRun:
    """Up to `calls` closed-loop Engine.run_ticks calls on a fresh engine.

    Stops early once `deadline` (a perf_counter time) has passed; expected
    counts only the calls made. Each pose's latency is its call's service time.
    """
    run = EpisodeRun(index=ep.index, expected=0)
    try:
        engine = Engine(archive, workload.config(ep.seed))
        engine.set_text(ep.text)
        for _ in range(calls):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            run.expected += W.CALL_FRAMES
            start = time.perf_counter()
            frames = engine.run_ticks(W.CALL_FRAMES)
            elapsed = time.perf_counter() - start
            run.poses.extend(frames)
            run.latencies.extend([elapsed] * len(frames))
    except Exception:  # a crash fails every pose it blocks; keep measuring
        _crashed(run)
    return run
