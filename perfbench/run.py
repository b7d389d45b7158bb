"""The repository benchmark: per-frame reaction latency and cost on three workloads.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with nothing patched. --trace 1
splits the time in two passes over the same inputs, untraced and then
traced, writes the spans to perfbench/.work/traces/ and reports the
per-layer metrics, including the tracing overhead. The last line of output
is one JSON object with the keys correct, attempted, failed and metrics.
README.md describes the workloads, the metrics and the output check.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.require_program()

# After the BLAS pin and the src/ path set by bootstrap.
import numpy as np  # noqa: E402
from remogen.runtime import load_archive, load_voxels  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import drive  # noqa: E402
import workloads as W  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--withhold-partner", action="store_true",
                   help="feed zero partner poses; the output check must then fail "
                        "(used by selftest.py)")
    return p.parse_args(argv)


def _child(script: str, *args: str) -> str:
    """Run a sibling script in a fresh interpreter and return its stdout."""
    done = subprocess.run([sys.executable, os.path.join(bootstrap.BENCH_DIR, script), *args],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: {script} failed:\n{done.stderr}")
    return done.stdout


def setup_times(workload: str) -> dict:
    """Medians of SETUP_PROBES fresh-process set-up measurements.

    setup_s is the median of each probe's set-up time at the calibration
    kernel's nominal speed, timed in the same probe; the parts are as measured.
    """
    probes = [json.loads(_child("setup_probe.py", workload).splitlines()[-1])
              for _ in range(SETUP_PROBES)]
    times = {key: statistics.median(p[key] for p in probes)
             for key in ("setup_s", "load_archive_ms", "load_voxels_ms", "engine_init_ms")}
    times["setup_s_nominal"] = statistics.median(
        p["setup_s"] * calibrate.speed(p["kernel_ms"]) for p in probes)
    return times


def environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Measurement:
    """One timed pass over a run's inputs.

    wall and cpu cover the episodes only; the calibration kernel runs between
    episodes (and, in the open loop, in the engine's idle gaps, with its CPU
    time left out of cpu) and its samples are kept in meter.
    """

    def __init__(self):
        self.episodes: list = []   # drive.EpisodeRun, in play order
        self.wall = 0.0
        self.cpu = 0.0
        self.lag_max = 0.0
        self.threads_max = 0
        self.meter = calibrate.Speedometer()

    @property
    def poses(self) -> int:
        return sum(len(e.poses) for e in self.episodes)

    @property
    def latencies(self) -> list:
        return [x for e in self.episodes for x in e.latencies]

    def timed(self, play):
        """Calibrate, then play one episode and add its wall and CPU time."""
        self.meter.sample()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        run = play()
        self.cpu += time.process_time() - cpu0
        self.wall += time.perf_counter() - wall0
        self.episodes.append(run)
        return run


def measure_open(wl, episodes: list, inputs: list, archive, grid):
    """Play the episodes through stream_run, each on its own fixed record clock."""
    m = Measurement()
    for ep, lines in zip(episodes, inputs):
        pacer = drive.Pacer(wl.rate_hz, wl.mode, wl.config(ep.seed).future_len, drive.Sink(),
                            m.meter)
        m.timed(lambda: drive.stream_episode(wl, ep, lines, archive, grid, pacer))
        m.cpu -= pacer.kernel_cpu
        m.lag_max = max(m.lag_max, pacer.lag_max)
        m.threads_max = max(m.threads_max, pacer.threads_max)
    m.meter.sample()
    return m


def measure_closed(wl, episodes, archive, seconds: float = None, calls: int = None):
    """Back-to-back Engine.run_ticks calls for `seconds` of timed work or `calls` calls."""
    per_episode = W.EPISODE_FRAMES // W.CALL_FRAMES
    m = Measurement()
    made = 0
    for ep in episodes:
        want = per_episode if calls is None else min(per_episode, calls - made)
        if want <= 0 or (seconds is not None and m.wall >= seconds):
            break
        deadline = None if seconds is None else time.perf_counter() + seconds - m.wall
        run = m.timed(lambda: drive.generate_episode(wl, ep, archive, want, deadline))
        made += run.expected // W.CALL_FRAMES
    m.meter.sample()
    m.threads_max = drive.thread_count()
    return m


def failures(m: Measurement, reference) -> tuple:
    """(attempted, failed) poses of a pass against the reference sketches."""
    attempted = sum(e.expected for e in m.episodes)
    failed = sum(check.failed_poses(e.poses, reference[e.index][:e.expected])
                 for e in m.episodes)
    return attempted, failed


def percentile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(seconds, q) * 1e3) if len(seconds) else 0.0


def end_to_end(wl, m: Measurement, setup: dict) -> dict:
    """The end-to-end metrics; compute times at the calibration kernel's nominal speed.

    frames_per_s is a compute rate only in the closed loop; in the open loop
    it is set by the input rate and is reported as measured.
    """
    speed = m.meter.mean_speed()
    fps = m.poses / m.wall
    return {
        "frame_ms_p50": (percentile_ms(m.latencies, 50) * speed, "ms"),
        "frame_ms_p95": (percentile_ms(m.latencies, 95) * speed, "ms"),
        "frames_per_s": (fps / speed if wl.loop == "closed" else fps, "1/s"),
        "cpu_ms_per_frame": (m.cpu * 1e3 / max(m.poses, 1) * speed, "ms"),
        "setup_s": (setup["setup_s_nominal"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    wl = W.WORKLOADS[args.workload]
    work = bootstrap.WORK
    if not all(os.path.exists(os.path.join(work, f)) for f in (W.ARCHIVE_FILE, W.SCENE_FILE)):
        _child("assets.py")
    setup = setup_times(wl.name)

    archive = load_archive(os.path.join(work, W.ARCHIVE_FILE))
    grid = load_voxels(os.path.join(work, W.SCENE_FILE)) if wl.scene else None
    reference = check.load_reference(bootstrap.REFERENCE, wl.name)
    cycle = itertools.cycle(W.play_order(args.seed))
    seconds = args.seconds / 2 if args.trace else args.seconds

    # Each branch warms up on one unpaced, untimed episode so lazy caches are
    # filled before timing starts, and defines how to replay the timed inputs.
    if wl.loop == "open":
        n_episodes = max(1, round(seconds * wl.rate_hz / W.EPISODE_FRAMES))
        episodes = [W.episode(wl, next(cycle)) for _ in range(n_episodes)]
        inputs = [W.stream_lines(ep, args.withhold_partner) for ep in episodes]
        drive.stream_episode(wl, episodes[0], inputs[0], archive, grid)
        m = measure_open(wl, episodes, inputs, archive, grid)

        def replay():
            return measure_open(wl, episodes, inputs, archive, grid)
    else:
        pool = [W.episode(wl, i) for i in range(W.POOL)]
        drive.generate_episode(wl, pool[0], archive, W.EPISODE_FRAMES // W.CALL_FRAMES)
        m = measure_closed(wl, (pool[i] for i in cycle), archive, seconds=seconds)

        def replay():
            calls = sum(e.expected for e in m.episodes) // W.CALL_FRAMES
            return measure_closed(wl, [pool[e.index] for e in m.episodes], archive, calls=calls)
    attempted, failed = failures(m, reference)
    skipped = sum(e.skipped for e in m.episodes)

    if args.trace:
        import spans

        tracer = spans.Tracer(f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
        try:
            traced = replay()
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        tracer.write(os.path.join(work, "traces", f"{wl.name}-seed{args.seed}.ndjson"))
        t_attempted, t_failed = failures(traced, reference)
        attempted, failed = attempted + t_attempted, failed + t_failed
        metrics = spans.layer_metrics(tracer.spans, traced.poses, wl.config(0).steps)
        base = end_to_end(wl, m, setup)["cpu_ms_per_frame"][0]
        with_trace = end_to_end(wl, traced, setup)["cpu_ms_per_frame"][0]
        metrics.update({
            "loadgen.lag_ms_max": (traced.lag_max * 1e3, "ms"),
            "setup.load_archive_ms": (setup["load_archive_ms"], "ms"),
            "setup.engine_init_ms": (setup["engine_init_ms"], "ms"),
            "setup.load_voxels_ms": (setup["load_voxels_ms"], "ms"),
            "traffic.records_skipped": (float(skipped + sum(e.skipped for e in traced.episodes)),
                                        "count"),
            "trace.overhead_pct": ((with_trace / base - 1.0) * 100.0, "%"),
            "machine.kernel_ms": (calibrate.REFERENCE_MS / traced.meter.mean_speed(), "ms"),
        })
    else:
        metrics = end_to_end(wl, m, setup)

    env = environment()
    env["threads_max"] = m.threads_max
    print(f"perfbench {wl.name}: {wl.loop} loop, mode {wl.mode}, alpha {wl.alpha or '{}'}, "
          f"seed {args.seed}, {len(m.episodes)} episodes, {m.poses} poses in {m.wall:.2f} s")
    print(f"  why: {wl.why}")
    print(f"  untouched: {wl.untouched}")
    print(f"  env: {json.dumps(env)}")
    print(f"  calibration kernel {calibrate.REFERENCE_MS / m.meter.mean_speed():.3f} ms "
          f"(mean local median of {len(m.meter.ms)} samples, nominal "
          f"{calibrate.REFERENCE_MS:g} ms); times below "
          f"are at nominal speed except the per-layer ones; as measured: "
          f"frame_ms_p50 {percentile_ms(m.latencies, 50):.3f}, "
          f"frame_ms_p95 {percentile_ms(m.latencies, 95):.3f}, "
          f"cpu_ms_per_frame {m.cpu * 1e3 / max(m.poses, 1):.3f}, "
          f"frames_per_s {m.poses / m.wall:.3f}, setup_s {setup['setup_s']:.4f}")
    if wl.loop == "open":
        print(f"  loadgen.lag_ms_max {m.lag_max * 1e3:.3f} ms, records skipped {skipped}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:12.4f} {unit}")
    print(f"  {'failed_pct':<36} {100.0 * failed / max(attempted, 1):12.4f} % "
          f"({failed} of {attempted} poses failed the output check)")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
