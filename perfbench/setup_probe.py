"""Time the benchmark's set-up in a fresh process and print it as one JSON line.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Set-up is what a user pays before the first frame: load the weight archive,
load the scene file when the workload has one, and construct the Engine.
Interpreter start and imports are not included. The calibration kernel is
timed in the same process after set-up, so that run.py can report set-up at
the kernel's nominal speed.
"""
import json
import os
import sys
import time

import bootstrap

PROBE_SAMPLES = 9


def main() -> int:
    bootstrap.require_program()
    from remogen.runtime import Engine, load_archive, load_voxels

    import calibrate
    import workloads as W

    workload = W.WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    archive = load_archive(os.path.join(bootstrap.WORK, W.ARCHIVE_FILE))
    t1 = time.perf_counter()
    grid = load_voxels(os.path.join(bootstrap.WORK, W.SCENE_FILE)) if workload.scene else None
    t2 = time.perf_counter()
    engine = Engine(archive, workload.config(seed=0))
    if grid is not None:
        engine.set_scene(grid)
    t3 = time.perf_counter()
    calibrate.kernel()  # warm-up, not timed
    print(json.dumps({"setup_s": t3 - t0, "load_archive_ms": (t1 - t0) * 1e3,
                      "load_voxels_ms": (t2 - t1) * 1e3, "engine_init_ms": (t3 - t2) * 1e3,
                      "kernel_ms": calibrate.sample(PROBE_SAMPLES)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
