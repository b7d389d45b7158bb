"""Self-test of the benchmark's output check and of its weight archive.

Usage: python3 perfbench/selftest.py

Checks, each printed as one PASS/FAIL line; exits 1 if any fails:
- a run fed a withheld partner (zero poses) is reported as failed by run.py,
  while the same run with the partner passes;
- nudging every weight by one float32 ulp keeps every pose within tolerance,
  so reassociated arithmetic passes the check;
- the benchmark archive is not neutral: zeroing the adapter gates, or the
  FWSR FiLM head, moves poses by more than the check tolerates.
"""
import json
import os
import subprocess
import sys

import bootstrap

SHORT_SECONDS = "3.2"   # one episode at 20 records/s


def run_bench(workload: str, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(bootstrap.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", SHORT_SECONDS, "--trace", "0", *extra],
        capture_output=True, text=True, timeout=300, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bootstrap.require_program()
    import numpy as np
    from remogen.runtime import WeightArchive, load_archive, load_voxels

    import check
    import drive
    import workloads as W

    W.build_assets(bootstrap.WORK)
    archive = load_archive(os.path.join(bootstrap.WORK, W.ARCHIVE_FILE))
    grid = load_voxels(os.path.join(bootstrap.WORK, W.SCENE_FILE))
    results = []

    def report(ok: bool, text: str) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)

    for name in ("react_fwsr_hhi", "scene_segment_hhi_hsi"):
        fed = run_bench(name)
        withheld = run_bench(name, "--withhold-partner")
        report(fed["correct"] and fed["failed"] == 0,
               f"{name}: partner fed, {fed['failed']} of {fed['attempted']} poses failed")
        report(not withheld["correct"] and withheld["failed"] > 0,
               f"{name}: partner withheld, {withheld['failed']} of {withheld['attempted']} "
               f"poses failed")

    def poses(workload, weights, index=0):
        wl = W.WORKLOADS[workload]
        ep = W.episode(wl, index)
        if wl.loop == "open":
            run = drive.stream_episode(wl, ep, W.stream_lines(ep), weights,
                                       grid if wl.scene else None)
        else:
            run = drive.generate_episode(wl, ep, weights, W.EPISODE_FRAMES // W.CALL_FRAMES)
        return np.array(run.poses, dtype=np.float64)

    gen = np.random.default_rng(0)
    nudged = WeightArchive({
        k: np.nextafter(v, np.where(gen.random(v.shape) < 0.5, -np.inf, np.inf)
                        .astype(np.float32))
        for k, v in archive.tensors.items()})
    for name in W.WORKLOADS:
        reference = check.load_reference(bootstrap.REFERENCE, name)[0]
        got = poses(name, nudged)
        worst = float(np.max(np.abs(check.sketch(got) - reference)))
        report(check.failed_poses(list(got), reference) == 0,
               f"{name}: one-ulp weight nudge moved sketches by at most {worst:.2e} "
               f"(tolerance {check.TOLERANCE:g})")

    def without(prefix_test, workload):
        tensors = {k: (np.zeros_like(v) if prefix_test(k) else v)
                   for k, v in archive.tensors.items()}
        base = poses(workload, archive)
        other = poses(workload, WeightArchive(tensors))
        return (float(np.max(np.abs(other - base))),
                float(np.max(np.abs(check.sketch(other) - check.sketch(base)))))

    def is_gate(name):
        return name.startswith("mim.") and name.endswith(".gate")

    for label, test, workload in (
            ("adapter gates", is_gate, "react_fwsr_hhi"),
            ("adapter gates", is_gate, "scene_segment_hhi_hsi"),
            ("FWSR FiLM head", lambda k: k == "fwsr.film_w", "react_fwsr_hhi")):
        pose_diff, sketch_diff = without(test, workload)
        report(sketch_diff > check.TOLERANCE,
               f"{workload}: zeroing the {label} moves poses by {pose_diff:.3g} "
               f"(sketches by {sketch_diff:.3g})")

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
