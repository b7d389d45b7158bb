"""Regenerate the reference sketches in perfbench/reference/.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Plays every pool episode of each workload unpaced, through the same public
calls a timed run makes, and saves the sketches of the emitted poses. Run it
only when a change to the program is meant to change its outputs, and say so
in the change; a reference rebuilt to hide an unintended change defeats the
output check.
"""
import os
import sys

import bootstrap


def main() -> int:
    bootstrap.require_program()
    import numpy as np
    from remogen.runtime import load_archive, load_voxels

    import check
    import drive
    import workloads as W

    W.build_assets(bootstrap.WORK)
    archive = load_archive(os.path.join(bootstrap.WORK, W.ARCHIVE_FILE))
    grid = load_voxels(os.path.join(bootstrap.WORK, W.SCENE_FILE))
    for name in sys.argv[1:] or list(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        sketches = []
        for i in range(W.POOL):
            ep = W.episode(wl, i)
            if wl.loop == "open":
                run = drive.stream_episode(wl, ep, W.stream_lines(ep), archive,
                                           grid if wl.scene else None)
            else:
                run = drive.generate_episode(wl, ep, archive, W.EPISODE_FRAMES // W.CALL_FRAMES)
            if run.error is not None or len(run.poses) != W.EPISODE_FRAMES:
                sys.exit(f"perfbench: {name} episode {i} did not complete")
            sketches.append(check.sketch(np.array(run.poses)))
        os.makedirs(bootstrap.REFERENCE, exist_ok=True)
        np.save(check.reference_path(bootstrap.REFERENCE, name),
                np.stack(sketches).astype(np.float32))
        print(f"{name}: {W.POOL} episodes x {W.EPISODE_FRAMES} frames")
    return 0


if __name__ == "__main__":
    sys.exit(main())
