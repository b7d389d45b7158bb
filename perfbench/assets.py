"""Build the benchmark's weight archive and scene file into perfbench/.work/.

Usage: python3 perfbench/assets.py

run.py calls this in a child process when a file is missing, so that the
memory spent building them never shows in a run's peak_rss_mb.
"""
import sys

import bootstrap


def main() -> int:
    bootstrap.require_program()
    import workloads

    workloads.build_assets(bootstrap.WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
