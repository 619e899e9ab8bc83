"""Command line of the end-to-end clip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Prints a human-readable report and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, when
the tree has no ``src/repro`` to measure or the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A run still going after this many seconds is aborted: servers are stopped
#: and no result is printed.
DEADLINE_S = 170


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_signal(signum, frame):
    if signum == signal.SIGALRM:
        raise TimeoutError(f"run did not finish within {DEADLINE_S}s")
    raise KeyboardInterrupt(f"stopped by signal {signum}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, procs

    args = _parse(argv, list(bench.WORKLOADS))
    scratch = ROOT / ".perfbench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    # both unwind through the cleanup below, which stops every server
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(DEADLINE_S)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except BaseException:
        signal.alarm(0)
        procs.kill_all(procs.descendants(os.getpid()))
        raise
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
