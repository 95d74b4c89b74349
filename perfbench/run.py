#!/usr/bin/env python3
"""privlog benchmark: emission latency, file throughput and investigation time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Set-up (corpus, keys, grant) runs several times and reports the median.
Then measured rounds repeat until `--seconds` is spent. One round is one
closed-loop library pass of `ProtectSession.protect_line` with a single
caller, then the operator's CLI chain as child processes, one at a time:
`protect`, then `accept`, `recover`, linkage `report` and one `--timeline`
for the most frequent token. Every run then checks the last round's
outputs against the planted truth (oracle.py) and exits non-zero on any
failure. With `--trace 1` each round also runs an untraced and a traced
in-process protect pass and `recover_tokens` call, the CLI children record
spans, and the run reports per-layer metrics instead of end-to-end ones.
The last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("emit-sparse", "emit-dense", "investigate")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "privlog" / "__init__.py").is_file():
        print(f"perfbench: no privlog sources at {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Started while this process is still small; see spawner.py.
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT, text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        sys.path[:0] = [str(SRC), str(HERE)]
        import harness

        return harness.run(args, work, spawner)
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
