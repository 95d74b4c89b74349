"""Start commands one at a time and report each one's wall time and peak RSS.

Reads one JSON list (a command) per line on stdin; for each, runs it to
completion and writes one JSON object per line on stdout:
{"code": exit code, "wall": seconds, "maxrss_kb": ru_maxrss from wait4,
"speed": mean machine speed while it ran, see `speed`}. Exits when stdin
closes.

Linux carries the pre-exec resident size into a child's ru_maxrss, so a
child started by the large benchmark process would report at least that
process's size. This process stays small, so its children's ru_maxrss
is their own peak.

Children run on every CPU the benchmark may use, as an operator's
command would. While a child runs, a thread samples the speed of the CPU
the child last ran on every SAMPLE_EVERY_S, taking about 2 % of that CPU.
The vCPUs of a shared VM slow down independently of each other, so a
sample from another CPU would not tell how fast the child ran.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

# The calibration loop's fastest time per 100,000 iterations on an
# undisturbed core of the 2-core VM this benchmark was written on.
REFERENCE_S = 0.0044
SAMPLE_EVERY_S = 0.025


def speed(iterations: int = 100_000) -> float:
    """Machine speed now: reference time ÷ time of a fixed pure-Python loop.

    Other tenants of a shared machine slow everything on it by up to 1.8x
    for seconds to minutes at a time. A time multiplied by the speed
    sampled while it was taken reads as it would on the undisturbed machine.
    """
    t0 = perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return REFERENCE_S * iterations / 100_000 / (perf_counter() - t0)


def cpu_of(pid: int) -> int:
    """The CPU that process `pid` last ran on: field 39 of /proc/PID/stat."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[36])


def run(cmd: list, log: str) -> dict:
    samples = [speed()]
    done = threading.Event()

    def sample():
        while not done.wait(SAMPLE_EVERY_S):
            try:
                # On Linux this moves only the sampling thread.
                os.sched_setaffinity(0, {cpu_of(proc.pid)})
            except (OSError, ValueError, IndexError):
                pass  # the child has just been reaped
            samples.append(speed(10_000))

    sampler = threading.Thread(target=sample)
    with open(log, "ab") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    done.set()
    sampler.join()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall": wall, "maxrss_kb": usage.ru_maxrss, "speed": sum(samples) / len(samples)}


def main() -> None:
    # Hand the interpreter lock back to the waiting thread within 0.5 ms
    # of the child's exit.
    sys.setswitchinterval(0.0005)
    for request in sys.stdin:
        cmd, log = json.loads(request)
        print(json.dumps(run(cmd, log)), flush=True)


if __name__ == "__main__":
    main()
