"""The host-speed probe: a fixed pure-Python burst, timed, twenty times a second.

Usage: ``python calibrate.py OUT.txt`` — runs until SIGTERM, then writes one
``<time.monotonic() at burst start> <bursts per second of its own CPU time>``
line per burst. (CPU time, not wall: the probe measures how fast a vCPU
executes, not whether the probe got one — a program that takes both vCPUs
must not read as a slow host.)

This sandbox's vCPUs run at a speed that wanders by tens of per cent over
seconds and over minutes, for every process on them at once. A burst of
fixed work beside a measured window says how fast the host was during that
window; ``lifecycle.HostSpeed`` turns the bursts into the factor by which
the window's wall-clock reading is scaled to *reference seconds*. A burst
is ~4 ms of every 50, so the probe takes under a tenth of one vCPU, the
same on every run.
"""

from __future__ import annotations

import signal
import sys
import time

BURST_ITERATIONS = 30_000
PERIOD_S = 0.05


def burst() -> int:
    x = 0
    for i in range(BURST_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def main(out: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    burst()  # warm
    while not stop:
        start, tick = time.monotonic(), time.thread_time()
        burst()
        samples.append((start, 1.0 / (time.thread_time() - tick)))
        time.sleep(max(0.0, PERIOD_S - (time.monotonic() - start)))
    with open(out, "w") as fh:
        fh.writelines(f"{t:.6f} {speed:.3f}\n" for t, speed in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
