"""Host speed probe: times a fixed piece of pure-Python work every half second.

``run.py`` starts it next to the workload children, on the same CPU, and
stops it with SIGTERM; it then prints one sample per line: the work's CPU
time in seconds.  The work is Fraction arithmetic into a dict keyed by tuples, the
same kind of work as ``ospq``'s scalar layer, so the host's drifting speed
slows it and a workload child alike.  It uses about 2 % of the CPU.
"""

import signal
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.5


class Stop(Exception):
    pass


def unit():
    # CPU time, not wall time: the probe shares its CPU with the workload,
    # and its wall time would count the workload's time slices
    start = time.thread_time()
    acc = {}
    x = Fraction(1, 3)
    for i in range(2000):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + x * i
    return time.thread_time() - start


def stop(signum, frame):
    raise Stop


def main():
    samples = []
    signal.signal(signal.SIGTERM, stop)
    try:
        while True:
            time.sleep(INTERVAL_S)
            samples.append(unit())
    except Stop:
        pass
    sys.stdout.write("".join(f"{cpu!r}\n" for cpu in samples))


if __name__ == "__main__":
    main()
