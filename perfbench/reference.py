"""A fixed pure-Python kernel that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by a quarter or
more within minutes, and process CPU time drifts with it.  The kernel
below does the same kind of work as the library (integer row operations
on lists of lists, exact elimination over Fraction, tuple and dict
building) but never calls it, so a change to the library cannot change
the kernel's time.  Running the kernel between ops and scaling each op's
time by ``REFERENCE_S / kernel time`` turns a time into seconds on a host
where the kernel takes ``REFERENCE_S``; the slow drift of the host then
mostly cancels.
"""

import statistics
from fractions import Fraction
from time import process_time

# CPU seconds of one kernel run on the host the benchmark was calibrated
# on (2 vCPU Intel Xeon, CPython 3.11), so that a reference second is
# about a CPU second there.  Only ratios between runs are compared.
REFERENCE_S = 0.0045

# Kernel timings the scale of an op is taken from: the median of the
# most recent ones, so that a single interrupted kernel run is ignored.
WINDOW = 5

_N = 7
_INT_MATRIX = [[(5 * i + 3 * j + i * j) % 13 - 6 for j in range(_N)]
               for i in range(_N)]
_RAT_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 4)
                for j in range(_N)] for i in range(_N)]


def _integer_reduce(m):
    """Euclidean row reduction of an integer matrix, as in a Hermite or
    Smith normal form."""
    m = [list(row) for row in m]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        while True:
            live = [i for i in range(r, rows) if m[i][c] != 0]
            if not live:
                break
            p = min(live, key=lambda i: abs(m[i][c]))
            m[r], m[p] = m[p], m[r]
            done = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                if m[i][c] != 0:
                    done = False
            if done:
                r += 1
                break
        if r == rows:
            break
    return m


def _rational_rank(m):
    m = [list(row) for row in m]
    rank = 0
    for c in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _kernel():
    total = 0
    for shift in range(6):
        m = [row[shift:] + row[:shift] for row in _INT_MATRIX]
        total += sum(map(abs, _integer_reduce(m)[0]))
    for shift in range(4):
        m = [row[shift:] + row[:shift] for row in _RAT_MATRIX]
        total += _rational_rank(m)
    classes = {}
    for i in range(1200):
        key = (i % 7, (i * i) % 11, i % 3)
        classes.setdefault(key, []).append(tuple(range(i % 5)))
    return total + len(classes)


def sample():
    """CPU seconds of one kernel run."""
    start = process_time()
    _kernel()
    return process_time() - start


class Scale:
    """Turns CPU seconds measured now into reference seconds."""

    def __init__(self):
        self.samples = []

    def measure(self, runs=1):
        for _ in range(runs):
            self.samples.append(sample())

    def factor(self):
        """REFERENCE_S over the median of the latest kernel timings."""
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])
