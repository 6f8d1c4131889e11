"""Machine speed sampled during a run, to report times at one reference speed.

The machines this benchmark runs on share cores with other tenants.  On a
2-vCPU, 2.1 GHz virtual machine with Python 3.11.7, the same pass over the same input
ran anywhere from 1.0 s to 1.9 s within 200 s, and whole 25 s runs drifted by
up to 2x over a few minutes.  The drift moves every pure-Python computation
alike, so a fixed kernel that does not touch liftcal is timed at request
boundaries all through the run.  A run's time metrics are its measured
seconds multiplied by REFERENCE_S / (median kernel time of the run), i.e.
seconds at the speed where the kernel takes REFERENCE_S.  The measured
seconds and the factor are printed alongside.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.0125  # kernel time on the machine above in a quiet period
INTERVAL_S = 0.125  # least time between two samples


@dataclass(frozen=True)
class _Item:
    key: int
    parts: tuple


def _kernel():
    """Allocation, hashing and dict work, the kinds of work liftcal's layers do."""
    items = [_Item(i % 512, (i & 7, i % 13, i)) for i in range(10000)]
    table = {}
    for item in items:
        table[item] = table.get(item, 0) + 1
    return sum(1 for item in items if isinstance(item, _Item) and item.parts[0])


class Speed:
    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def sample(self):
        start = time.perf_counter()
        _kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self):
        """Multiplier from measured seconds to reference-speed seconds."""
        return REFERENCE_S / statistics.median(self.samples)
