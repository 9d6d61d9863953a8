"""Host-speed calibration.

On a shared host the same code runs at different speeds: here two
states about 1.6x apart, switching within seconds and lasting from
seconds to minutes.  ``kernel_s`` times fixed interpreter work that
uses nothing of ``qfel``, next to each measured interval, and
``at_reference`` rescales a measured time to the speed at which that
work takes ``KERNEL_REF_S``.  A change in the measured program moves
the rescaled time in proportion; a change of host speed moves the
measured time and the kernel time together.
"""

from __future__ import annotations

import math
import time

KERNEL_REF_S = 1e-3


def _kernel():
    """Float math, calls, a dict, float formatting and small numpy
    reductions, like the CLI's own mix."""
    import numpy as np      # here, so that importing this module stays cheap
    grid = np.linspace(0.0, 1.0, 64)
    acc, table, cells = 0.0, {}, []
    for i in range(450):
        x = 0.001 * i
        acc += math.sqrt(x + 1.0) * math.cos(x) - math.exp(-x)
        table[i % 37] = acc
        cells.append(f"{acc:.11e}")
        if i % 20 == 0:
            acc += float(np.sum(np.exp(-grid * x)))
    return len(",".join(cells)) + len(table)


def kernel_s():
    """The faster of two timings of the kernel."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds, kernel_seconds):
    """A measured time rescaled to the reference host speed."""
    return seconds * KERNEL_REF_S / kernel_seconds
