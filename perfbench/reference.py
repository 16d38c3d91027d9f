"""A fixed reference kernel that measures how fast the machine runs right now.

On a small shared virtual machine the CPU's speed drifts by a third or more
over seconds to minutes, and every op slows down with it. Timing this
kernel next to each op lets the benchmark report op times at one fixed
machine speed: ``wall * REFERENCE_MS / kernel``, that is, the op's time on
a machine where this kernel takes REFERENCE_MS. The kernel mixes
number formatting, interpreter work and small numpy calls, as the ops do,
and touches nothing of the package under test, so no change to the
package can move it.
"""
import time

import numpy as np

REFERENCE_MS = 2.5  # nominal kernel time that scaled figures refer to

_VECTOR = np.arange(64) * (1.0 + 1.0j)
_MATRIX = np.outer(_VECTOR, np.conj(_VECTOR)) / 64.0
_FLOATS = [0.1 * i + 1e-3 for i in range(600)]


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel: number formatting, integer
    arithmetic in the interpreter, and small numpy products, the three kinds
    of work the ops spend their time on."""
    started = time.perf_counter()
    total = 0
    for x in _FLOATS:
        total += len(f"{x:.15g}")
    for i in range(10000):
        total += i * i % 7
    for _ in range(200):
        total += float(np.abs(_MATRIX @ _VECTOR)[3] ** 2)
    return time.perf_counter() - started


def scaled(wall: float, kernel: float) -> float:
    """Wall time converted to the fixed reference speed."""
    return wall * (REFERENCE_MS * 1e-3) / kernel
