"""How fast the shared host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and
their load makes the whole machine 20-90 % slower for stretches of
seconds to minutes.  CPU time goes up with wall time, so neither CPU
time nor a best-of-N removes it: a run that falls in a slow stretch
reads slow, and the best of a run is set by its rare quiet moments.

So the benchmark pairs each iteration of a workload with the
reference kernel below, timed just before and just after it, and
scales the iteration's CPU times by the kernel's quiet-host time over
its time there: CPU seconds as they would read on a quiet host.  The
kernel hashes and decodes a JSON blob larger than the private caches
(streaming) and follows a pseudo-random cycle through an 8 MiB array
(dependent loads), the two kinds of work whose slowdowns tracked the
simulator's best.  (Small-file writes like the result cache's were
tried too: their cost swings by up to 10 x on its own, out of step
with the program's, and made the scaled times less steady.)  The
kernel and its constant belong to the benchmark and never change with
the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from typing import List

#: CPU seconds the kernel takes on a quiet host (two-vCPU Xeon VM)
REFERENCE_CPU_S = 0.015

#: about 0.4 MB of JSON, hashed four times over
_BLOB = json.dumps([{"k": i, "v": [i] * 8, "s": "abc" * 4}
                    for i in range(6000)]).encode()
#: one pseudo-random cycle through 2**20 slots of 8 bytes: slot ``j``
#: holds ``(a * j + c) mod 2**20``, a full-period linear congruential
#: step (``c`` odd, ``a`` = 1 mod 4), built without a list of slots
_CYCLE_LEN = 1 << 20
_CHASE_STEPS = 100_000


def _cycle() -> array:
    mask = _CYCLE_LEN - 1
    return array("q", ((1103515245 * j + 12345) & mask
                       for j in range(_CYCLE_LEN)))


class HostSpeed:
    """Reference-kernel samples taken through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = _cycle()

    def kernel(self) -> int:
        """One call of the reference kernel."""
        digest = hashlib.sha256(_BLOB * 4).digest()
        rows = len(json.loads(_BLOB))
        nxt, j = self._next, 0
        for _ in range(_CHASE_STEPS):
            j = nxt[j]
        return rows + digest[0] + j

    def sample(self) -> float:
        """Time one kernel call in CPU seconds."""
        t0 = time.process_time()
        self.kernel()
        self.samples.append(time.process_time() - t0)
        return self.samples[-1]

    @staticmethod
    def scale(*samples: float) -> float:
        """The factor that turns CPU times measured between (or next
        to) these kernel samples into quiet-host CPU times."""
        return REFERENCE_CPU_S * len(samples) / sum(samples)
