"""Host-speed calibration: a fixed workload timed between benchmark runs.

On a shared host the CPU time of identical runs drifts by a quarter over
minutes, as other tenants load the machine.  :func:`calibrate` runs a
small discrete-event simulation written here (generator processes, a
``heapq`` event queue, dict counters and 8x8 numpy products: the same
kinds of work as the simulator) that no program change can touch.  Its
CPU time, measured before and after each run, says how fast the host is
right now; run times are rescaled to a host on which it takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import heapq
from time import process_time

import numpy as np

#: Calibration CPU time on the reference host (the scale of the
#: normalized figures: a run on a host twice as slow reads the same).
REFERENCE_S = 0.3

#: Generator processes of the calibration workload; :data:`REFERENCE_S`
#: holds for this size only.
N_PROCESSES = 400

_MATRIX = np.arange(64, dtype=np.float32).reshape(8, 8) / 64


def _process(index: int, counters: dict):
    total = 0
    for _ in range(400):
        total += (yield) or 0
        counters[index] = counters.get(index, 0) + 1
    return total


def calibrate() -> float:
    """CPU seconds of one fixed calibration workload.

    Garbage left by the caller is collected first, so that collections
    of it do not land in the measured time."""
    gc.collect()
    t0 = process_time()
    counters: dict = {}
    procs = [_process(i, counters) for i in range(N_PROCESSES)]
    queue = []
    for i, proc in enumerate(procs):
        next(proc)
        queue.append((0, i, i))
    heapq.heapify(queue)
    seq = N_PROCESSES
    block = np.ones((8, 8), dtype=np.float32)
    while queue:
        now, _, i = heapq.heappop(queue)
        try:
            procs[i].send(now)
        except StopIteration:
            continue
        if seq % 4 == 0:
            block = np.tanh(_MATRIX @ block)
        heapq.heappush(queue, (now + 1 + i % 7, seq, i))
        seq += 1
    return process_time() - t0
