"""Run a pass over contiguous state ranges, one range per usable CPU.

numpy and scipy release the GIL inside their element loops, so a pass over
a large array split into contiguous ranges runs on several cores; each
range is walked in cache-sized blocks.  Callers
split only passes whose per-element arithmetic does not depend on the
split: elementwise ufuncs, gathers and CSR row products written through
range views, so every output is byte-identical for any number of ranges.
Sums across states stay whole.  The threads live for one call; none
outlives it, so a fork after a call copies no thread.
"""

from __future__ import annotations

import os
import threading

# Smallest pass that is split; below it the thread starts cost more than
# the second core saves (np.take on 2-vCPU Xeon, see CHANGES.md).
FLOOR = 1 << 18
# Most states one call of fn covers.  Its temporaries stay small, so the
# malloc arenas of the short-lived threads keep no large freed blocks, and
# the rows a pass reads and writes stay in cache between its operations.
BLOCK = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


CPUS = _usable_cpus()


def split(fn, n: int) -> None:
    """Call fn(lo, hi) on consecutive blocks of at most ``BLOCK`` states
    that cover [0, n), in contiguous ranges, one per usable CPU.

    The first range runs in the calling thread and the others on threads
    that are all joined before this returns; the first exception, in range
    order, is raised here.  Passes under ``FLOOR`` run as one range."""
    k = max(1, min(CPUS, n)) if n >= FLOOR else 1
    bounds = [n * i // k for i in range(k + 1)]
    errors = [None] * k

    def run(i):
        try:
            for lo in range(bounds[i], bounds[i + 1], BLOCK):
                fn(lo, min(lo + BLOCK, bounds[i + 1]))
        except BaseException as e:  # re-raised in the caller
            errors[i] = e

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e
