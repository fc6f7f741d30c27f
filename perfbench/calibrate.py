"""Fixed loops: the benchmark's yardsticks for host speed.

run.py runs one in a fresh process next to every job and reports a job's
CPU seconds in units of the loop's CPU seconds, so that a host that runs
everything slower for a while does not read as a slower serp.

    python3 perfbench/calibrate.py          # pure Python
    python3 perfbench/calibrate.py numpy    # numpy slicing

The pure-Python loop does what the serp engines mostly do: remainders of
one large integer by a run of small ones.  The numpy loop sieves a
boolean array of 1e7 entries, as the density kernels do; the host's slow
periods slow that kind of work much less.
"""

import sys

if sys.argv[1:] == ["numpy"]:
    import numpy as np

    for _ in range(3):
        mask = np.ones(10**7 + 1, dtype=np.bool_)
        for p in range(2, 3163):
            if mask[p]:
                mask[p * p :: p] = False
    print(int(mask.sum()))
else:
    N = 5 * 1_000_081 * 77 + 1
    hits = 0
    for _ in range(40):
        for r in range(4, 200_000, 5):
            if N % r == 0:
                hits += 1
    print(hits)
