"""Fixed reference work, timed next to every benchmark operation.

The test machine shares its host, whose CPU speed drifts by up to 60% for
stretches of seconds to minutes; CPU time drifts with wall time, so it is no
help.  The benchmark therefore runs this reference just before and just
after each operation, in the harness or the sweep client and never alongside
an operation, and reports the operation's time relative to theirs.  The work
is a fixed mix of what loccdist spends its time on (JSON, many small numpy
products, Python dicts and loops) and uses no loccdist code, so no change to
the program moves it.
"""

from __future__ import annotations

import json

import numpy as np

VECTORS = 3000
DICT_STEPS = 60000


def work(rounds: int) -> float:
    """``rounds`` rounds of the reference mix, each about 20 ms on one core."""
    rng = np.random.default_rng(0)
    doc = json.dumps({"v": [[float(x) for x in rng.standard_normal(8)]
                            for _ in range(VECTORS)]})
    total = 0.0
    for _ in range(rounds):
        vs = [np.array(v) for v in json.loads(doc)["v"]]
        for a, b in zip(vs, vs[1:]):
            total += abs(complex(np.vdot(a, b)))
        tally: dict[int, int] = {}
        for i in range(DICT_STEPS):
            tally[i % 251] = tally.get(i % 251, 0) + i
        total += len(tally)
    return total
