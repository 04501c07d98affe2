"""The benchmark's tracer still finds every function and tree type it reads.

``perfbench/tracing.py`` wraps library functions by name in the modules
that bind them, and counts the splits and stuck blocks of decide's trace by
node type.  A renamed function makes ``install`` raise; a renamed node type
would make the counts read zero.  The tracer runs in a child process, so the
wrapped functions never leak into the other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import loccdist

CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from loccdist import TraceSplit, TraceStuck, catalog, random_product_basis

def shape(node):
    if isinstance(node, TraceStuck):
        return {"splits": 0, "stuck_blocks": 1, "max_depth": 0}
    if not isinstance(node, TraceSplit):
        return {"splits": 0, "stuck_blocks": 0, "max_depth": 0}
    kids = [shape(child) for child in node.children]
    return {"splits": 1 + sum(k["splits"] for k in kids),
            "stuck_blocks": sum(k["stuck_blocks"] for k in kids),
            "max_depth": 1 + max(k["max_depth"] for k in kids)}

tracing.import_layers()
tracer = tracing.Tracer()
decide = tracer.install()["distinguish.decide"]
out = []
for e in (catalog("bennett9"), catalog("cube64"), random_product_basis((4, 4, 4), 3, depth=6)):
    v = decide(e, "complete")
    recorded = [s["counts"] for s in tracer.spans if s["name"] == "distinguish.decide"][-1]
    out.append([e.name, recorded, tracing._trace_shape(v), shape(v.trace)])
print(json.dumps(out))
"""


def test_tracer_binds_every_target_and_counts_the_trace():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "perfbench")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cases = json.loads(proc.stdout)
    for name, recorded, counted, walked in cases:
        assert recorded == counted == walked, name
    walked = {name: walked for name, _, _, walked in cases}
    assert walked["bennett9"] == {"splits": 0, "stuck_blocks": 1, "max_depth": 0}
    assert walked["cube64"] == {"splits": 1, "stuck_blocks": 4, "max_depth": 1}
    random = walked["random-4x4x4-seed3-depth6"]
    assert random["stuck_blocks"] == 0 and random["max_depth"] >= 2
