"""Child process of the benchmark: a traced CLI run, or the sweep client.

    python perfbench/client.py cli SPANS -- <loccdist arguments>
        Runs ``loccdist.cli.main`` in this process with every layer traced
        and writes the spans to SPANS.  Stdout and the exit code are the
        CLI's own.

    python perfbench/client.py sweep POOL RESULT --seconds S
    python perfbench/client.py sweep POOL RESULT --trace-cases N --spans SPANS
        A library client over the pool of ensemble texts in POOL (one per
        line).  One case is parse_ensemble, decide and exhaustive_decide;
        cases run back to back in whole passes over the pool, for S seconds
        and at least MIN_PASSES passes, so every case runs equally often.
        Every CHUNK_CASES cases, and before the first, the client times one
        in-process reference run (reference.py).
        With --trace-cases it runs the first N cases untraced, then the
        same N traced, and writes the spans too.  Per-case results and
        timings go to RESULT.

``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from typing import Iterable

import reference
import tracing

WARMUP_CASES = 50
MIN_PASSES = 3
CHUNK_CASES = 50
REF_ROUNDS = 4  # about 0.1 s, against about 0.25 s for a chunk


def _connected(graph) -> bool:
    """Connectivity from the edge list alone, independent of OverlapGraph.blocks."""
    if not graph.members:
        return False
    adjacent: dict[str, list[str]] = {m: [] for m in graph.members}
    for a, b in graph.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = {graph.members[0]}
    todo = [graph.members[0]]
    while todo:
        for nxt in adjacent[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(graph.members)


def _certificate_ok(verdict, parties: int) -> bool:
    cert = verdict.certificate
    if cert is None:
        return verdict.kind == "distinguishable"
    return len(cert.graphs) == parties and all(
        set(g.members) == set(cert.subset) and _connected(g) for g in cert.graphs
    )


def _run_cases(texts: list[str], indices: Iterable[int], fns: dict,
               tracer: tracing.Tracer | None) -> tuple[list[list], float]:
    """Run the cases at ``indices`` back to back; rows and elapsed seconds."""
    parse, decide, oracle = fns["parse"], fns["decide"], fns["oracle"]
    rows: list[list] = []
    began = time.perf_counter()
    for k, index in enumerate(indices):
        if tracer is not None:
            tracer.request = k
        t0 = time.perf_counter()
        try:
            e = parse(texts[index])
            greedy = decide(e, "complete")
            exact = oracle(e)
        except Exception:  # a failed case is counted, the sweep goes on
            rows.append([index, (time.perf_counter() - t0) * 1e3, "error", "error", False,
                         traceback.format_exc(limit=3)])
        else:
            ms = (time.perf_counter() - t0) * 1e3
            ok = _certificate_ok(greedy, e.parties) and _certificate_ok(exact, e.parties)
            rows.append([index, ms, greedy.kind, exact.kind, ok, None])
    return rows, time.perf_counter() - began


def _reference_ms() -> float:
    t0 = time.perf_counter()
    reference.work(REF_ROUNDS)
    return (time.perf_counter() - t0) * 1e3


def _timed_sweep(texts: list[str], fns: dict, seconds: float) -> dict:
    """Whole passes of chunks, each chunk between two reference runs."""
    deadline = time.perf_counter() + seconds
    doc: dict = {"rows": [], "chunk_ms": [], "ref_ms": [_reference_ms()], "passes": 0}
    while doc["passes"] < MIN_PASSES or time.perf_counter() < deadline:
        for start in range(0, len(texts), CHUNK_CASES):
            chunk = range(start, min(start + CHUNK_CASES, len(texts)))
            rows, elapsed = _run_cases(texts, chunk, fns, None)
            doc["rows"] += rows
            doc["chunk_ms"].append(elapsed * 1e3)
            doc["ref_ms"].append(_reference_ms())
        doc["passes"] += 1
    return doc


def sweep(pool: str, result: str, seconds: float, trace_cases: int, spans: str | None) -> int:
    tracing.import_layers()
    from loccdist import distinguish, ensemble, oracle

    with open(pool, encoding="utf-8") as fh:
        texts = fh.read().splitlines()
    fns = {"parse": ensemble.parse_ensemble, "decide": distinguish.decide,
           "oracle": oracle.exhaustive_decide}
    doc: dict = {}
    if trace_cases:
        fixed = [k % len(texts) for k in range(trace_cases)]
        _run_cases(texts, fixed[:WARMUP_CASES], fns, None)  # first-call costs off the clock
        doc["rows"], doc["untraced_s"] = _run_cases(texts, fixed, fns, None)
        tracer = tracing.Tracer()
        wrapped = tracer.install()
        traced_fns = {"parse": wrapped["ensemble.parse_ensemble"],
                      "decide": wrapped["distinguish.decide"],
                      "oracle": wrapped["oracle.exhaustive_decide"]}
        traced_rows, doc["traced_s"] = _run_cases(texts, fixed, traced_fns, tracer)
        doc["rows"] += traced_rows
        tracer.write(spans)
    else:
        doc = _timed_sweep(texts, fns, seconds)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def traced_cli(spans: str, argv: list[str]) -> int:
    tracing.import_layers()
    tracer = tracing.Tracer()
    main = tracer.install()["cli.main"]
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("spans")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    sw = sub.add_parser("sweep")
    sw.add_argument("pool")
    sw.add_argument("result")
    sw.add_argument("--seconds", type=float, default=0.0)
    sw.add_argument("--trace-cases", type=int, default=0)
    sw.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return traced_cli(args.spans, argv)
    if args.trace_cases and not args.spans:
        parser.error("--trace-cases needs --spans")
    return sweep(args.pool, args.result, args.seconds, args.trace_cases, args.spans)


if __name__ == "__main__":
    sys.exit(main())
