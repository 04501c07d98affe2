"""loccdist benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is driven only through its public
surface: the CLI as ``python -m loccdist.cli`` with ``src`` on the path, and
the functions in each module's ``__all__``.  Every workload is a closed loop
with one client; each operation starts when the previous one returns.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separate traced run.  Operation
times are reported relative to fixed reference work (reference.py) timed
just before and after each operation, which cancels the drift of a shared
host's CPU speed; the raw times are printed too.  The full record of the run
(inputs, samples, stdout digests, machine) is written to
``perfbench/.work/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CLI = [sys.executable, "-m", "loccdist.cli"]

WORKLOADS = ("check-large", "replay-large", "sweep-small")
# Set-ups per run; setup_s is their median.  replay-large sets up only twice
# because each set-up runs decide on n=1000 (about 10 s), and every run of the
# benchmark has to fit the time budget.  A check-large set-up takes about 0.3 s,
# short enough for a slow stretch of the machine to move a median of three.
SETUP_REPEATS = {"check-large": 9, "replay-large": 2, "sweep-small": 3}
STARTUP_REPEATS = 3
# A CLI run makes at least this many operations, even past --seconds.
MIN_OPS = 3
# Rounds of perfbench/reference.py run in this process before and after every CLI
# operation: about 0.3 s.
REF_ROUNDS = 16
TRACE_SWEEP_CASES = 300
OP_TIMEOUT_S = 150.0
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
UNITS = {"setup_s": "s", "op_rel_ref": "ratio", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "ops_per_s": "1/s", "ref_ms_p50": "ms", "peak_rss_mb": "MB"}
# Printed, not reported as metrics.  The shared host's CPU speed drifts by up to
# 60% for stretches of seconds to minutes, and raw times follow it from run to
# run; op_rel_ref, timed against the reference runs around each operation, does
# not.  A CLI run also has too few operations for a tail percentile, and with
# one closed-loop client ops_per_s is 1/mean latency.
INFO_ONLY = ("op_ms_p50", "op_ms_p90", "ops_per_s", "ref_ms_p50")
LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_frac": "ratio", "_yield": "ratio"}


@dataclass
class Op:
    """One finished subprocess."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("LOCC_TOL", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # reuse compiled modules, as an install would
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], name: str) -> Op:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    out, err = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
              out, err)


def cli(args: list[str], name: str) -> Op:
    return spawn(CLI + args, name)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def write_inputs(workload: str, seed: int) -> list[dict]:
    """Generate and write every input of the workload; returns their records."""
    import inputs

    if workload == "check-large":
        case = inputs.check_input(seed)
        (WORK / "ensemble.json").write_text(case.text + "\n", encoding="utf-8")
        return [case.record]
    if workload == "replay-large":
        case, protocol = inputs.replay_inputs(seed)
        (WORK / "ensemble.json").write_text(case.text + "\n", encoding="utf-8")
        (WORK / "protocol.json").write_text(protocol + "\n", encoding="utf-8")
        return [dict(case.record, protocol_bytes=len(protocol))]
    pool = inputs.sweep_pool(seed)
    (WORK / "pool.jsonl").write_text("".join(c.text + "\n" for c in pool), encoding="utf-8")
    return [c.record for c in pool]


def setup(workload: str, seed: int, repeats: int, details: dict) -> list[dict]:
    """Set up ``repeats`` times; the times go to details["setup_s"]."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        records = write_inputs(workload, seed)
        times.append(time.perf_counter() - t0)
    details["setup_s"] = times
    details["inputs"] = records if workload != "sweep-small" else summarize_pool(records)
    return records


def summarize_pool(records: list[dict]) -> dict:
    mix: dict[str, int] = {}
    for r in records:
        key = f"{'x'.join(map(str, r['dims']))} depth {r['depth']} {r['expected']}"
        mix[key] = mix.get(key, 0) + 1
    return {"cases": len(records), "mix": mix, "first": records[:3]}


# ---------------------------------------------------------------------------
# correctness checks, all outside the timed region


def check_verdict_output(text: str, ensemble_text: str) -> str | None:
    """check --json must say distinguishable and its protocol must replay perfectly."""
    from loccdist.distinguish import parse_protocol
    from loccdist.ensemble import parse_ensemble
    from loccdist.simulate import lift_protocol, run_protocol

    doc = json.loads(text)
    if doc.get("verdict") != "distinguishable" or doc.get("mode") != "complete":
        return f"verdict {doc.get('verdict')!r} in mode {doc.get('mode')!r}"
    e = parse_ensemble(ensemble_text, doc["tol"])
    tree = parse_protocol(json.dumps(doc["protocol"]))
    report = run_protocol(e, lift_protocol(tree, e, doc["tol"]), doc["tol"])
    return None if report.perfect else "emitted protocol does not replay perfectly"


def check_report_output(text: str, ensemble_text: str) -> str | None:
    """simulate must report a perfect run with every state's total at 1."""
    doc = json.loads(text)
    tol = doc["tol"]
    if doc.get("perfect") is not True:
        return "report is not perfect"
    n = len(json.loads(ensemble_text)["states"])
    if len(doc["states"]) != n:
        return f"report covers {len(doc['states'])} of {n} states"
    bad = [s["label"] for s in doc["states"] if abs(s["total"] - 1.0) > tol]
    return f"totals off 1 for {bad[:5]}" if bad else None


CHECKERS = {"check-large": check_verdict_output, "replay-large": check_report_output}


class OutputChecker:
    """Checks each distinct stdout once; identical bytes share the verdict."""

    def __init__(self, check, ensemble_text: str) -> None:
        self.check = check
        self.ensemble = ensemble_text
        self.verdicts: dict[str, str | None] = {}
        self.digests: dict[str, int] = {}

    def __call__(self, op: Op) -> str | None:
        from loccdist.errors import LoccError

        if op.code != 0:
            return f"exit {op.code}: {op.stderr.read_text(errors='replace').strip()[:200]}"
        key = digest(op.stdout)
        self.digests[key] = self.digests.get(key, 0) + 1
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.check(op.stdout.read_text(encoding="utf-8"),
                                                self.ensemble)
            except (ValueError, KeyError, TypeError, LoccError) as exc:
                self.verdicts[key] = f"unreadable output: {exc!r}"
        return self.verdicts[key]


def sweep_problem(row: list, record: dict) -> str | None:
    index, _, greedy, exact, certs_ok, error = row
    if error:
        return f"case {index} raised: {error.strip().splitlines()[-1]}"
    if not greedy == exact == record["expected"]:
        return f"case {index} ({record['name']}): decide {greedy}, oracle {exact}, " \
               f"expected {record['expected']}"
    if not certs_ok:
        return f"case {index} ({record['name']}): certificate graph not connected"
    return None


# ---------------------------------------------------------------------------
# workloads


def cli_args(workload: str) -> list[str]:
    ens = str(WORK / "ensemble.json")
    if workload == "check-large":
        return ["check", "--json", ens]
    return ["simulate", ens, str(WORK / "protocol.json")]


def latency_metrics(walls_ms: list[float], timed_ms: list[float],
                    refs_ms: list[float]) -> dict[str, float]:
    """Latencies of single operations (walls_ms) and op_rel_ref, the median of
    timed_ms[i] / mean(refs_ms[i], refs_ms[i + 1]): each timed stretch ran
    between those two reference runs."""
    rel = [t / ((a + b) / 2) for t, a, b in zip(timed_ms, refs_ms, refs_ms[1:])]
    p90 = (statistics.quantiles(walls_ms, n=10, method="inclusive")[8]
           if len(walls_ms) > 1 else walls_ms[0])
    return {"op_rel_ref": statistics.median(rel),
            "op_ms_p50": statistics.median(walls_ms), "op_ms_p90": p90,
            "ops_per_s": len(walls_ms) / (sum(timed_ms) / 1e3),
            "ref_ms_p50": statistics.median(refs_ms)}


def reference_ms() -> float:
    """One reference run, here in the harness while no child runs."""
    import reference

    t0 = time.perf_counter()
    reference.work(REF_ROUNDS)
    return (time.perf_counter() - t0) * 1e3


def workload_checker(workload: str) -> OutputChecker:
    ensemble_text = (WORK / "ensemble.json").read_text(encoding="utf-8")
    return OutputChecker(CHECKERS[workload], ensemble_text)


def measure_cli(workload: str, seconds: float, tally: Tally, details: dict) -> dict:
    checker = workload_checker(workload)
    ops: list[Op] = []
    refs = [reference_ms()]
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        ops.append(cli(cli_args(workload), "op"))
        tally.record(checker(ops[-1]))
        refs.append(reference_ms())
    walls = [op.wall_s * 1e3 for op in ops]
    details["op_ms"] = walls
    details["op_cpu_ms"] = [op.cpu_s * 1e3 for op in ops]
    details["ref_ms"] = refs
    details["stdout_sha256"] = checker.digests
    return dict(latency_metrics(walls, walls, refs), peak_rss_mb=max(op.rss_mb for op in ops))


def sweep_argv(*extra: str) -> list[str]:
    return [sys.executable, str(HERE / "client.py"), "sweep", str(WORK / "pool.jsonl"),
            str(WORK / "sweep.json"), *extra]


def run_sweep(argv: list[str], records: list[dict], tally: Tally) -> tuple[dict, Op]:
    op = spawn(argv, "sweep")
    if op.code != 0:
        raise RuntimeError(f"sweep client exited {op.code}: "
                           f"{op.stderr.read_text(errors='replace')[-2000:]}")
    doc = json.loads((WORK / "sweep.json").read_text(encoding="utf-8"))
    for row in doc["rows"]:
        tally.record(sweep_problem(row, records[row[0]]))
    return doc, op


def measure_sweep(seconds: float, records: list[dict], tally: Tally, details: dict) -> dict:
    doc, op = run_sweep(sweep_argv("--seconds", repr(seconds)), records, tally)
    details["cases_run"] = len(doc["rows"])
    details["passes"] = doc["passes"]
    details["chunk_ms"], details["ref_ms"] = doc["chunk_ms"], doc["ref_ms"]
    details["case_mix"] = {
        kind: sum(1 for row in doc["rows"] if records[row[0]]["expected"] == kind)
        for kind in ("distinguishable", "indistinguishable")
    }
    return dict(latency_metrics([row[1] for row in doc["rows"]], doc["chunk_ms"], doc["ref_ms"]),
                peak_rss_mb=op.rss_mb)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, details: dict) -> dict:
    records = setup(workload, seed, SETUP_REPEATS[workload], details)
    cli(["catalog", "list"], "warmup")  # compiles and caches the modules before timing
    if workload == "sweep-small":
        metrics = measure_sweep(seconds, records, tally, details)
    else:
        metrics = measure_cli(workload, seconds, tally, details)
    metrics["setup_s"] = statistics.median(details["setup_s"])
    return metrics


def self_test() -> str | None:
    """A non-orthogonal ensemble must count as one failed op (exit 65), not crash."""
    import inputs

    path = WORK / "bad.json"
    path.write_text(inputs.bad_input() + "\n", encoding="utf-8")
    checker = OutputChecker(check_verdict_output, "")
    tally = Tally()
    op = cli(["check", "--json", str(path)], "bad")
    tally.record(checker(op))
    if op.code == 65 and (tally.attempted, tally.failed) == (1, 1):
        return None
    return f"bad input gave exit {op.code}, attempted {tally.attempted}, failed {tally.failed}"


def traced(workload: str, seed: int, seconds: float, tally: Tally, details: dict) -> dict:
    import tracing

    records = setup(workload, seed, 1, details)
    startup = [cli(["catalog", "list"], "startup").wall_s for _ in range(STARTUP_REPEATS)]
    details["self_test"] = self_test() or "ok: exit 65 counted as 1 failed of 1 attempted"
    if not details["self_test"].startswith("ok"):
        tally.problems.append(f"self-test: {details['self_test']}")
    spans_path = WORK / "spans.json"
    if workload == "sweep-small":
        doc, _ = run_sweep(sweep_argv("--trace-cases", str(TRACE_SWEEP_CASES),
                                      "--spans", str(spans_path)), records, tally)
        untraced_s, traced_s = doc["untraced_s"], doc["traced_s"]
    else:
        # Untraced and traced ops alternate for --seconds; the spans are the last traced op's.
        checker = workload_checker(workload)
        traced_argv = [sys.executable, str(HERE / "client.py"), "cli", str(spans_path), "--"]
        plain: list[float] = []
        wrapped: list[float] = []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            for walls, argv in ((plain, CLI), (wrapped, traced_argv)):
                done = spawn(argv + cli_args(workload), "op")
                tally.record(checker(done))
                walls.append(done.wall_s)
        untraced_s, traced_s = statistics.median(plain), statistics.median(wrapped)
        details["stdout_sha256"] = checker.digests
        details["op_pairs"] = len(plain)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics = tracing.layer_metrics(spans)
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    details["spans"] = len(spans)
    details["untraced_s"], details["traced_s"] = untraced_s, traced_s
    details["self_time_sum_s"] = tracing.self_time_sum(spans)
    return metrics


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def report(workload: str, args: argparse.Namespace, metrics: dict, tally: Tally,
           details: dict) -> dict:
    details.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   machine=machine(), attempted=tally.attempted, failed=tally.failed,
                   problems=tally.problems)
    details["metrics"] = metrics
    results = WORK / f"results-{workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine {json.dumps(details['machine'])}")
    if "inputs" in details and isinstance(details["inputs"], list):
        for record in details["inputs"]:
            print(f"input {json.dumps(record)}")
    if workload == "sweep-small" and "inputs" in details:
        print(f"input pool {details['inputs']['cases']} cases: "
              f"{json.dumps(details['inputs']['mix'])}")
    for key, count in details.get("stdout_sha256", {}).items():
        print(f"stdout sha256 {key} x{count}")
    samples = len(details.get("op_ms", [])) or details.get("cases_run", 0)
    bracketed = len(details.get("ref_ms", [])) - 1
    for name, value in metrics.items():
        if name == "op_rel_ref":
            note = f"  (n={bracketed} {'chunks' if workload == 'sweep-small' else 'ops'})"
        else:
            note = f"  (n={samples})" if name.startswith("op") and samples else ""
        note += "  (printed only)" if name in INFO_ONLY else ""
        print(f"{name:34s} {value:14.6g} {unit(name)}{note}")
    if args.trace:
        # A CLI operation also pays interpreter start-up; the sweep client does not.
        startup = metrics["cli.startup_s"] if workload != "sweep-small" else 0.0
        accounted = details["self_time_sum_s"] + startup
        print(f"trace: {details['spans']} spans; layer self times {details['self_time_sum_s']:.3f}"
              f" s + start-up {startup:.3f} s = {accounted:.3f} s against untraced "
              f"{details['untraced_s']:.3f} s ({accounted / details['untraced_s'] - 1:+.1%})"
              f" and traced {details['traced_s']:.3f} s")
        print(f"self-test: {details['self_test']}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'error_rate':34s} {rate:14.6g} ratio  ({tally.failed} failed of "
          f"{tally.attempted} attempted; printed only)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(f"results written to {results.relative_to(ROOT)}")
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items() if name not in INFO_ONLY},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loccdist" / "cli.py").is_file():
        print(f"error: no loccdist sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # A terminated run stops its current child too (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_THREADS)
    # One CPU for the harness and every child, so that an operation and the
    # reference runs around it see the same processor: on the shared host the
    # CPUs of this machine slow down at different times.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import inputs  # noqa: F401  (loads loccdist and numpy before anything is timed)

    WORK.mkdir(parents=True, exist_ok=True)

    tally, details = Tally(), {}
    if args.trace:
        metrics = traced(args.workload, args.seed, args.seconds, tally, details)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally, details)
    line = report(args.workload, args, metrics, tally, details)
    for leftover in WORK.iterdir():
        if not leftover.name.startswith("results-"):
            leftover.unlink()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
