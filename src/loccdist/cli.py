"""Command line interface.

Subcommands: check, catalog, simulate, decompose, oracle.  Exit codes carry
the verdict (0 distinguishable or success, 1 indistinguishable or imperfect,
2 unknown) and failures are split into usage (64), data (65), internal
numerical (70) and output (74, stdout closed early or ``--out`` unwritable)
classes.  All JSON output is canonical and echoes the tolerance in use.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Sequence

from .distinguish import (
    TraceLeaf,
    TraceNode,
    TraceStuck,
    Verdict,
    decide,
    protocol_from_json,
    verdict_to_json,
)
from .ensemble import (
    CATALOG_NAMES,
    Ensemble,
    catalog,
    emit_ensemble,
    ensure_complete,
    parse_ensemble,
    random_product_basis,
)
from .errors import (
    LoccError,
    NotFoundError,
    NumericalInstabilityError,
    SchemaError,
    TooLargeError,
)
from .jsonio import canonical_dumps, complex_to_json, parse_json
from .linalg import DEFAULT_TOL, parse_matrix, svd_decompose
from .oracle import _require_small, exhaustive_decide
from .simulate import (
    BUILTIN_PROTOCOL_NAMES,
    SimTree,
    builtin_protocol,
    lift_protocol,
    parse_sim_protocol,
    report_to_json,
    run_protocol,
)

__all__ = [
    "EXIT_DATA",
    "EXIT_INDISTINGUISHABLE",
    "EXIT_INTERNAL",
    "EXIT_IOERR",
    "EXIT_OK",
    "EXIT_UNKNOWN",
    "EXIT_USAGE",
    "entry",
    "main",
]

EXIT_OK = 0
EXIT_INDISTINGUISHABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_IOERR = 74


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoccError(f"cannot read {path}: {exc}") from None


def _resolve_tol(args: argparse.Namespace) -> float:
    """``--tol``, else ``LOCC_TOL``, else the default; a number above 0 and below 1.

    At a tolerance of 1 or more no unit vector is told from zero.
    """
    source, value = "--tol", args.tol
    if value is None:
        source, env = "LOCC_TOL", os.environ.get("LOCC_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            value = float(env)
        except ValueError:
            raise _UsageError(f"LOCC_TOL is not a number: {env!r}") from None
    if not 0 < value < 1:
        raise _UsageError(f"{source} must be a finite positive number below 1, got {value!r}")
    return value


def _render_trace(node: TraceNode, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(node, TraceLeaf):
        return [f"{pad}identified {node.label}"]
    if isinstance(node, TraceStuck):
        labels = " ".join(node.certificate.subset)
        return [
            f"{pad}stuck: {len(node.certificate.subset)} states "
            f"{{{labels}}} with every party's graph connected"
        ]
    outcomes = node.step.outcomes
    lines = [
        f"{pad}measure party {node.step.party}: "
        f"{len(outcomes)} outcomes over {sum(len(o.block) for o in outcomes)} states"
    ]
    for i, (outcome, child) in enumerate(zip(outcomes, node.children)):
        labels = " ".join(outcome.block)
        lines.append(f"{pad}  outcome {i} keeps {{{labels}}}:")
        lines.extend(_render_trace(child, indent + 2))
    return lines


def _verdict_exit(v: Verdict) -> int:
    if v.kind == "distinguishable":
        return EXIT_OK
    if v.kind == "indistinguishable":
        return EXIT_INDISTINGUISHABLE
    return EXIT_UNKNOWN


def _cmd_check(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    e = parse_ensemble(_read_file(args.ensemble), tol)
    mode = args.mode
    if mode == "auto":
        mode = "complete" if e.complete else "incomplete"
    v = decide(e, mode, tol)
    if args.json:
        doc: dict = {"tol": tol, "mode": mode}
        doc.update(verdict_to_json(v))
        print(canonical_dumps(doc))
    else:
        human = {"distinguishable": "distinguishable",
                 "indistinguishable": "indistinguishable",
                 "unknown": "unknown (projective-stuck)"}[v.kind]
        # the trace is built and rendered before anything is printed
        lines = _render_trace(v.trace) if args.trace else []
        print("\n".join([human, *lines]))
    return _verdict_exit(v)


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        if (args.name, args.out, args.tol) != (None, None, None):
            raise _UsageError("catalog list takes no NAME, --out or --tol")
        for name in CATALOG_NAMES:
            print(name)
        return EXIT_OK
    if not args.name:
        raise _UsageError("catalog emit requires a NAME")
    tol = _resolve_tol(args)
    try:
        e = catalog(args.name)
    except NotFoundError as exc:
        raise _UsageError(str(exc)) from None
    text = emit_ensemble(e, tol)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IOERR
    else:
        print(text)
    return EXIT_OK


def _read_protocol(path: str, e: Ensemble, tol: float) -> SimTree:
    """An instrument-tree file, or a ``check --json`` verdict (no tree node) lifted onto e."""
    doc = parse_json(_read_file(path))
    verdict = isinstance(doc, dict) and "verdict" in doc and "announce" not in doc
    if not verdict or {"party", "operators", "children"} <= doc.keys():
        return parse_sim_protocol(doc, decoded=True)
    if "protocol" not in doc:
        raise SchemaError(f"{path}: the verdict carries no protocol to replay")
    return lift_protocol(protocol_from_json(doc["protocol"]), e, tol)


def _cmd_simulate(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    if (args.protocol is None) == (args.builtin is None):
        raise _UsageError("provide exactly one of PROTOCOL or --builtin")
    e = parse_ensemble(_read_file(args.ensemble), tol)
    if args.builtin is not None:
        try:
            root = builtin_protocol(args.builtin, e, tol)
        except NotFoundError as exc:
            raise _UsageError(str(exc)) from None
    else:
        root = _read_protocol(args.protocol, e, tol)
    report = run_protocol(e, root, tol)
    doc: dict = {"tol": tol}
    doc.update(report_to_json(report))
    print(canonical_dumps(doc))
    return EXIT_OK if report.perfect else EXIT_INDISTINGUISHABLE


def _cmd_decompose(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    matrix = parse_matrix(parse_json(_read_file(args.matrix)))
    svd = svd_decompose(matrix, tol)
    doc = {
        "tol": tol,
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "sigmas": [float(s) for s in svd.sigmas],
        "rank": svd.rank,
        "physical": all(s <= 1.0 + tol for s in svd.sigmas),
        "left": complex_to_json(svd.left),
        "right": complex_to_json(svd.right),
    }
    print(canonical_dumps(doc))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    if args.ensemble is not None:
        if args.seed_sweep is not None:
            raise _UsageError("give either an ensemble path or --seed-sweep, not both")
        if args.dims is not None or args.depth is not None:
            raise _UsageError("--dims and --depth go with --seed-sweep, not an ensemble path")
        ensembles = [parse_ensemble(_read_file(args.ensemble), tol)]
    else:
        if args.seed_sweep is None:
            raise _UsageError("oracle needs an ensemble path or --seed-sweep")
        if args.seed_sweep < 1:
            raise _UsageError(f"--seed-sweep must be a positive count, got {args.seed_sweep}")
        if not args.dims:
            raise _UsageError("--seed-sweep requires --dims, e.g. --dims=2,3")
        try:
            dims = tuple(int(part) for part in args.dims.split(","))
        except ValueError:
            raise _UsageError(f"cannot parse --dims={args.dims!r}") from None
        if min(dims) < 1:
            raise _UsageError(f"--dims must be positive integers, got {args.dims!r}")
        depth = 3 if args.depth is None else args.depth
        if depth < 0:
            raise _UsageError(f"--depth must be non-negative, got {depth}")
        _require_small(math.prod(dims))  # before any basis is generated
        # one basis at a time: each dies with its memo before the next is made
        ensembles = (random_product_basis(dims, seed, depth)
                     for seed in range(args.seed_sweep))
    cases = []
    for e in ensembles:
        _require_small(len(e.labels))
        ensure_complete(e, tol)  # refused before any search; decide reuses the validation
        greedy = decide(e, "complete", tol)
        oracle = exhaustive_decide(e, tol)
        cases.append(
            {
                "name": e.name,
                "decide": greedy.kind,
                "oracle": oracle.kind,
                "agree": greedy.kind == oracle.kind,
            }
        )
    agree = all(c["agree"] for c in cases)
    print(canonical_dumps({"tol": tol, "agree": agree, "cases": cases}))
    return EXIT_OK if agree else EXIT_INDISTINGUISHABLE


def _build_parser() -> _Parser:
    parser = _Parser(prog="loccdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide distinguishability of an ensemble file")
    check.add_argument("ensemble", help="path to an ensemble JSON file")
    check.add_argument("--mode", choices=("auto", "complete", "incomplete"), default="auto")
    check.add_argument("--tol", type=float, default=None)
    form = check.add_mutually_exclusive_group()
    form.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    form.add_argument("--trace", action="store_true", help="print the exploration tree")
    check.set_defaults(func=_cmd_check)

    cat = sub.add_parser("catalog", help="list or emit built-in ensembles")
    cat.add_argument("action", choices=("list", "emit"))
    cat.add_argument("name", nargs="?", default=None)
    cat.add_argument("--out", default=None)
    cat.add_argument("--tol", type=float, default=None)
    cat.set_defaults(func=_cmd_catalog)

    sim = sub.add_parser("simulate", help="run a measurement protocol file on an ensemble")
    sim.add_argument("ensemble")
    sim.add_argument("protocol", nargs="?", default=None)
    sim.add_argument(
        "--builtin",
        default=None,
        help=f"named built-in protocol ({', '.join(BUILTIN_PROTOCOL_NAMES)})",
    )
    sim.add_argument("--tol", type=float, default=None)
    sim.set_defaults(func=_cmd_simulate)

    dec = sub.add_parser("decompose", help="canonical SVD of an operator matrix file")
    dec.add_argument("matrix")
    dec.add_argument("--tol", type=float, default=None)
    dec.set_defaults(func=_cmd_decompose)

    orc = sub.add_parser("oracle", help="cross-check the decision against exhaustive search")
    orc.add_argument("ensemble", nargs="?", default=None)
    orc.add_argument("--seed-sweep", type=int, default=None, metavar="N")
    orc.add_argument("--dims", default=None, help="comma separated local dimensions")
    orc.add_argument("--depth", type=int, default=None, help="generator depth (default 3)")
    orc.add_argument("--tol", type=float, default=None)
    orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the exit flush writes what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return EXIT_IOERR
    except (_UsageError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: a tree nests deeper than the recursion limit ({limit})", file=sys.stderr)
        return EXIT_USAGE
    except NumericalInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:  # not a verdict: 1 would read as "imperfect"
        print("error: memory exhausted" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_INTERNAL
    except LoccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    """The console script: :func:`main` on ``sys.argv``, exiting with its code.

    Everything alive once the modules are imported lives until exit, so it
    is frozen first: ``gc.freeze`` keeps the collector, during the run and
    at interpreter teardown, from walking those objects again.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
