"""The package's record types: plain classes on :class:`loccdist.records.Record`.

Importing the CLI loads no ``dataclasses``; every record refuses assignment
and deletion; records with value equality compare and hash by their fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections.abc import Hashable
from pathlib import Path

import numpy as np
import pytest

import loccdist
from loccdist import (
    builtin_protocol,
    catalog,
    decide,
    lift_protocol,
    random_product_basis,
    run_protocol,
    validate,
)
from loccdist.distinguish import StepOutcome
from loccdist.linalg import svd_decompose
from loccdist.oracle import enumerate_valid_partitions
from loccdist.records import Record
from loccdist.relativity import components, overlap_graph
from loccdist.simulate import (
    Instrument,
    LocalOperator,
    SimLeaf,
    SimNode,
    emit_sim_protocol,
    parse_sim_protocol,
)


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    script = "import sys, loccdist.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"


def _one_of_each() -> dict[str, Record]:
    """One instance of every record type, built through the public functions."""
    b9, c4 = catalog("bennett9"), catalog("comp2x2")
    stuck, split = decide(b9, "complete"), decide(c4, "complete")
    sim = lift_protocol(split.tree, c4)
    records = [
        b9, b9.states[0], validate(b9), stuck, stuck.trace, stuck.certificate,
        stuck.certificate.graphs[0], split.tree, split.tree.step, split.tree.step.outcomes[0],
        split.tree.children[0].children[0], components(overlap_graph(c4, c4.labels, 0)),
        svd_decompose(np.eye(2)), enumerate_valid_partitions(c4, c4.labels, 0), sim,
        sim.instrument, sim.instrument.operators[0], SimLeaf(None), run_protocol(c4, sim),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _one_of_each()


def test_every_record_type_is_covered():
    assert set(RECORDS) == {cls.__name__ for cls in Record.__subclasses__()}
    assert len(RECORDS) == 19


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name]
    field = type(record)._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    assert "unknown" not in record.__dict__


def _changed(record: Record, **fields) -> Record:
    """A new build of ``record``'s type with ``fields`` changed and the other fields kept."""
    return type(record)(**{**{f: getattr(record, f) for f in type(record)._fields}, **fields})


_C4 = catalog("comp2x2")
_OPS = (LocalOperator(0, np.diag([1.0, 0.0])), LocalOperator(0, np.diag([0.0, 1.0])))
_SIM = lift_protocol(decide(_C4, "complete").tree, _C4)

# two builds of each are equal; a build with these fields changed is not
EQUAL_BUILDS = {
    "Verdict": (lambda: decide(catalog("comp2x2"), "complete"), {"kind": "unknown"}),
    "ValidationReport": (lambda: validate(catalog("bennett9")), {"complete_count": False}),
    "Instrument": (lambda: Instrument(0, _OPS), {"operators": _OPS[::-1]}),
    "SimNode": (lambda: SimNode(Instrument(0, _OPS), (SimLeaf("a"), SimLeaf("b"))),
                {"children": (SimLeaf("a"), SimLeaf(None))}),
    "DiscriminationReport": (lambda: run_protocol(_C4, _SIM), {"perfect": False}),
}


@pytest.mark.parametrize("name", sorted(EQUAL_BUILDS))
def test_equal_builds_compare_and_hash_equal(name):
    build, fields = EQUAL_BUILDS[name]
    a, b = build(), build()
    c = _changed(a, **fields)
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != c and c != a and _changed(a) == a
    if name == "DiscriminationReport":
        # its fields are dicts, so it is declared unhashable
        assert type(a).__hash__ is None and not isinstance(a, Hashable)
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and {a, b} == {a}


def _operators(root) -> list[LocalOperator]:
    """Every operator of an instrument tree, in pre-order."""
    if isinstance(root, SimLeaf):
        return []
    return [*root.instrument.operators, *(op for c in root.children for op in _operators(c))]


# the finkelstein9 POVM tree holds dense operators and, in its projective
# continuations, basis and complement ones
_F9 = catalog("finkelstein9")
_F9_TEXT = emit_sim_protocol(builtin_protocol("finkelstein-povm", _F9))


def test_replay_trees_compare_and_hash_by_value():
    a, b = parse_sim_protocol(_F9_TEXT), parse_sim_protocol(_F9_TEXT)
    kinds = {(op.basis is not None, op.complement) for op in _operators(a)}
    assert kinds == {(False, False), (True, False), (False, True)}
    assert a == b and hash(a) == hash(b)
    e = random_product_basis((3, 3, 3), 1, depth=6)  # spans of two rows among them
    v = decide(e, "complete")
    lifted = lift_protocol(v.tree, e), lift_protocol(v.tree, e)
    assert lifted[0] == lifted[1] and hash(lifted[0]) == hash(lifted[1])
    assert lifted[0] != a


def _with_one_entry_changed(doc, key):
    """A copy of the protocol document ``doc`` with the first number under ``key`` nudged."""
    doc = json.loads(json.dumps(doc))
    todo = [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict) and key in node:
            pair = node[key][0]
            while isinstance(pair[0], list):
                pair = pair[0]
            pair[0] += 1e-3
            return doc
        todo.extend(reversed(node.get("operators", []) + node.get("children", [])))
    raise AssertionError(f"no {key!r} in the protocol")


@pytest.mark.parametrize("key", ["entries", "basis"])
def test_one_changed_operator_entry_makes_replay_trees_unequal(key):
    doc = json.loads(_F9_TEXT)
    changed = parse_sim_protocol(_with_one_entry_changed(doc, key), decoded=True)
    assert changed != parse_sim_protocol(_F9_TEXT)
    assert parse_sim_protocol(doc, decoded=True) == parse_sim_protocol(_F9_TEXT)


def test_an_operator_compares_its_party_flags_matrix_and_basis():
    p, q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    e0, e1 = np.eye(2)[:1], np.eye(2)[1:]
    op = LocalOperator(0, p, basis=e0)
    assert op == LocalOperator(0, p, basis=e0.copy()) and hash(op) == hash(LocalOperator(0, p))
    for other in (LocalOperator(1, p, basis=e0), LocalOperator(0, q, basis=e0),
                  LocalOperator(0, p), LocalOperator(0, p, basis=e1),
                  LocalOperator(0, p, basis=e0, complement=True)):
        assert op != other and other != op


@pytest.mark.parametrize(
    "build", [lambda x: LocalOperator(0, x), lambda x: StepOutcome(("a", "b"), x)],
    ids=["LocalOperator", "StepOutcome"],
)
def test_signed_zeros_compare_and_hash_equal(build):
    # np.array_equal finds -0.0 equal to 0.0, so the hash must too
    a, b = build(np.array([[1.0, -0.0], [-0.0, 0.0]])), build(np.diag([1.0, 0.0]))
    assert a == b and hash(a) == hash(b)
