"""The package's record types: plain classes on :class:`loccdist.records.Record`.

Importing the CLI loads no ``dataclasses``; every record refuses assignment
and deletion; records with value equality compare and hash by their fields.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loccdist
from loccdist import catalog, decide, lift_protocol, run_protocol, validate
from loccdist.linalg import svd_decompose
from loccdist.oracle import enumerate_valid_partitions
from loccdist.records import Record
from loccdist.relativity import components, overlap_graph
from loccdist.simulate import Instrument, LocalOperator, SimLeaf, SimNode


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
        # its fields are dicts, so it is unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and {a, b} == {a}
