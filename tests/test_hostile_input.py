"""The exit-code contract under hostile structure: mutated documents through ``cli.main``.

Seed documents that the program writes (a catalog emit, a random basis, its
verdict, its lifted instrument tree, the finkelstein-povm tree and three
matrices) are mutated: a value is swapped for a hostile one, a key is
dropped, a list entry is deleted or duplicated.  The mutated value is
often an int of an object, and an int is most often swapped for a
near-int such as a bool (in a 1 x 1 matrix either size set to true still
counts its one entry) or for the party one past the seed's last.  Each
example runs one subcommand in-process with numpy warnings turned into
errors.  No exception may escape ``main``, the exit code is a verdict (0,
1, 2) or a failure class (64, 65, 70, 74), and a failure writes exactly
one ``error:`` line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    builtin_protocol,
    catalog,
    decide,
    emit_ensemble,
    lift_protocol,
    random_product_basis,
    verdict_to_json,
)
from loccdist.cli import main
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import emit_matrix
from loccdist.simulate import emit_sim_protocol

_F9 = catalog("finkelstein9")
_BASIS = random_product_basis((3, 3, 3), 1, depth=6)
_VERDICT = decide(_BASIS, "complete")

SEEDS = {
    "catalog": emit_ensemble(_F9),
    "basis": emit_ensemble(_BASIS),
    "verdict": canonical_dumps(verdict_to_json(_VERDICT)),
    "lifted": emit_sim_protocol(lift_protocol(_VERDICT.tree, _BASIS)),
    "povm": emit_sim_protocol(builtin_protocol("finkelstein-povm", _F9)),
    "matrix": canonical_dumps(emit_matrix(np.array([[1.0, -2.0j, 0.5]]))),
    "column": canonical_dumps(emit_matrix(np.array([[0.0], [1j], [0.5]]))),
    "scalar": canonical_dumps(emit_matrix(np.array([[-2.0j]]))),
}

# (the seed that is mutated, argv); MUTATED names the mutated file, any
# other seed name its unmutated file
COMMANDS = [
    ("catalog", ["check", "MUTATED"]),
    ("catalog", ["oracle", "MUTATED"]),
    ("catalog", ["simulate", "MUTATED", "--builtin=finkelstein-povm"]),
    ("basis", ["check", "--json", "MUTATED"]),
    ("basis", ["check", "--trace", "MUTATED"]),
    ("basis", ["simulate", "MUTATED", "verdict"]),
    ("verdict", ["simulate", "basis", "MUTATED"]),
    ("lifted", ["simulate", "basis", "MUTATED"]),
    ("povm", ["simulate", "catalog", "MUTATED"]),
    ("matrix", ["decompose", "MUTATED"]),
    ("column", ["decompose", "MUTATED"]),
    ("scalar", ["decompose", "MUTATED"]),
]

# one family is drawn, then one value of it
HOSTILE = st.one_of(
    st.sampled_from([None, True, False]),
    st.sampled_from([0, -1, 1, 2, 10**30, 2**63]),
    st.sampled_from([0.5, -0.0, 1e308, float("nan"), float("inf")]),
    st.sampled_from(["", "s00", "x"]),
    st.sampled_from([[], [[]], [None], [[1, 0]], [[True, 0]], {}, {"": {}}, {"announce": None}]),
)
# an int is swapped for one of these three times in four, a bool half of
# those times: a bool taken for an int is the escape most often found by hand
NEAR_INTS = st.one_of(st.booleans(), st.sampled_from([0, -1, 2**63, 10**30, 1.0]))
# the party one past a seed's last: in a document that names parties, the
# out-of-range index that only a check against the ensemble refuses
PAST_PARTY = {"catalog": _F9.parties, "povm": _F9.parties, "basis": _BASIS.parties,
              "verdict": _BASIS.parties, "lifted": _BASIS.parties}
# mostly a tolerance that lets the document through to the code behind the flag
TOLS = [None, None, None, None, "1e-9", "1e-3", "0.5", "1e-300", "0", "1", "nan", "x"]
MODES = [None, "auto", "complete", "incomplete", "bogus"]
EXIT_CODES = {0, 1, 2, 64, 65, 70, 74}


def _object_ints(node):
    """``(object, key)`` for every int value of an object in ``node``, in document order."""
    if isinstance(node, dict):
        for k, v in node.items():
            if type(v) is int:
                yield node, k
            yield from _object_ints(v)
    elif isinstance(node, list):
        for v in node:
            yield from _object_ints(v)


@st.composite
def mutated(draw, doc, past_party=None):
    """``doc`` after one or two swaps, drops, deletions or duplications.

    Half the time the value changed is an object's int, such as a node's
    party deep in a tree, drawn from all of them; otherwise a walk from the
    root finds it.  With ``past_party``, an int is swapped for that party
    index as often as for a bool.
    """
    near_ints = NEAR_INTS if past_party is None else st.one_of(NEAR_INTS, st.just(past_party))
    root = [copy.deepcopy(doc)]  # a holder, so the document itself can be swapped
    for _ in range(draw(st.integers(1, 2))):
        parent, key = root, 0
        leaves = list(_object_ints(root[0]))
        if leaves and draw(st.booleans()):
            parent, key = draw(st.sampled_from(leaves))
            steps = 0
        else:
            steps = draw(st.integers(0, 10))
        for _ in range(steps):
            node = parent[key]
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = list(node) if isinstance(node, dict) else range(len(node))
            # half the time a dict's int leaves, such as a matrix's sizes
            # or a node's party, are the only keys drawn
            ints = [k for k in keys if type(node[k]) is int] if isinstance(node, dict) else []
            if ints and draw(st.booleans()):
                keys = ints
            parent, key = node, draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["swap", "swap", "drop", "duplicate"]))
        if op == "drop" and parent is not root:
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list) and parent is not root:
            parent.insert(key, copy.deepcopy(parent[key]))
        elif type(parent[key]) is int and draw(st.sampled_from([True, True, True, False])):
            parent[key] = draw(near_ints)
        else:
            parent[key] = copy.deepcopy(draw(HOSTILE))
    return root[0]


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("seeds")
    for name, text in SEEDS.items():
        (folder / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    return folder


@settings(max_examples=800, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS), tol=st.sampled_from(TOLS),
       mode=st.sampled_from(MODES))
def test_hostile_documents_keep_the_exit_code_contract(seed_files, data, command, tol, mode):
    seed, argv = command
    doc = data.draw(mutated(json.loads(SEEDS[seed]), PAST_PARTY.get(seed)), label="document")
    mutated_file = seed_files / "mutated.json"
    mutated_file.write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(mutated_file) if a == "MUTATED" else
            str(seed_files / f"{a}.json") if a in SEEDS else a for a in argv]
    if tol is not None:
        argv.append(f"--tol={tol}")
    if mode is not None and argv[0] == "check":
        argv.append(f"--mode={mode}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    if code >= 64:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
