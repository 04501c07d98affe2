"""End-to-end CLI behavior: subcommands, exit codes, JSON stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import loccdist
from loccdist import (
    Ensemble,
    ProductState,
    basis_vector,
    catalog,
    decide,
    emit_ensemble,
    ensure_complete,
    lift_protocol,
    normalize,
    parse_ensemble,
    random_product_basis,
    verdict_to_json,
)
from loccdist.cli import (
    EXIT_DATA,
    EXIT_INDISTINGUISHABLE,
    EXIT_INTERNAL,
    EXIT_IOERR,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import emit_matrix
from loccdist.simulate import emit_sim_protocol


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def ensemble_file(tmp_path):
    def _write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_ensemble(catalog(name)) + "\n", encoding="utf-8")
        return str(path)

    return _write


# ---------------------------------------------------------------------------
# check


def test_check_distinguishable(run, ensemble_file):
    code, out, _ = run("check", ensemble_file("comp2x2"))
    assert code == EXIT_OK
    assert out.strip() == "distinguishable"


def test_check_indistinguishable(run, ensemble_file):
    code, out, _ = run("check", ensemble_file("bennett9"))
    assert code == EXIT_INDISTINGUISHABLE
    assert out.strip() == "indistinguishable"


def test_check_unknown(run, ensemble_file):
    code, out, _ = run("check", ensemble_file("finkelstein9"))
    assert code == EXIT_UNKNOWN
    assert out.strip() == "unknown (projective-stuck)"


def test_check_forced_incomplete_mode(run, ensemble_file):
    code, out, _ = run("check", "--mode=incomplete", ensemble_file("grid16"))
    assert code == EXIT_UNKNOWN
    assert out.strip() == "unknown (projective-stuck)"


def test_check_rejects_states_that_overlap_at_every_party(run, tmp_path):
    # every party overlaps by 1e-4, so the full overlap is only 1e-12; the
    # states are still not orthogonal, because no single party separates them
    leaning = [[1e-4, 0], [1, 0]]
    doc = {
        "name": "leaning",
        "dims": [2, 2, 2],
        "complete": False,
        "states": [
            {"label": "a", "vectors": [[[1, 0], [0, 0]]] * 3},
            {"label": "b", "vectors": [leaning] * 3},
        ],
    }
    path = tmp_path / "leaning.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run("check", "--mode=incomplete", str(path))
    assert code == EXIT_DATA
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "not pairwise orthogonal" in lines[0]
    assert "|<a|b>|" in lines[0]


def test_check_complete_mode_rejects_incomplete_flag(run, ensemble_file):
    code, _, err = run("check", "--mode=complete", ensemble_file("finkelstein9"))
    assert code == EXIT_DATA
    assert "error:" in err


def test_check_json_document(run, ensemble_file):
    code, out, _ = run("check", "--json", ensemble_file("bennett9"))
    assert code == EXIT_INDISTINGUISHABLE
    doc = json.loads(out)
    assert doc["mode"] == "complete"
    assert doc["tol"] == 1e-9
    assert doc["verdict"] == "indistinguishable"
    assert doc["certificate"]["subset"] == [f"psi{i}" for i in range(1, 10)]


def test_check_json_is_byte_stable(run, ensemble_file):
    path = ensemble_file("cube64")
    _, out1, _ = run("check", "--json", path)
    _, out2, _ = run("check", "--json", path)
    assert out1 == out2


def test_check_trace_rendering(run, ensemble_file):
    code, out, _ = run("check", "--trace", ensemble_file("comp2x2"))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "distinguishable"
    assert lines[1] == "measure party 0: 2 outcomes over 4 states"
    assert "outcome 0 keeps {s00 s01}:" in out
    assert "identified s00" in out


def test_check_trace_shows_stuck_blocks(run, ensemble_file):
    code, out, _ = run("check", "--trace", ensemble_file("bennett9"))
    assert code == EXIT_INDISTINGUISHABLE
    assert "stuck: 9 states" in out
    assert "every party's graph connected" in out


def test_check_missing_file(run, tmp_path):
    code, _, err = run("check", str(tmp_path / "absent.json"))
    assert code == EXIT_DATA
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["check", "simulate", "decompose", "oracle"])
def test_file_that_is_not_utf8_is_a_data_error(run, tmp_path, command):
    # a decode error is bad data (65), not a traceback whose exit status 1
    # reads as "indistinguishable"
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    argv = [command, str(path)] + ([str(path)] if command == "simulate" else [])
    code, out, err = run(*argv)
    assert code == EXIT_DATA and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["check", "--json"], ["oracle"]])
@pytest.mark.parametrize("where", ["name", "label"])
def test_lone_surrogate_in_a_file_is_a_data_error(run, tmp_path, command, where):
    # json.loads accepts "\ud800", but no UTF-8 output can carry it
    doc = json.loads(emit_ensemble(catalog("comp2x2")))
    if where == "name":
        doc["name"] = "\ud800"
    else:
        doc["states"][1]["label"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    code, out, err = run(*command, str(path))
    assert code == EXIT_DATA and out == ""
    assert "is not valid Unicode" in err and err.count("\n") == 1


@pytest.mark.parametrize("fault", ["zero", "overflow"])
def test_a_vector_that_cannot_be_normalized_is_named(run, tmp_path, fault):
    # the refusal names the first such vector in file order: s01 at party 1
    # comes before s10 at party 0
    doc = json.loads(emit_ensemble(catalog("comp2x2")))
    entry = {"zero": [0.0, 0.0], "overflow": [1e308, 1e308]}[fault]
    doc["states"][1]["vectors"][1] = [entry, entry]
    doc["states"][2]["vectors"][0] = [entry, entry]
    assert [s["label"] for s in doc["states"]] == ["s00", "s01", "s10", "s11"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run("check", str(path))
    message = {"zero": "of norm 0.0", "overflow": "whose squared norm overflows a double"}[fault]
    assert code == EXIT_DATA and out == ""
    assert err == f"error: state 's01' party 1: cannot normalize a vector {message}\n"


def test_check_malformed_file(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run("check", str(path))
    assert code == EXIT_DATA


def test_deeply_nested_json_is_a_data_error(tmp_path):
    # json's recursion limit must surface as bad data (65), not as a
    # traceback whose exit status 1 reads as "indistinguishable"
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "loccdist.cli", "check", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == EXIT_DATA
    assert "Traceback" not in proc.stderr
    assert "nested too deeply" in proc.stderr


def test_stdout_closed_by_the_reader_is_an_output_error(tmp_path):
    # `check --json | true`: the reader is gone before a verdict larger than
    # a pipe buffer is written.  That is exit 74 with one error line, not a
    # traceback whose exit status 1 reads as "indistinguishable"
    path = tmp_path / "b666.json"
    e = random_product_basis((6, 6, 6), 5, depth=10)
    path.write_text(emit_ensemble(e) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "loccdist.cli", "check", "--json", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=60) == EXIT_IOERR
    finally:
        proc.kill()
        proc.wait()
    assert len(canonical_dumps(verdict_to_json(decide(e, "complete")))) > 1 << 16
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_graph_size_guard_is_usage_error(run, ensemble_file, monkeypatch):
    monkeypatch.setattr("loccdist.ensemble.MAX_GRAPH_STATES", 8)
    code, out, err = run("check", ensemble_file("bennett9"))
    assert code == EXIT_USAGE
    assert out == ""
    assert "at most 8 states" in err


def test_check_numerical_instability_is_internal_error(run, tmp_path):
    # party 0 carries a disconnected-but-overlapping-span structure; party 1
    # keeps the product states orthogonal so the run reaches the component
    # computation and dies there
    a = basis_vector(3, 0)
    b = normalize(np.array([1.0, 5e-9, 0.0]))
    c = normalize(np.array([0.0, 0.19, 1.0]))
    e = Ensemble(
        "unstable",
        (3, 3),
        (
            ProductState("s1", (a, basis_vector(3, 0))),
            ProductState("s2", (b, basis_vector(3, 1))),
            ProductState("s3", (c, basis_vector(3, 2))),
        ),
        complete=False,
    )
    path = tmp_path / "unstable.json"
    path.write_text(emit_ensemble(e), encoding="utf-8")
    code, _, err = run("check", str(path))
    assert code == EXIT_INTERNAL
    assert "span overlap" in err


def test_check_rejects_negative_tol(run, ensemble_file):
    code, _, err = run("check", "--tol=-1e-9", ensemble_file("comp2x2"))
    assert code == EXIT_USAGE


def test_tol_env_fallback(run, ensemble_file, monkeypatch):
    monkeypatch.setenv("LOCC_TOL", "1e-6")
    _, out, _ = run("check", "--json", ensemble_file("comp2x2"))
    assert json.loads(out)["tol"] == 1e-6


def test_tol_flag_beats_env(run, ensemble_file, monkeypatch):
    monkeypatch.setenv("LOCC_TOL", "1e-6")
    _, out, _ = run("check", "--json", "--tol=1e-3", ensemble_file("comp2x2"))
    assert json.loads(out)["tol"] == 1e-3


def test_tol_env_must_be_a_positive_number(run, ensemble_file, monkeypatch):
    monkeypatch.setenv("LOCC_TOL", "banana")
    code, _, _ = run("check", ensemble_file("comp2x2"))
    assert code == EXIT_USAGE
    monkeypatch.setenv("LOCC_TOL", "-2")
    code, _, _ = run("check", ensemble_file("comp2x2"))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["nan", "inf", "1", "2"])
@pytest.mark.parametrize("name", ["bennett9", "comp2x2"])
def test_tol_must_be_finite_and_positive(run, ensemble_file, monkeypatch, name, value):
    # a NaN tolerance used to reach normalize and exit 65 with a misleading
    # message; so did a tolerance of 1 or more, at which no unit vector parses
    code, out, err = run("check", f"--tol={value}", ensemble_file(name))
    assert (code, out) == (EXIT_USAGE, "")
    assert "--tol must be a finite positive number" in err
    assert len(err.splitlines()) == 1
    monkeypatch.setenv("LOCC_TOL", value)
    code, out, err = run("check", ensemble_file(name))
    assert (code, out) == (EXIT_USAGE, "")
    assert "LOCC_TOL must be a finite positive number" in err
    assert len(err.splitlines()) == 1


def _staircase(m):
    """2m pairwise-orthogonal states on (m+1) x (m+1) that decide peels off one at a time.

    ``o_j = e_j (x) (f_j + ... + f_m)`` and ``e_j = (e_{j+1} + ... + e_m) (x) f_j``,
    normalized, so the protocol tree is about 2m splits deep.
    """
    d = m + 1

    def tail(start):
        w = np.zeros(d)
        w[start:] = 1.0
        return normalize(w)

    states = []
    for j in range(m):
        states.append(ProductState(f"o{j}", (basis_vector(d, j), tail(j))))
        states.append(ProductState(f"e{j}", (tail(j + 1), basis_vector(d, j))))
    return Ensemble(f"staircase{m}", (d, d), tuple(states), complete=False)


@pytest.mark.parametrize("flags,limit,code,verdict", [
    ([], None, EXIT_OK, "distinguishable\n"),
    ([], 100, EXIT_OK, "distinguishable\n"),  # plain check builds no tree
    (["--json"], 100, EXIT_USAGE, ""),
    (["--trace"], 100, EXIT_USAGE, ""),
], ids=["check", "check-limit100", "json-limit100", "trace-limit100"])
def test_a_tree_deeper_than_the_recursion_limit_is_refused(tmp_path, flags, limit, code, verdict):
    # a RecursionError used to escape as a traceback with exit 1, "indistinguishable"
    path = tmp_path / "staircase.json"
    path.write_text(emit_ensemble(_staircase(30)), encoding="utf-8")
    script = "import sys; from loccdist.cli import main; "
    if limit is not None:
        script += f"sys.setrecursionlimit({limit}); "
    script += f"sys.exit(main(['check', *{flags!r}, sys.argv[1]]))"
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, verdict)
    assert "Traceback" not in proc.stderr
    if code == EXIT_USAGE:
        assert proc.stderr == "error: a tree nests deeper than the recursion limit (100)\n"
    else:
        assert proc.stderr == ""


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(run):
    code, out, _ = run("catalog", "list")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "bennett9",
        "grid16",
        "cube64",
        "finkelstein9",
        "comp2x2",
    ]


def test_catalog_emit_to_stdout(run):
    code, out, _ = run("catalog", "emit", "bennett9")
    assert code == EXIT_OK
    e = parse_ensemble(out)
    assert len(e.states) == 9
    ensure_complete(e)


def test_catalog_emit_to_file(run, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run("catalog", "emit", "grid16", "--out", str(target))
    assert code == EXIT_OK and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert len(parse_ensemble(text).states) == 16


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_catalog_emit_to_an_unwritable_path_is_an_output_error(run, tmp_path, target):
    # a missing directory or a directory: exit 74 with one error line
    path = tmp_path / target
    code, out, err = run("catalog", "emit", "bennett9", "--out", str(path))
    assert code == EXIT_IOERR and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_catalog_emit_requires_name(run):
    code, _, err = run("catalog", "emit")
    assert code == EXIT_USAGE


def test_catalog_emit_unknown_name(run):
    code, _, err = run("catalog", "emit", "nope")
    assert code == EXIT_USAGE
    assert "unknown catalog name" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_builtin_povm(run, ensemble_file):
    code, out, _ = run(
        "simulate", ensemble_file("finkelstein9"), "--builtin=finkelstein-povm"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["perfect"] is True
    psi1 = next(s for s in doc["states"] if s["label"] == "psi1")
    assert abs(psi1["total"] - 1.0) < 1e-9


def test_simulate_builtin_is_byte_stable(run, ensemble_file):
    path = ensemble_file("finkelstein9")
    _, out1, _ = run("simulate", path, "--builtin=finkelstein-povm")
    _, out2, _ = run("simulate", path, "--builtin=finkelstein-povm")
    assert out1 == out2


def test_simulate_giving_up_protocol(run, ensemble_file, tmp_path):
    proto = tmp_path / "giveup.json"
    proto.write_text('{"announce": null}', encoding="utf-8")
    code, out, _ = run("simulate", ensemble_file("bennett9"), str(proto))
    assert code == EXIT_INDISTINGUISHABLE
    assert json.loads(out)["perfect"] is False


def test_simulate_requires_exactly_one_protocol(run, ensemble_file, tmp_path):
    proto = tmp_path / "p.json"
    proto.write_text('{"announce": null}', encoding="utf-8")
    path = ensemble_file("bennett9")
    code, _, _ = run("simulate", path)
    assert code == EXIT_USAGE
    code, _, _ = run("simulate", path, str(proto), "--builtin=finkelstein-povm")
    assert code == EXIT_USAGE


def test_simulate_unknown_builtin(run, ensemble_file):
    code, _, err = run("simulate", ensemble_file("finkelstein9"), "--builtin=nope")
    assert code == EXIT_USAGE


def test_simulate_incomplete_instrument_file(run, ensemble_file, tmp_path):
    proto = tmp_path / "bad.json"
    half = {
        "party": 0,
        "operators": [
            {"rows": 2, "cols": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}
        ],
        "children": [{"announce": None}],
    }
    proto.write_text(canonical_dumps(half), encoding="utf-8")
    code, _, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert code == EXIT_DATA
    assert "incomplete" in err
    # unit vectors that are not orthogonal: not a projector, so not complete
    skew = {
        "party": 0,
        "operators": [{"basis": [[[1, 0], [0, 0]], [[0.6, 0], [0.8, 0]]]}, {"complement": True}],
        "children": [{"announce": None}, {"announce": None}],
    }
    proto.write_text(canonical_dumps(skew), encoding="utf-8")
    code, _, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert code == EXIT_DATA
    assert "incomplete" in err


@pytest.mark.parametrize(
    "operators",
    [
        [{"complement": True}, {"basis": [[[1, 0], [0, 0]]]}],
        [{"basis": [[[1, 0], [0, 0]]]}, {"complement": True}, {"basis": [[[0, 0], [1, 0]]]}],
        [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
         {"complement": True}],
        [{"basis": []}, {"complement": True}],
        [{"basis": [[[1, 0], [0, 0], [0, 0]]]}, {"complement": True}],
    ],
    ids=["complement-first", "complement-not-last", "complement-after-dense", "empty-basis",
         "basis-wrong-dimension"],
)
def test_simulate_malformed_factored_operator(run, ensemble_file, tmp_path, operators):
    proto = tmp_path / "proto.json"
    doc = {"party": 0, "operators": operators, "children": [{"announce": None}] * len(operators)}
    proto.write_text(canonical_dumps(doc), encoding="utf-8")
    code, out, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert code == EXIT_DATA
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("message", ["Unable to allocate 1.31 TiB for an array", ""])
def test_simulate_out_of_memory_is_an_internal_error(
    run, ensemble_file, tmp_path, monkeypatch, message
):
    # a huge basis vector makes projectors ask for a d x d stack before any dims check;
    # the allocation is faked here, so nothing large is built
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(loccdist.simulate, "projectors", exhausted)
    proto = tmp_path / "proto.json"
    doc = {"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]]]}, {"complement": True}],
           "children": [{"announce": "s00"}, {"announce": None}]}
    proto.write_text(canonical_dumps(doc), encoding="utf-8")
    code, out, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: memory exhausted")
    assert message in err


def test_simulate_replays_a_verdict(run, tmp_path):
    # the protocol of `check --json` is lifted on load, and replays exactly
    # like the instrument tree that lift_protocol and emit_sim_protocol write
    path = str(tmp_path / "basis.json")
    Path(path).write_text(emit_ensemble(random_product_basis((4, 4, 4), 3, depth=6)), encoding="utf-8")
    e = parse_ensemble(Path(path).read_text(encoding="utf-8"))
    code, verdict, _ = run("check", path, "--json")
    assert code == EXIT_OK
    (tmp_path / "verdict.json").write_text(verdict, encoding="utf-8")
    tree = lift_protocol(decide(e, "complete").tree, e)
    assert '{"complement": true}' in emit_sim_protocol(tree)
    (tmp_path / "tree.json").write_text(emit_sim_protocol(tree), encoding="utf-8")
    code, out, _ = run("simulate", path, str(tmp_path / "verdict.json"))
    assert code == EXIT_OK
    assert json.loads(out)["perfect"] is True
    assert run("simulate", path, str(tmp_path / "tree.json")) == (EXIT_OK, out, "")


def test_simulate_decodes_each_file_once_and_stacks_each_instrument_once(
    run, tmp_path, monkeypatch
):
    # a verdict file is parsed once and dispatched on its shape, as an
    # instrument tree is; the run builds each instrument's stacks once
    path = tmp_path / "basis.json"
    path.write_text(emit_ensemble(random_product_basis((3, 3, 3), 1, depth=6)), encoding="utf-8")
    e = parse_ensemble(path.read_text(encoding="utf-8"))
    _, verdict, _ = run("check", str(path), "--json")
    (tmp_path / "verdict.json").write_text(verdict, encoding="utf-8")
    tree = emit_sim_protocol(lift_protocol(decide(e, "complete").tree, e))
    (tmp_path / "tree.json").write_text(tree, encoding="utf-8")
    decoded, stacked = [], []
    for module in (loccdist.cli, loccdist.distinguish, loccdist.ensemble, loccdist.simulate):
        parse = module.parse_json
        counted = lambda text, parse=parse: decoded.append(text) or parse(text)
        monkeypatch.setattr(module, "parse_json", counted)
    stacks = loccdist.simulate.Instrument.stacks.fget
    monkeypatch.setattr(loccdist.simulate.Instrument, "stacks",
                        property(lambda ins: stacked.append(id(ins)) or stacks(ins)))
    replays = []
    for name, text in [("verdict.json", verdict), ("tree.json", tree)]:
        decoded.clear()
        stacked.clear()
        replays.append(run("simulate", str(path), str(tmp_path / name)))
        assert decoded == [path.read_text(encoding="utf-8"), text]
        assert stacked and len(set(stacked)) == len(stacked)
    assert replays[0] == replays[1] and replays[0][0] == EXIT_OK


@pytest.mark.parametrize("party", [0, 5])
def test_simulate_verdict_for_another_ensemble(run, ensemble_file, tmp_path, party):
    # a qutrit step replayed on qubits, and a step at a party that is not there
    outcome = {"block": ["s00"], "basis": [[[1, 0], [0, 0], [0, 0]]]}
    step = {"party": party, "outcomes": [outcome, dict(outcome, block=["s01"])],
            "children": [{"leaf": "s00"}, {"leaf": "s01"}]}
    proto = tmp_path / "verdict.json"
    proto.write_text(canonical_dumps({"verdict": "distinguishable", "protocol": step}),
                     encoding="utf-8")
    code, out, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert code == EXIT_DATA
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_simulate_refuses_a_misfit_no_state_reaches(run, ensemble_file, tmp_path):
    # comp2x2's protocol with a third root outcome, the zero operator, whose
    # child is the identity on a qutrit: every instrument is complete, and
    # the misfit is refused although no state reaches it
    def measure(i):
        ops = [{"basis": [[[1, 0], [0, 0]]]}, {"basis": [[[0, 0], [1, 0]]]}]
        return {"party": 1, "operators": ops,
                "children": [{"announce": f"s{i}0"}, {"announce": f"s{i}1"}]}
    qutrit = {"party": 0, "operators": [emit_matrix(np.eye(3))], "children": [{"announce": None}]}
    ops = [emit_matrix(m) for m in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))]
    proto = tmp_path / "proto.json"
    proto.write_text(canonical_dumps({"party": 0, "operators": ops,
                                      "children": [measure(0), measure(1), qutrit]}),
                     encoding="utf-8")
    code, out, err = run("simulate", ensemble_file("comp2x2"), str(proto))
    assert (code, out) == (EXIT_DATA, "")
    assert err == "error: operator expects dimension 3, state party 0 has 2\n"


def test_simulate_verdict_naming_an_unknown_block_label(run, ensemble_file, tmp_path):
    # the leaves still announce known labels; only the root outcome's block
    # names a state the ensemble lacks
    path = ensemble_file("comp2x2")
    _, verdict, _ = run("check", path, "--json")
    edited = verdict.replace('"s00"', '"zzz"', 1)
    assert json.loads(edited)["protocol"]["outcomes"][0]["block"][0] == "zzz"
    (tmp_path / "verdict.json").write_text(edited, encoding="utf-8")
    code, out, err = run("simulate", path, str(tmp_path / "verdict.json"))
    assert code == EXIT_DATA
    assert out == ""
    assert len(err.splitlines()) == 1 and "'zzz'" in err


@pytest.mark.parametrize("name", ["bennett9", "finkelstein9"])
def test_simulate_verdict_without_protocol(run, ensemble_file, tmp_path, name):
    path = ensemble_file(name)
    _, verdict, _ = run("check", path, "--json")
    assert "protocol" not in json.loads(verdict)
    (tmp_path / "verdict.json").write_text(verdict, encoding="utf-8")
    code, out, err = run("simulate", path, str(tmp_path / "verdict.json"))
    assert code == EXIT_DATA
    assert out == ""
    assert len(err.splitlines()) == 1 and "no protocol" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(outcomes={}), "outcomes and children must be lists"),
        (lambda p: p["outcomes"][0].update(block="s00"),
         "outcome 0 block must be a list of labels"),
    ],
)
def test_simulate_verdict_with_a_malformed_protocol_node(
    run, ensemble_file, tmp_path, edit, message
):
    path = ensemble_file("comp2x2")
    _, verdict, _ = run("check", path, "--json")
    doc = json.loads(verdict)
    edit(doc["protocol"])
    (tmp_path / "verdict.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run("simulate", path, str(tmp_path / "verdict.json"))
    assert code == EXIT_DATA
    assert out == ""
    assert err.splitlines() == [f"error: protocol: {message}"]


# ---------------------------------------------------------------------------
# decompose


def test_decompose_povm_element(run, tmp_path):
    import math

    m = math.sqrt(2.0 / 3.0) * np.diag([0.0, 1.0])
    path = tmp_path / "op.json"
    path.write_text(canonical_dumps(emit_matrix(m)), encoding="utf-8")
    code, out, _ = run("decompose", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert abs(doc["sigmas"][0] - math.sqrt(2.0 / 3.0)) < 1e-12
    assert doc["sigmas"][1] == 0.0
    assert doc["rank"] == 1
    assert doc["physical"] is True
    assert doc["left"][0] == [[0, 0], [1, 0]]


def _decompose(run, tmp_path, m):
    path = tmp_path / "op.json"
    path.write_text(canonical_dumps(emit_matrix(m)), encoding="utf-8")
    code, out, err = run("decompose", str(path))
    assert (code, err) == (EXIT_OK, "")
    return json.loads(out)


def test_decompose_rank_one_povm_element_is_physical(run, tmp_path):
    # the element along (sqrt(3)/2, -1/2) of the trine POVM, off the axes
    w = np.array([np.sqrt(3.0) / 2.0, -0.5])
    m = np.sqrt(2.0 / 3.0) * np.outer(w, w)
    doc = _decompose(run, tmp_path, m)
    # oracle for the singular value: numpy's own SVD
    assert abs(np.linalg.svd(m, compute_uv=False)[0] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(doc["sigmas"][0] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert doc["rank"] == 1
    assert doc["physical"] is True


def test_decompose_amplifying_operator_is_unphysical(run, tmp_path):
    doc = _decompose(run, tmp_path, 2.0 * np.eye(2))
    assert np.allclose(doc["sigmas"], [2.0, 2.0])
    assert doc["rank"] == 2
    assert doc["physical"] is False


def test_decompose_projector_is_physical(run, tmp_path):
    doc = _decompose(run, tmp_path, np.diag([1.0, 0.0]))
    assert np.allclose(doc["sigmas"], [1.0, 0.0])
    assert doc["physical"] is True


@pytest.mark.parametrize(
    "text",
    ['{"rows": 2, "cols": 2, "entries": []}',
     # true is no number: this ended in a traceback and exit 1
     '{"rows": true, "cols": 1, "entries": [[2, 0]]}'],
    ids=["entries", "bool-rows"],
)
def test_decompose_rejects_bad_matrix(run, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("decompose", str(path))
    assert (code, out) == (EXIT_DATA, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# hostile numbers


HOSTILE_PAIRS = {
    "overflowing-norm": "[1e308, 1e308]",
    "int-400-digits": "[" + "9" * 400 + ", 0]",
    "int-5000-digits": "[" + "9" * 5000 + ", 0]",
    "bool": "[true, 0]",
    "string": '["1", 0]',
    "nan": "[NaN, 0]",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "bad.json"),
        ("simulate", "bad.json", "giveup.json"),
        ("simulate", "good.json", "proto.json"),
        ("simulate", "good.json", "factored.json"),
        ("decompose", "op.json"),
    ],
    ids=["check", "simulate-ensemble", "simulate-protocol", "simulate-factored-protocol",
         "decompose"],
)
@pytest.mark.parametrize("pair", HOSTILE_PAIRS.values(), ids=HOSTILE_PAIRS.keys())
def test_hostile_number_is_a_data_error(run, tmp_path, argv, pair):
    # main returning 65 means no exception escaped, so the console entry
    # point prints no traceback and no verdict exit code
    good = emit_ensemble(catalog("comp2x2"))
    bad = good.replace("[[1, 0], [0, 0]]", f"[{pair}, {pair}]", 1)
    assert bad != good
    matrix = f'{{"rows": 2, "cols": 2, "entries": [{pair}, {pair}, {pair}, {pair}]}}'
    files = {
        "good.json": good,
        "bad.json": bad,
        "giveup.json": '{"announce": null}',
        "op.json": matrix,
        "proto.json": f'{{"party": 0, "operators": [{matrix}], "children": [{{"announce": null}}]}}',
        "factored.json": f'{{"party": 0, "operators": [{{"basis": [[{pair}, {pair}]]}},'
                         ' {"complement": true}], "children": [{"announce": null},'
                         ' {"announce": null}]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(*(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_overflow_prints_only_the_error_line(tmp_path, command):
    # numpy reports the overflow as a RuntimeWarning on stderr unless the
    # arithmetic that meets it is told to stay quiet
    good = emit_ensemble(catalog("comp2x2"))
    big = "[1e308, 1e308]"
    matrix = f'{{"rows": 2, "cols": 2, "entries": [{big}, {big}, {big}, {big}]}}'
    files = {
        "check": {"in.json": good.replace("[[1, 0], [0, 0]]", f"[{big}, {big}]", 1)},
        "simulate": {
            "in.json": good,
            "proto.json": f'{{"party": 0, "operators": [{matrix}], "children": [{{"announce": null}}]}}',
        },
    }[command]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "loccdist.cli", command, *(str(tmp_path / f) for f in files)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == EXIT_DATA
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_entry_freezes_the_import_heap_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(loccdist.cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(loccdist.cli, "main", lambda: calls.append("main") or EXIT_UNKNOWN)
    with pytest.raises(SystemExit) as exited:
        loccdist.cli.entry()
    assert calls == ["freeze", "main"]
    assert exited.value.code == EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# oracle


def test_oracle_on_file(run, ensemble_file):
    code, out, _ = run("oracle", ensemble_file("bennett9"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["cases"][0]["decide"] == "indistinguishable"
    assert doc["cases"][0]["oracle"] == "indistinguishable"


def test_oracle_seed_sweep(run):
    code, out, _ = run("oracle", "--seed-sweep=3", "--dims=2,2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agree"] is True
    assert [case["name"] for case in doc["cases"]] == [
        f"random-2x2-seed{seed}-depth3" for seed in range(3)
    ]


def test_an_oracle_sweep_holds_at_most_one_earlier_basis(run, monkeypatch):
    # each basis carries its memo of graphs and spans, so the sweep makes a
    # basis only once every basis before the last one has died
    made, alive, make = [], [], loccdist.cli.random_product_basis

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in made))
        e = make(*args)
        made.append(weakref.ref(e))
        return e

    monkeypatch.setattr(loccdist.cli, "random_product_basis", tracked)
    code, out, _ = run("oracle", "--seed-sweep=6", "--dims=2,2,3", "--depth=5")
    assert code == EXIT_OK and len(json.loads(out)["cases"]) == 6
    assert len(alive) == 6 and max(alive) <= 1


def test_oracle_size_guard_is_usage_error(run, ensemble_file):
    code, _, err = run("oracle", ensemble_file("grid16"))
    assert code == EXIT_USAGE
    assert "at most" in err


@pytest.mark.parametrize(
    "name, code, message",
    [("cube64", EXIT_USAGE, "oracle handles at most 12 states, got 64"),
     ("finkelstein9", EXIT_DATA, "ensemble 'finkelstein9' is not flagged complete")],
)
def test_an_oracle_file_is_refused_before_the_greedy_search(
    run, ensemble_file, monkeypatch, name, code, message
):
    # a basis past 12 states used to run the whole greedy decide before the
    # oracle refused it; a set that is no complete basis still exits 65
    searched = []
    monkeypatch.setattr(loccdist.cli, "decide", lambda *args: searched.append(args))
    got, out, err = run("oracle", ensemble_file(name))
    assert (got, out, searched) == (code, "", [])
    assert err.splitlines() == [f"error: {message}"]


def test_an_oversized_oracle_file_is_refused_before_it_is_validated(
    run, ensemble_file, tmp_path, monkeypatch
):
    # the completeness check of a large file used to run before the size
    # guard: slow at thousands of states, and exit 65 instead of 64 for a
    # file past 12 states that is no complete basis
    checked = []
    monkeypatch.setattr(loccdist.cli, "ensure_complete", lambda *args: checked.append(args))
    code, out, err = run("oracle", ensemble_file("cube64"))
    assert (code, out, checked) == (EXIT_USAGE, "", [])
    assert err.splitlines() == ["error: oracle handles at most 12 states, got 64"]
    monkeypatch.undo()
    doc = json.loads(emit_ensemble(catalog("cube64")))
    doc["states"], doc["complete"] = doc["states"][:20], False
    path = tmp_path / "cube64-part.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run("oracle", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines() == ["error: oracle handles at most 12 states, got 20"]


@pytest.mark.parametrize("dims, states", [("4,4", 16), ("2,64", 128)])
def test_an_oversized_oracle_sweep_is_refused_before_any_basis_is_made(
    run, monkeypatch, dims, states
):
    # 4,4 used to generate and decide every basis before the oracle refused
    # it, and 2,64 ended in the generator's traceback with exit 1
    made = []
    monkeypatch.setattr(loccdist.cli, "random_product_basis", lambda *args: made.append(args))
    code, out, err = run("oracle", "--seed-sweep=3", f"--dims={dims}")
    assert code == EXIT_USAGE and out == "" and made == []
    assert err.splitlines() == [f"error: oracle handles at most 12 states, got {states}"]


def test_oracle_argument_validation(run, ensemble_file):
    code, _, _ = run("oracle")
    assert code == EXIT_USAGE
    code, _, _ = run("oracle", "--seed-sweep=3")
    assert code == EXIT_USAGE
    code, _, _ = run("oracle", "--seed-sweep=3", "--dims=a,b")
    assert code == EXIT_USAGE
    code, _, _ = run("oracle", ensemble_file("comp2x2"), "--seed-sweep=3")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--seed-sweep=0", "--dims=2,2"), "--seed-sweep must be a positive count, got 0"),
        (("--seed-sweep=-1", "--dims=2,2"), "--seed-sweep must be a positive count, got -1"),
        (("--seed-sweep=3", "--dims=0,2"), "--dims must be positive integers, got '0,2'"),
        (("--seed-sweep=3", "--dims=2,-2"), "--dims must be positive integers, got '2,-2'"),
        (("--seed-sweep=3", "--dims=2,2", "--depth=-3"), "--depth must be non-negative, got -3"),
    ],
)
def test_oracle_sweep_that_would_check_nothing_or_a_bad_basis_is_usage_error(run, argv, message):
    # an empty sweep used to print "agree": true over no cases and exit 0, a
    # zero dimension exited 65 as a data error, and a negative depth ran as
    # depth 0 under the name "...-depth-3"
    code, out, err = run("oracle", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


_ORACLE_FILE_FLAGS = "--dims and --depth go with --seed-sweep, not an ensemble path"
_CATALOG_LIST = "catalog list takes no NAME, --out or --tol"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "--json", "--trace", "{b9}"),
         "argument --trace: not allowed with argument --json"),
        (("check", "--trace", "{b9}", "--json"),
         "argument --json: not allowed with argument --trace"),
        (("oracle", "{b9}", "--dims=7,7", "--depth=-5"), _ORACLE_FILE_FLAGS),
        (("oracle", "{b9}", "--dims=3,3"), _ORACLE_FILE_FLAGS),
        (("oracle", "{b9}", "--depth=3"), _ORACLE_FILE_FLAGS),
        (("catalog", "list", "bennett9"), _CATALOG_LIST),
        (("catalog", "list", "--out={out}"), _CATALOG_LIST),
        (("catalog", "list", "--tol=5"), _CATALOG_LIST),
    ],
)
def test_a_flag_the_command_would_ignore_is_a_usage_error(
    run, ensemble_file, tmp_path, argv, message
):
    # each of these ran to exit 0 with the flag or argument silently unused
    out_path = tmp_path / "list.txt"
    argv = [arg.format(b9=ensemble_file("bennett9"), out=out_path) for arg in argv]
    code, out, err = run(*argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# top level


def test_no_arguments_is_usage_error(run):
    code, _, _ = run()
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == EXIT_USAGE
