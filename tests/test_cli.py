"""End-to-end CLI behavior: subcommands, exit codes, JSON stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
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
    lift_protocol,
    normalize,
    parse_ensemble,
    random_product_basis,
    validate,
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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["bennett9", "comp2x2"])
def test_tol_must_be_finite_and_positive(run, ensemble_file, monkeypatch, name, value):
    # a NaN tolerance used to reach normalize and exit 65 with a misleading message
    code, out, err = run("check", f"--tol={value}", ensemble_file(name))
    assert (code, out) == (EXIT_USAGE, "")
    assert "--tol must be a finite positive number" in err
    monkeypatch.setenv("LOCC_TOL", value)
    code, out, err = run("check", ensemble_file(name))
    assert (code, out) == (EXIT_USAGE, "")
    assert "LOCC_TOL must be a finite positive number" in err


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


@pytest.mark.parametrize("limit,code,verdict", [(None, EXIT_OK, "distinguishable\n"),
                                                (100, EXIT_USAGE, "")])
def test_a_tree_deeper_than_the_recursion_limit_is_refused(tmp_path, limit, code, verdict):
    # a RecursionError used to escape as a traceback with exit 1, "indistinguishable"
    path = tmp_path / "staircase.json"
    path.write_text(emit_ensemble(_staircase(30)), encoding="utf-8")
    script = "import sys; from loccdist.cli import main; "
    if limit is not None:
        script += f"sys.setrecursionlimit({limit}); "
    script += "sys.exit(main(['check', sys.argv[1]]))"
    env = dict(os.environ, PYTHONPATH=str(Path(loccdist.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, verdict)
    assert "Traceback" not in proc.stderr
    if limit is not None:
        assert proc.stderr == "error: a tree nests deeper than the recursion limit (100)\n"


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
    assert validate(e).passed


def test_catalog_emit_to_file(run, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run("catalog", "emit", "grid16", "--out", str(target))
    assert code == EXIT_OK and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert len(parse_ensemble(text).states) == 16


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


def test_decompose_rejects_bad_matrix(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": []}', encoding="utf-8")
    code, _, _ = run("decompose", str(path))
    assert code == EXIT_DATA


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
    assert len(doc["cases"]) == 3


def test_oracle_size_guard_is_usage_error(run, ensemble_file):
    code, _, err = run("oracle", ensemble_file("grid16"))
    assert code == EXIT_USAGE
    assert "at most" in err


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


# ---------------------------------------------------------------------------
# top level


def test_no_arguments_is_usage_error(run):
    code, _, _ = run()
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == EXIT_USAGE
