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
    emit_ensemble,
    normalize,
    parse_ensemble,
    validate,
)
from loccdist.cli import (
    EXIT_DATA,
    EXIT_INDISTINGUISHABLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import emit_matrix


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
        ("decompose", "op.json"),
    ],
    ids=["check", "simulate-ensemble", "simulate-protocol", "decompose"],
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


# ---------------------------------------------------------------------------
# top level


def test_no_arguments_is_usage_error(run):
    code, _, _ = run()
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == EXIT_USAGE
