"""Byte identity of `check --json`, `check --trace`, `simulate`, `catalog emit` and `decompose`.

The `check` digests were taken from the pairwise-loop implementation that
preceded the array-backed relativity layer.  Any drift in a verdict, a
protocol's blocks or basis vectors, or a certificate's edges changes them.
The `simulate` digests were taken when lifted protocols were still written
as dense matrices, so they also pin that the factored file rebuilds every
operator bit for bit.  The "redressed" digest was taken from the
per-operator replay that preceded the stacked kernel.  The `catalog emit`
and `decompose` digests were taken while every vector was still wrapped in
a one-vector class, so they pin that the catalog builders and the SVD's
row order and phases survived its removal.  The instrument-tree file
digests were taken while each basis vector was still written by its own
call of the complex codec.  The n=512 digests were taken while every
``[re, im]`` array was still written as nested lists, one ``_write`` call
per pair and per float.  The tile digests (Kronecker products of bennett9
and grid16 with random bases, n=576 and n=4096, stuck at many rank >= 2
blocks) were taken while the oracle and ``components`` still read checked
spans through a second entry point of their own.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from loccdist import (
    apply_local_unitaries,
    builtin_protocol,
    catalog,
    decide,
    emit_ensemble,
    lift_protocol,
    random_product_basis,
    random_unitary,
)
from loccdist.cli import main
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import emit_matrix
from loccdist.simulate import emit_sim_protocol
from test_distinguish import _kron

CASES = {
    "bennett9": lambda: catalog("bennett9"),
    "grid16": lambda: catalog("grid16"),
    "cube64": lambda: catalog("cube64"),
    "finkelstein9": lambda: catalog("finkelstein9"),
    "comp2x2": lambda: catalog("comp2x2"),
    "random-4x4x4-seed3-depth6": lambda: random_product_basis((4, 4, 4), 3, depth=6),
    "random-6x6x6-seed5-depth10": lambda: random_product_basis((6, 6, 6), 5, depth=10),
    "random-8x8x8-seed1-depth12": lambda: random_product_basis((8, 8, 8), 1, depth=12),
    "bennett9*random-8x8-seed1-depth12":
        lambda: _kron(catalog("bennett9"), random_product_basis((8, 8), 1, depth=12)),
    "grid16*random-16x16-seed1-depth12":
        lambda: _kron(catalog("grid16"), random_product_basis((16, 16), 1, depth=12)),
}

# (case, flag) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("bennett9", "--json"): (1, "5a571661e652b4eb07c6178fbfa75a1a432de279414fbb493c289171e8c98306"),
    ("bennett9", "--trace"): (1, "08b6738fcfdb8344b2045399f633bec2eea6853ba3541db78c7c3a8fe4dd089f"),
    ("grid16", "--json"): (1, "45f0bccadd7ce051a3ae2a1c723dc88dc072a812452cca6dea675430151852cd"),
    ("grid16", "--trace"): (1, "0b81b0a2e7ef33c2bed34dbed61c32f3057477ef332d41d933d7c69ca71f4a67"),
    ("cube64", "--json"): (1, "c70924537c38d189af370be21568e1ad2f3230b98a3f8cf9939cf783452d2c6c"),
    ("cube64", "--trace"): (1, "7eec2f7faf61e49ee9c95ff03feb30c8a7907a9ae4215092a85bf66b7ff7e54d"),
    ("finkelstein9", "--json"): (2, "8dfe34171fd2010b75088122fda9d2aa25c4718f4a5c52c3e57205a66857d7c5"),
    ("finkelstein9", "--trace"): (2, "75044522729429550cc85f2ad9ebcd1a1f77c3e7aee3553a8f0dcc5a5e337728"),
    ("comp2x2", "--json"): (0, "8a80e64d3a31056f770aa38cf4a6e8a32307b26b964d552a5d07c8da8cf24a97"),
    ("comp2x2", "--trace"): (0, "e4c9f4752189f9e39eeac56235bbbd4c9a9098f9e4b99391b09c43dd3b546d40"),
    ("random-4x4x4-seed3-depth6", "--json"):
        (0, "5f91eaaffab0ca72453859926cdaf3d8588b70ab2804d54d7e09c9f326d61c0f"),
    ("random-4x4x4-seed3-depth6", "--trace"):
        (0, "b6e8d8a94f74599ee32f9aa781e4de873f5a5c53a297e65d2b9f6476ffd0825a"),
    ("random-6x6x6-seed5-depth10", "--json"):
        (0, "9d092ea0cdd11faa0c88688187055f87e475ae395289fb382a3b3f7f56ee9205"),
    ("random-6x6x6-seed5-depth10", "--trace"):
        (0, "3c378bd9510fcb4ad37864c0395c050332459018e3a14157822e8fcbd16ae62c"),
    # n=512, the structure of the benchmark's check-large input: blocks of up
    # to 192 rows, so the verdict writes bases of many (k, 8) shapes
    ("random-8x8x8-seed1-depth12", "--json"):
        (0, "57eca2ab177dbab37ee3ca74b83b9a7aaf2258cab73030e18d5fc9e77f13973e"),
    # tile bases, n=576 and n=4096: stuck at many blocks of rank two or more
    ("bennett9*random-8x8-seed1-depth12", "--json"):
        (1, "48fe0d5a968ea08437e78bde63839697c068a918c770a1035df3860600ce8b14"),
    ("bennett9*random-8x8-seed1-depth12", "--trace"):
        (1, "0d608cd24a0a6b8097d0fd5baf9516d4a8efdf6a1f42a3bb8632a9e89384d2e1"),
    ("grid16*random-16x16-seed1-depth12", "--json"):
        (1, "7408cd02cacd030fbcc16439c504197ca7104697f87eadf9817d0908bcf7a1f5"),
    ("grid16*random-16x16-seed1-depth12", "--trace"):
        (1, "26a2028f9843b214d37a9ee8f82071429917851c5168009d0505cee34cb60d33"),
}


@pytest.mark.parametrize("case,flag", sorted(GOLDEN))
def test_check_output_is_byte_identical(case, flag, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(emit_ensemble(CASES[case]()) + "\n", encoding="utf-8")
    code = main(["check", str(path), flag])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[(case, flag)]


# (case, protocol) -> (exit code, sha256 of `simulate` stdout); "lifted" is
# the instrument tree of the case's own verdict, written as a file, and
# "redressed" replays that file at --tol 1e-3 on the case in random local
# bases, where its projectors damage every state and prune and warn branches
SIMULATE_GOLDEN = {
    ("random-4x4x4-seed3-depth6", "redressed"):
        (1, "33e1fb4c8332762ccb4fe5f4efb3b5ca0f65d6bd084d6fed3c8d84b253979dfb"),
    ("random-4x4x4-seed3-depth6", "lifted"):
        (0, "d6dfcc1a40f9be37be3155654b88608e7430542ddac33a78abb8e7ab3253a557"),
    ("random-6x6x6-seed5-depth10", "lifted"):
        (0, "c2eb7a4e997a985d6570a90d1be15791e23e9d535c64ab718c1a19ee106b026d"),
    ("finkelstein9", "--builtin=finkelstein-povm"):
        (0, "1ca096bad03b896a1e031e35bb7186a667d4e98768c70f1085b5e5346bcb7014"),
}


@pytest.mark.parametrize("case,protocol", sorted(SIMULATE_GOLDEN))
def test_simulate_output_is_byte_identical(case, protocol, tmp_path, capsys):
    e = CASES[case]()
    args = [protocol]
    if protocol in ("lifted", "redressed"):
        args = [str(tmp_path / "protocol.json")]
        tree = lift_protocol(decide(e, "complete").tree, e)
        Path(args[0]).write_text(emit_sim_protocol(tree) + "\n", encoding="utf-8")
    if protocol == "redressed":
        rng = np.random.default_rng(1)
        e = apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])
        args += ["--tol", "1e-3"]
    path = tmp_path / f"{case}.json"
    path.write_text(emit_ensemble(e) + "\n", encoding="utf-8")
    code = main(["simulate", str(path), *args])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == SIMULATE_GOLDEN[(case, protocol)]
    if protocol == "redressed":
        doc = json.loads(out)
        probs = [b["probability"] for s in doc["states"] for b in s["branches"]]
        assert doc["warnings"]
        assert any(1e-3 < p < 1.0 - 1e-3 for p in probs)
        assert all(s["total"] < 1.0 - 1e-3 for s in doc["states"])
        assert any(sum(b["probability"] for b in s["branches"]) < 1.0 - 1e-6 for s in doc["states"])


# name -> sha256 of `catalog emit NAME` stdout
CATALOG_GOLDEN = {
    "bennett9": "f32dd8e4a8ce1dad35e9eb81c4655926158088bb4745df44acf373659fb6f1ba",
    "cube64": "a27bfea579eb0cc72f157c6ea40fb7503e33aa0ea854e7c01c4709d354908f6b",
    "comp2x2": "cd2a3f525cfe7340f72b876f0918f1268fcb02214ad6a46ebc9f4f3b325efae5",
    "finkelstein9": "90eb9bfa7d9a37319439fa2c62acb57889b8fbe94dc96ad330d50dd2a7502c2f",
    "grid16": "5eeff981556277e22977620b542e01e8b07e443f79199dd5645af36d5df61ffd",
}


@pytest.mark.parametrize("name", sorted(CATALOG_GOLDEN))
def test_catalog_emit_is_byte_identical(name, capsys):
    assert main(["catalog", "emit", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_GOLDEN[name]


# case -> sha256 of its emit_ensemble text
EMIT_GOLDEN = {
    "random-8x8x8-seed1-depth12": "b95d2db4e3961b01d5e1a0a21436615e42c46e6352b3d7e34dc87a1858942c40",
}


@pytest.mark.parametrize("case", sorted(EMIT_GOLDEN))
def test_emit_ensemble_is_byte_identical(case):
    text = emit_ensemble(CASES[case]())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EMIT_GOLDEN[case]


# Both equal-sigma groups come out of LAPACK in an order the lexicographic
# tie rule must settle: a diagonal with sigma 1 twice, and a multiple of a
# unitary whose sigmas are all equal and whose vectors are not basis vectors.
MATRICES = {
    "repeated-diagonal": np.diag([1.0, 2.0, 1.0]),
    "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]]),
    "random-3x4": np.array(
        [
            [0.001 + 0.105j, 0.299 - 0.93j, -0.274 - 0.029j, -0.891 + 0.695j],
            [-0.455 - 1.344j, -0.992 - 0.458j, 0.06 - 1.901j, 1.34 - 1.29j],
            [-0.492 - 1.842j, -0.62 - 0.235j, 0.49 - 1.267j, 0.357 + 0.271j],
        ]
    ),
    "swap-phase": np.array([[0.0, 1j], [1.0, 0.0]]),
    "row-1x3": np.array([[1.0, -2.0j, 0.5]]),
    "zero-2x2": np.zeros((2, 2)),
}

# matrix -> sha256 of `decompose` stdout
DECOMPOSE_GOLDEN = {
    "hadamard": "a7fec86dc9f733e17ce7e6b5ef22ed70ce8fde9d35bdf6e00dcdf6e9a342f3ff",
    "random-3x4": "6b3e9fa74753342da4779bd8da3637298aec6cdacdcec8487d9e7ca9b9800a88",
    "repeated-diagonal": "6f89c1d45717520978510973d26ac21c033049add036e45d751f34ad1d0be3c9",
    "row-1x3": "a6f551ef7b9473d87fd1d1400dea04332907ac895fdcdec38fca5c0152b7b20e",
    "swap-phase": "5e1bc5485e087d4d9e4b43d5311093f3ce40df32de7824472716aa7a0be2181c",
    "zero-2x2": "e04a2f402bc56eb2257023cc93301eab132f1db36f6ec3388e02afcb0f95f3af",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GOLDEN))
def test_decompose_output_is_byte_identical(name, tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(canonical_dumps(emit_matrix(MATRICES[name])), encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DECOMPOSE_GOLDEN[name]


def _lifted(e):
    return lift_protocol(decide(e, "complete").tree, e)


# instrument tree -> sha256 of its emit_sim_protocol text, the file format
# that simulate reads; the POVM tree writes dense matrices, the lifted trees
# one basis per projector
PROTOCOL_FILES = {
    "comp2x2": lambda: _lifted(catalog("comp2x2")),
    "random-3x3x3-seed1-depth6": lambda: _lifted(random_product_basis((3, 3, 3), 1, depth=6)),
    "random-2x1x3-seed3-depth6": lambda: _lifted(random_product_basis((2, 1, 3), 3, depth=6)),
    "random-8x8x8-seed1-depth12": lambda: _lifted(CASES["random-8x8x8-seed1-depth12"]()),
    "finkelstein-povm": lambda: builtin_protocol("finkelstein-povm", catalog("finkelstein9")),
}
PROTOCOL_FILE_GOLDEN = {
    "comp2x2": "6f0d24d12ffaafd460db670b9acdc9423314b81845e586a79ba2191d8c0de6b1",
    "finkelstein-povm": "9da8a3c93c86a6c7b8d9f39d93c2b3227c691ceee14536db61e8dcee2e0d7d0c",
    "random-2x1x3-seed3-depth6": "dfe3c215fde7cb82d978a45c242d994daaa1d4a41396f16c8cf45a402989c4a3",
    "random-3x3x3-seed1-depth6": "f9bbb24e35f96a8b9971173611718b983975f8f015cbaae548a1154d1b5090db",
    "random-8x8x8-seed1-depth12": "185241dcf7de9ecd2a8fade72849081a91398ab6fb862d841dfeecc58334f686",
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_FILE_GOLDEN))
def test_instrument_tree_file_is_byte_identical(name):
    text = emit_sim_protocol(PROTOCOL_FILES[name]())
    assert ('"entries"' in text) == (name == "finkelstein-povm")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PROTOCOL_FILE_GOLDEN[name]
