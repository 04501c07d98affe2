"""Seeded input generation for the three benchmark workloads.

Every generator takes the run seed and returns the texts the program will
read plus a record of how each input was made (seeds, dims, depth, n and
the verdict known from the construction).  The program under test only ever
sees the written files.

The two large workloads keep the combinatorial structure of their basis
fixed (one structure seed per workload) and let the run seed dress it with
one random local unitary per party and a random state order.  Neither
changes any overlap magnitude, so every seed costs the program the same
work while the bytes it reads differ; this keeps run-to-run spread down to
machine noise.  The sweep pool varies its bases with the run seed, since
its thousand-odd cases average the per-basis differences out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from loccdist.distinguish import decide
from loccdist.ensemble import (
    Ensemble,
    ProductState,
    apply_local_unitaries,
    catalog,
    emit_ensemble,
    parse_ensemble,
    random_product_basis,
    random_unitary,
)
from loccdist.simulate import emit_sim_protocol, lift_protocol

# check-large is the (8,8,8) rung of the ROADMAP size ladder, n=512: one check
# takes about 2.5 s, short enough for a run to repeat it several times.
# replay-large keeps the n=1000 (10,10,10) basis, whose simulate takes about 1 s.
CHECK_DIMS, CHECK_DEPTH, CHECK_STRUCTURE_SEED = (8, 8, 8), 12, 1
REPLAY_DIMS, REPLAY_DEPTH, REPLAY_STRUCTURE_SEED = (10, 10, 10), 14, 2

SWEEP_POOL = 1000
SWEEP_DIMS = tuple(
    sorted({p for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3))
            for p in itertools.permutations(dims)})
)
SWEEP_DEPTHS = tuple(range(6))
BENNETT_EVERY = 10  # one case in ten is a dressed bennett9


@dataclass(frozen=True)
class Case:
    """One generated input and how it was made."""

    text: str
    record: dict


def dress(e: Ensemble, rng: np.random.Generator, name: str) -> Ensemble:
    """Random local unitary on every party, then a random state order."""
    rotated = apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])
    order = rng.permutation(len(rotated.states))
    states = tuple(rotated.states[i] for i in order)
    return Ensemble(name, rotated.dims, states, rotated.complete)


def _large(dims: tuple[int, ...], depth: int, structure_seed: int,
           seed: int) -> tuple[Ensemble, dict]:
    base = random_product_basis(dims, structure_seed, depth=depth)
    rng = np.random.default_rng([seed, structure_seed])
    name = f"{base.name}-dress{seed}"
    record = {
        "name": name,
        "structure_seed": structure_seed,
        "dress_seed": seed,
        "dims": list(dims),
        "depth": depth,
        "n": len(base.states),
        "expected": "distinguishable",
    }
    return dress(base, rng, name), record


def check_input(seed: int) -> Case:
    """The n=512 ensemble that ``check --json`` decides."""
    e, record = _large(CHECK_DIMS, CHECK_DEPTH, CHECK_STRUCTURE_SEED, seed)
    return Case(emit_ensemble(e), record)


def replay_inputs(seed: int) -> tuple[Case, str]:
    """The n=1000 ensemble for ``simulate`` and its instrument-tree file.

    The protocol is derived from the ensemble text exactly as the program
    will read it: parse, decide, lift, emit.
    """
    e, record = _large(REPLAY_DIMS, REPLAY_DEPTH, REPLAY_STRUCTURE_SEED, seed)
    text = emit_ensemble(e)
    parsed = parse_ensemble(text)
    verdict = decide(parsed, "complete")
    if verdict.tree is None:
        raise RuntimeError(f"replay input {record['name']} is not distinguishable")
    protocol = emit_sim_protocol(lift_protocol(verdict.tree, parsed))
    return Case(text, record), protocol


def sweep_pool(seed: int) -> list[Case]:
    """SWEEP_POOL small complete bases, every tenth a dressed bennett9.

    The random cases walk the (dims, depth) grid in a fixed order so every
    seed gets the same mix; the seed picks the bases and the dressings.
    """
    rng = np.random.default_rng(seed)
    bennett = catalog("bennett9")
    grid = list(itertools.product(SWEEP_DIMS, SWEEP_DEPTHS))
    cases = []
    for i in range(SWEEP_POOL):
        if i % BENNETT_EVERY == BENNETT_EVERY - 1:
            name = f"bennett9-dress{seed}-{i}"
            e = dress(bennett, rng, name)
            record = {"name": name, "structure_seed": None, "dress_seed": seed,
                      "dims": list(e.dims), "depth": None, "n": len(e.states),
                      "expected": "indistinguishable"}
        else:
            dims, depth = grid[(i - i // BENNETT_EVERY) % len(grid)]
            basis_seed = int(rng.integers(2**31))
            e = random_product_basis(dims, basis_seed, depth)
            record = {"name": e.name, "structure_seed": basis_seed, "dress_seed": None,
                      "dims": list(dims), "depth": depth, "n": len(e.states),
                      "expected": "distinguishable"}
        cases.append(Case(emit_ensemble(e), record))
    return cases


def bad_input() -> str:
    """A complete-flagged ensemble whose states are not orthogonal."""
    e = catalog("comp2x2")
    states = (e.states[0], ProductState("dup", e.states[0].locals)) + e.states[2:]
    return emit_ensemble(Ensemble("non-orthogonal", e.dims, states, complete=True))
