"""Correctness checks run with every benchmark invocation, outside timing.

Each check returns ``(name, passed, detail)``; any failure makes the
benchmark exit non-zero.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gen import Generator
from molfuse import tensor as T
from molfuse.checkpoint import load_arrays, save_params
from molfuse.errors import SmilesError
from molfuse.gradcheck import max_relative_error
from molfuse.rng import stream
from molfuse.smiles import featurize
from spans import Tracer
from stack import collate, forward, init_params, probabilities
from workloads import PROB_TOL, SIZES, TRAIN_ENTRIES, Tally, Trainer, source

Check = tuple[str, bool, str]

SAMPLE = 8  # screening molecules re-scored one at a time
BATCHED_TOL = 1e-12
MALFORMED_COUNT = 512  # strings of the rejection check
MALFORMED_RATE = 0.1
GRAD_MOLECULES = 3
GRAD_POINTS = 10  # coordinates compared with finite differences
GRAD_TOL = 1e-4
MINI_CORPUS = 64  # molecules of the short training run, two steps per epoch
MINI_EPOCHS = 4


def _logits(params, graphs) -> np.ndarray:
    with T.no_grad():
        return forward(params, collate(graphs)).values


def batched_equals_single(seed: int) -> list[Check]:
    """A screening batch: batched logits match per-molecule logits; probabilities are sane."""
    params = init_params(stream(seed, "weights"))
    graphs = [featurize(m.smiles) for m in source("screen_b256", seed, "check").take(256) if not m.malformed]
    batched = _logits(params, graphs)
    picks = stream(seed, "check:sample").choice(len(graphs), size=SAMPLE, replace=False)
    single = np.concatenate([_logits(params, [graphs[i]]) for i in picks])
    diff = float(np.abs(batched[picks] - single).max())
    probs = probabilities(T.constant(batched))
    sums = float(np.abs(probs.sum(axis=1) - 1.0).max())
    return [
        ("batched_equals_single", diff <= BATCHED_TOL, f"max |diff| {diff:.3g} over {SAMPLE} of {len(graphs)}"),
        ("probabilities", bool(np.isfinite(probs).all()) and sums <= PROB_TOL, f"max |sum - 1| {sums:.3g}"),
    ]


def rejection(seed: int) -> list[Check]:
    """Exactly the marked strings raise SmilesError; parsed graphs agree with the generator."""
    lo, hi, _ = SIZES["screen_b256"]
    mols = Generator(stream(seed, "check:malformed"), lo, hi, MALFORMED_RATE).take(MALFORMED_COUNT)
    wrong, other, graph = [], [], []
    for m in mols:
        try:
            g = featurize(m.smiles)
        except SmilesError:
            if not m.malformed:
                wrong.append(m.smiles)
            continue
        except Exception as exc:  # the check is that nothing else is raised
            other.append(f"{m.smiles}: {exc!r}")
            continue
        if m.malformed:
            wrong.append(f"{m.smiles} ({m.mutation})")
            continue
        arom_n = any(a.atomic_number == 7 and a.is_aromatic for a in g.atoms)
        if g.num_atoms != m.atoms or arom_n != bool(m.label):
            graph.append(m.smiles)
    marked = sum(m.malformed for m in mols)
    return [
        ("rejects_exactly_marked", not wrong, f"{marked} marked of {MALFORMED_COUNT}; mismatched {wrong[:3]}"),
        ("no_other_errors", not other, "; ".join(other[:3])),
        ("graph_matches_generator", not graph, f"atom count or aromatic-N label differs for {graph[:3]}"),
    ]


def checkpoint_roundtrip(seed: int, workdir: Path) -> list[Check]:
    """load_arrays after save_params is bit-exact, and re-saving gives the same bytes."""
    params = init_params(stream(seed, "weights"))
    first, second = workdir / "roundtrip-a.ckpt", workdir / "roundtrip-b.ckpt"
    try:
        save_params(first, params)
        arrays = load_arrays(first)
        exact = list(arrays) == list(params) and all(
            arrays[k].dtype == np.float64 and arrays[k].tobytes() == p.values.tobytes() for k, p in params.items()
        )
        save_params(second, {k: T.parameter(v) for k, v in arrays.items()})
        same_file = first.read_bytes() == second.read_bytes()
    finally:
        first.unlink(missing_ok=True)
        second.unlink(missing_ok=True)
    return [("checkpoint_roundtrip", exact and same_file, f"arrays bit-exact {exact}, file bytes equal {same_file}")]


def gradient(seed: int) -> list[Check]:
    """Finite differences agree with backward through the whole reference stack."""
    params = init_params(stream(seed, "gradcheck:init"))
    mols = source("train_b32", seed, "gradcheck").take(GRAD_MOLECULES)
    batch = collate([featurize(m.smiles) for m in mols])
    labels = np.array([m.label for m in mols])
    err = max_relative_error(
        params, lambda: T.cross_entropy(forward(params, batch), labels), n_points=GRAD_POINTS, rng=stream(seed, "gradcheck")
    )
    return [("gradcheck", err < GRAD_TOL, f"max relative error {err:.3g} at {GRAD_POINTS} coordinates")]


def mini_training(seed: int, ckpt: Path) -> Trainer:
    """A short training run on a train_b32-like corpus (also the determinism fixture)."""
    params = init_params(stream(seed, "init"))
    trainer = Trainer(params, source("train_b32", seed, "mini").take(MINI_CORPUS), seed, ckpt)
    trainer.run(0.0, [(Tally(TRAIN_ENTRIES), Tracer(enabled=False))], min_epochs=MINI_EPOCHS)
    return trainer


def training(trainer: Trainer) -> list[Check]:
    """Every loss is finite and the last epoch's mean loss is below the first's."""
    losses = trainer.step_losses
    finite = bool(losses) and bool(np.isfinite(losses).all())
    epochs = trainer.epoch_losses
    falls = len(epochs) >= 2 and epochs[-1] < epochs[0]
    detail = f"{len(losses)} steps, epoch means {epochs[0]:.4f} -> {epochs[-1]:.4f}" if epochs else "no epochs"
    return [("loss_finite", finite, f"{len(losses)} step losses"), ("loss_falls", falls, detail)]


def run_all(seed: int, workdir: Path, trainer: Trainer | None) -> list[Check]:
    """Every check; ``trainer`` is the measured train_b32 run, else a short one is made."""
    if trainer is None:
        ckpt = workdir / "mini-train.ckpt"
        try:
            trainer = mini_training(seed, ckpt)
        finally:
            ckpt.unlink(missing_ok=True)
    return (
        batched_equals_single(seed)
        + rejection(seed)
        + checkpoint_roundtrip(seed, workdir)
        + gradient(seed)
        + training(trainer)
    )
