"""The dual-branch model in :mod:`molfuse.model`.

It equals the benchmark's reference copy (``perfbench/stack.py``, loaded
unedited) byte for byte, its gradients agree with finite differences, a
batch gives each molecule the logits it gets alone, and its graph branch
cannot separate two molecules that 1-WL colour refinement leaves equal,
while the whole model can.
"""

import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import stack  # noqa: E402
from gen import Generator  # noqa: E402
from molfuse import model  # noqa: E402
from molfuse import tensor as T  # noqa: E402
from molfuse.errors import DataError  # noqa: E402
from molfuse.gradcheck import max_relative_error  # noqa: E402
from molfuse.rng import stream  # noqa: E402
from molfuse.smiles import MolecularGraph, featurize  # noqa: E402

# The molecules of a train_b32 step and the benchmark's screening check batch
# (its generator streams, size ranges and malformed rates).
BATCHES = {
    "train_b32": ("smiles:train_b32", 8, 24, 0.0, 32),
    "screen_b256": ("check:screen_b256", 5, 50, 0.02, 256),
}
# Bondless and single-atom molecules beside bonded ones, with alternating labels.
HAND_BATCHES = {"bondless": ("C", "[Na+]", "O", "CCO", "c1ccccc1", "[NH4+]")}


@lru_cache(maxsize=None)
def molecules(name: str):
    if name in HAND_BATCHES:
        return [featurize(s) for s in HAND_BATCHES[name]], np.arange(len(HAND_BATCHES[name])) % 2
    stream_name, lo, hi, malformed, count = BATCHES[name]
    mols = [m for m in Generator(stream(7, stream_name), lo, hi, malformed).take(count) if not m.malformed]
    return [featurize(m.smiles) for m in mols], np.array([m.label for m in mols])


def logits(params, graphs) -> np.ndarray:
    with T.no_grad():
        return model.forward(params, model.collate(graphs)).values


@pytest.mark.parametrize("name", [*BATCHES, *HAND_BATCHES])
def test_logits_and_gradients_equal_the_benchmark_copy_byte_for_byte(name):
    graphs, labels = molecules(name)
    runs = []
    for module in (stack, model):
        params = module.init_params(stream(7, "weights"))
        out = module.forward(params, module.collate(graphs))
        T.backward(T.cross_entropy(out, labels))
        runs.append((out.values.tobytes(), {k: (p.values.tobytes(), p.grad.tobytes()) for k, p in params.items()}))
    (ref_logits, ref_params), (new_logits, new_params) = runs
    assert new_logits == ref_logits
    assert list(new_params) == list(ref_params)
    for key, (values, grad) in ref_params.items():
        assert new_params[key] == (values, grad), key


def test_gradients_agree_with_finite_differences():
    graphs, labels = molecules("train_b32")
    params = model.init_params(stream(7, "gradcheck:init"))
    batch = model.collate(graphs[:3])
    err = max_relative_error(
        params, lambda: T.cross_entropy(model.forward(params, batch), labels[:3]), n_points=20, rng=stream(7, "gradcheck")
    )
    assert err < 1e-4


def test_gradient_check_catches_a_thousandth_off_in_a_parameter_no_pick_reaches(monkeypatch):
    # The check above picks no gat0.src coordinate; its per-parameter direction must see the error.
    graphs, labels = molecules("train_b32")
    params = model.init_params(stream(7, "gradcheck:init"))
    batch = model.collate(graphs[:3])
    accumulate = T._accumulate
    monkeypatch.setattr(
        T, "_accumulate", lambda leaf, grad: accumulate(leaf, grad * 1.001 if leaf is params["gat0.src"] else grad)
    )
    err = max_relative_error(
        params, lambda: T.cross_entropy(model.forward(params, batch), labels[:3]), n_points=20, rng=stream(7, "gradcheck")
    )
    assert err >= 1e-4


def test_forward_gathers_no_identity_rows(monkeypatch):
    graphs, _ = molecules("train_b32")
    params = model.init_params(stream(7, "weights"))
    gather, identities = T.gather_rows, []

    def spy(a, indices):
        if np.array_equal(indices, np.arange(a.shape[0])):
            identities.append(a.shape)
        return gather(a, indices)

    monkeypatch.setattr(T, "gather_rows", spy)
    model.forward(params, model.collate(graphs))
    assert identities == []


@pytest.mark.parametrize("name", [*BATCHES, *HAND_BATCHES])
def test_batched_logits_equal_per_molecule_logits(name):
    graphs, _ = molecules(name)
    params = model.init_params(stream(7, "weights"))
    batched = logits(params, graphs)
    single = np.concatenate([logits(params, [g]) for g in graphs])
    assert np.abs(batched - single).max() <= 1e-12
    probs = model.probabilities(T.constant(batched))
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12


def test_empty_batch_raises_data_error():
    with pytest.raises(DataError, match=r"^collate needs at least one molecule, got an empty batch$"):
        model.collate([])


@pytest.mark.parametrize(
    "atomless",
    [MolecularGraph(np.zeros((0, 9)), (), ""), MolecularGraph([], [], "")],
    ids=["empty-matrix", "empty-list"],
)
def test_atomless_molecule_raises_data_error_naming_its_position(atomless):
    graphs = [featurize("CCO"), atomless, featurize("C")]
    with pytest.raises(DataError, match=r"^collate needs atoms in every molecule, molecule 1 has none$"):
        model.collate(graphs)


# ---- 1-WL indistinguishable pairs ------------------------------------------------


def wl_equivalent(first, second) -> bool:
    """Whether 1-WL colour refinement leaves two graphs with equal colour multisets.

    Colours start from the feature rows and are refined on the sorted colours
    of each atom's neighbours, with one palette for both graphs so colours
    compare across them; bond orders are ignored, as the GAT ignores them.
    """
    graphs = (first, second)
    neighbours = [[[] for _ in range(g.num_atoms)] for g in graphs]
    for adjacency, g in zip(neighbours, graphs):
        for i, j, _ in g.bonds:
            adjacency[i].append(j)
            adjacency[j].append(i)
    colours = [[tuple(row) for row in g.features.tolist()] for g in graphs]
    for _ in range(first.num_atoms + second.num_atoms):  # enough rounds to reach the stable colouring
        signatures = [
            [(c[i], tuple(sorted(c[j] for j in adjacency[i]))) for i in range(len(c))]
            for c, adjacency in zip(colours, neighbours)
        ]
        palette = {s: k for k, s in enumerate(sorted(set(signatures[0]) | set(signatures[1])))}
        colours = [[palette[s] for s in sig] for sig in signatures]
    return sorted(colours[0]) == sorted(colours[1])


def fused_rings(n: int, methyls: bool) -> str:
    """Bicyclo[n.n.0]alkane, two (n + 2)-rings sharing a bond (n = 4: decalin),
    optionally with a methyl on each ring-junction atom."""
    if methyls:
        return "CC12" + "C" * n + "C1(C)" + "C" * (n - 1) + "C2"
    return "C1" + "C" * (n - 1) + "C2" + "C" * n + "C12"


def joined_rings(n: int, methyls: bool) -> str:
    """Two (n + 1)-rings joined by a bond (n = 4: bicyclopentyl), optionally
    with a methyl on each ring-junction atom."""
    ring = "C" * (n - 1) + "C1"
    return ("CC1(" + ring + ")C1(C)" if methyls else "C1" + ring + "C1") + ring


WL_PAIRS = [(fused_rings(n, m), joined_rings(n, m)) for n in (4, 5, 6) for m in (False, True)]


def pooled_atoms(params, graph) -> np.ndarray:
    """The graph branch's mean atom vector, the readout the fusion starts from."""
    with T.no_grad():
        return model.gat(params, model.collate([graph])).values.mean(axis=0)


@pytest.mark.parametrize("pair", WL_PAIRS, ids="/".join)
def test_graph_branch_cannot_separate_a_1wl_equivalent_pair_but_the_model_can(pair):
    first, second = map(featurize, pair)
    assert wl_equivalent(first, second)
    params = model.init_params(stream(7, "weights"))
    assert np.abs(pooled_atoms(params, first) - pooled_atoms(params, second)).max() <= 1e-12
    assert np.abs(logits(params, [first]) - logits(params, [second])).max() > 1e-3


def test_1wl_oracle_rejects_a_pair_the_graph_branch_separates():
    # Equal feature multisets, but the O atoms sit at inequivalent places.
    first, second = map(featurize, ("O1CCC2CCOCC2C1", "O1CCC(C1)C1CCOC1"))
    assert sorted(map(tuple, first.features.tolist())) == sorted(map(tuple, second.features.tolist()))
    assert not wl_equivalent(first, second)
    params = model.init_params(stream(7, "weights"))
    assert np.abs(pooled_atoms(params, first) - pooled_atoms(params, second)).max() > 1e-6
