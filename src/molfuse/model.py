"""The dual-branch model: a GAT over atoms, a Transformer over SMILES
characters, and cross-attention that fuses them.

An atom-feature embedding feeds two multi-head GAT layers over the
disjoint-union batch graph; one character-token self-attention layer
(pre-norm, GELU feed-forward) reads the SMILES string; a mean readout over
each molecule's atoms then cross-attends to the molecule's tokens
(graph-to-token), and a linear head gives class logits.  ``matmul`` is 2-D
only, so all three attentions run over listed (query, key) pairs that
:func:`collate` enumerates in one pass over the batch's stacked arrays, and
the GAT layers and both dot-product attentions share one tail,
:func:`_attend`.  Token self-attention is limited to a window of ``WINDOW``
characters and the cross-attention query is one vector per molecule: full
token-pair attention over a batch of 256 screening molecules needs about a
million pairs, whose (pairs, DIM) float64 arrays reach a gigabyte of memory.

Parameter names and shapes are those of the benchmark's reference copy in
``perfbench/stack.py``, so checkpoints load into either.  That copy stays
until the benchmark imports this module; tier-1 compares the two byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, _array
from .smiles import MolecularGraph
from .tensor import Tensor

DIM = 32
HEADS = 4
FFN = 2 * DIM
WINDOW = 8  # a token attends to tokens at most this many characters away
MAX_TOKENS = 128  # positional table size; longer strings are truncated
CLASSES = 2

# Character vocabulary of the SMILES alphabet; index 0 is "unknown".
VOCAB = "?#%()+-./0123456789:=@BCFHIKLMNOPSTXZ[\\]abcegilnoprstu"
_CHAR_INDEX = np.zeros(128, dtype=np.intp)
_CHAR_INDEX[[ord(c) for c in VOCAB[1:]]] = np.arange(1, len(VOCAB))

# One-hot slots per atom feature, in the column order of
# MolecularGraph.features.  Values outside a slot range are clipped into its
# last bucket.
_ELEMENT_SLOTS = (5, 6, 7, 8, 9, 15, 16, 17, 35, 53)  # B C N O F P S Cl Br I; others -> extra slot
_FEATURE_SIZES = (len(_ELEMENT_SLOTS) + 1, 4, 6, 5, 5, 3, 7, 2, 2)
_FEATURE_OFFSETS = np.concatenate([[0], np.cumsum(_FEATURE_SIZES)[:-1]])
ATOM_FEATURES = int(sum(_FEATURE_SIZES))
_ELEMENT_INDEX = np.full(128, len(_ELEMENT_SLOTS), dtype=np.intp)
_ELEMENT_INDEX[list(_ELEMENT_SLOTS)] = np.arange(len(_ELEMENT_SLOTS))

# Head indicator: column h sums the DIM // HEADS coordinates of head h.
_HEAD_SUM = T.constant(np.kron(np.eye(HEADS), np.ones((DIM // HEADS, 1))))
_HEAD_SPREAD = T.constant(_HEAD_SUM.values.T.copy())


@dataclass
class Batch:
    """Index arrays for one disjoint-union batch; everything is numpy."""

    num_mols: int
    atom_x: np.ndarray  # (atoms, ATOM_FEATURES) one-hot
    atom_mol: np.ndarray  # (atoms,)
    edge_src: np.ndarray  # every bond forward, then every bond reversed, then a self loop per atom
    edge_dst: np.ndarray
    tok_ids: np.ndarray  # (tokens,)
    tok_pos: np.ndarray
    tok_mol: np.ndarray
    tt_q: np.ndarray  # token -> token pairs within a molecule and WINDOW
    tt_k: np.ndarray
    inv_atoms: np.ndarray  # (mols, 1) reciprocal atom counts


def _pairs(key_start: np.ndarray, key_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-query key ranges into (query, key) index pairs."""
    q = np.repeat(np.arange(len(key_count)), key_count)
    first = np.cumsum(key_count) - key_count
    return q, np.repeat(key_start - first, key_count) + np.arange(len(q))


def encode_atoms(features: np.ndarray) -> np.ndarray:
    """One-hot atom features, (atoms, ATOM_FEATURES), from an (atoms, 9) feature matrix."""
    raw = features.astype(np.intp)
    idx = np.empty_like(raw)
    idx[:, 0] = _ELEMENT_INDEX[np.minimum(raw[:, 0], 127)]
    idx[:, 1:] = np.clip(raw[:, 1:], 0, np.array(_FEATURE_SIZES[1:]) - 1)
    idx[:, 3] = np.clip(raw[:, 3] + 2, 0, _FEATURE_SIZES[3] - 1)  # charge -2..2
    out = np.zeros((len(raw), ATOM_FEATURES))
    out[np.arange(len(raw))[:, None], idx + _FEATURE_OFFSETS] = 1.0
    return out


def collate(graphs: list[MolecularGraph]) -> Batch:
    """Batch featurized molecules into one graph plus character tokens.

    Beyond reading each features matrix, it makes no numpy call per
    molecule.  It checks the batch first, reading features and bonds with
    ``errors._array``: every molecule has atoms, an (atoms, 9) real
    features matrix, a ``str`` SMILES and bonds of three integers (i, j,
    order) with 0 <= i < j < atoms, each pair listed once, else
    :class:`~molfuse.errors.DataError` names the first molecule that fails.
    """
    if not graphs:
        raise DataError("collate needs at least one molecule, got an empty batch")
    features = [_array(g.features, f"collate features of molecule {k}", "biuf") for k, g in enumerate(graphs)]
    for k, (g, shape) in enumerate(zip(graphs, (f.shape for f in features))):
        if shape[:1] == (0,):
            raise DataError(f"collate needs atoms in every molecule, molecule {k} has none")
        if shape[1:] != (len(_FEATURE_SIZES),):
            raise DataError(f"collate needs an (atoms, 9) features matrix, molecule {k} has shape {shape}")
        if not isinstance(g.source_smiles, str):
            raise DataError(f"collate needs a str SMILES in every molecule, molecule {k} has {g.source_smiles!r}")
    atom_sizes = np.array([len(f) for f in features])
    tok_sizes = np.array([min(len(g.source_smiles), MAX_TOKENS) for g in graphs])
    # One (i, j, order) row per bond and its molecule, checked and offset over the whole batch.
    bonds = _array([bond for g in graphs for bond in g.bonds], "collate bonds", "iu")
    if len(bonds) and bonds.shape[1:] != (3,):
        raise DataError(f"collate bonds must be (i, j, order) triples, got an array of shape {bonds.shape}")
    mol = np.repeat(np.arange(len(graphs)), [len(g.bonds) for g in graphs])
    i, j, _ = bonds.reshape(-1, 3).astype(np.intp, copy=False).T
    bad = np.flatnonzero((i < 0) | (i >= j) | (j >= atom_sizes[mol]))
    if len(bad):
        n = bad[0]
        raise DataError(f"collate needs bonds (i, j) with 0 <= i < j < atoms, molecule {mol[n]} has ({i[n]}, {j[n]})")
    atom_start = np.cumsum(atom_sizes) - atom_sizes
    src, dst = i + atom_start[mol], j + atom_start[mol]
    loops = np.arange(atom_sizes.sum())
    key = src * len(loops) + dst
    order = np.argsort(key, kind="stable")
    again = order[1:][key[order[1:]] == key[order[:-1]]]  # each listing after a pair's first
    if len(again):
        n = again.min()
        raise DataError(f"collate needs each bond listed once, molecule {mol[n]} lists ({i[n]}, {j[n]}) more than once")
    chars = "".join(g.source_smiles[:MAX_TOKENS] for g in graphs)
    codes = np.frombuffer(chars.encode("ascii", "replace"), dtype=np.uint8)
    tok_start = np.cumsum(tok_sizes) - tok_sizes
    tok_mol = np.repeat(np.arange(len(graphs)), tok_sizes)
    tok_pos = np.arange(len(tok_mol)) - tok_start[tok_mol]
    lo = np.maximum(tok_pos - WINDOW, 0)
    hi = np.minimum(tok_pos + WINDOW, tok_sizes[tok_mol] - 1)
    tt_q, tt_k = _pairs(tok_start[tok_mol] + lo, hi - lo + 1)
    return Batch(
        num_mols=len(graphs),
        atom_x=encode_atoms(np.concatenate(features)),
        atom_mol=np.repeat(np.arange(len(graphs)), atom_sizes),
        edge_src=np.concatenate([src, dst, loops]),
        edge_dst=np.concatenate([dst, src, loops]),
        tok_ids=_CHAR_INDEX[np.minimum(codes, 127)],
        tok_pos=tok_pos,
        tok_mol=tok_mol,
        tt_q=tt_q,
        tt_k=tt_k,
        inv_atoms=(1.0 / atom_sizes)[:, None],
    )


# ---- parameters ---------------------------------------------------------------


def init_params(rng: np.random.Generator) -> dict[str, Tensor]:
    """Glorot-scaled weights, zero biases, unit layer-norm gains."""
    shapes = {
        "atom.w": (ATOM_FEATURES, DIM),
        "atom.b": (DIM,),
        "tok.embed": (len(VOCAB), DIM),
        "tok.pos": (MAX_TOKENS, DIM),
        "head.w": (DIM, CLASSES),
        "head.b": (CLASSES,),
    }
    for layer in ("gat0", "gat1"):
        shapes.update({f"{layer}.w": (DIM, DIM), f"{layer}.src": (DIM,), f"{layer}.dst": (DIM,), f"{layer}.b": (DIM,)})
    for name in ("tok.q", "tok.k", "tok.v", "tok.o", "cross.q", "cross.k", "cross.v", "cross.o"):
        shapes[name] = (DIM, DIM)
    shapes.update({"tok.ff1": (DIM, FFN), "tok.ff1b": (FFN,), "tok.ff2": (FFN, DIM), "tok.ff2b": (DIM,)})
    for ln in ("tok.ln1", "tok.ln2", "cross.ln"):
        shapes[f"{ln}.g"] = (DIM,)
        shapes[f"{ln}.b"] = (DIM,)
    params = {}
    for name, shape in sorted(shapes.items()):
        if name.endswith(".g"):
            values = np.ones(shape)
        elif len(shape) == 1 and not name.endswith((".src", ".dst")):
            values = np.zeros(shape)
        else:
            fan = sum(shape) if len(shape) == 2 else shape[0]
            values = rng.normal(scale=np.sqrt(2.0 / fan), size=shape)
        params[name] = T.parameter(values)
    return params


# ---- forward stages -------------------------------------------------------------


def _attend(scores: Tensor, v_rows: Tensor, q_idx, num_q: int) -> Tensor:
    """Softmax each head's scores over its query's pairs, then sum the pairs' value rows so weighted."""
    alpha = T.segment_softmax(scores, q_idx, num_q)
    return T.segment_sum(v_rows * T.matmul(alpha, _HEAD_SPREAD), q_idx, num_q)


def _segment_attention(q_rows: Tensor, k_rows: Tensor, v_rows: Tensor, q_idx, num_q: int) -> Tensor:
    """Multi-head dot-product attention over listed pairs, from each pair's query, key and value rows."""
    scores = T.scale(T.matmul(q_rows * k_rows, _HEAD_SUM), 1.0 / np.sqrt(DIM // HEADS))
    return _attend(scores, v_rows, q_idx, num_q)


def _gat_layer(h: Tensor, p: dict[str, Tensor], layer: str, batch: Batch) -> Tensor:
    n = h.shape[0]
    z = T.matmul(h, p[f"{layer}.w"])
    s_src = T.matmul(z * p[f"{layer}.src"], _HEAD_SUM)
    s_dst = T.matmul(z * p[f"{layer}.dst"], _HEAD_SUM)
    e = T.leaky_relu(T.gather_rows(s_src, batch.edge_src) + T.gather_rows(s_dst, batch.edge_dst))
    return T.elu(_attend(e, T.gather_rows(z, batch.edge_src), batch.edge_dst, n) + p[f"{layer}.b"])


def gat(p: dict[str, Tensor], batch: Batch) -> Tensor:
    """Atom embedding plus two GAT layers: (atoms, DIM)."""
    h = T.elu(T.matmul(T.constant(batch.atom_x), p["atom.w"]) + p["atom.b"])
    return _gat_layer(_gat_layer(h, p, "gat0", batch), p, "gat1", batch)


def token(p: dict[str, Tensor], batch: Batch) -> Tensor:
    """Character embedding plus one pre-norm Transformer layer: (tokens, DIM)."""
    x = T.gather_rows(p["tok.embed"], batch.tok_ids) + T.gather_rows(p["tok.pos"], batch.tok_pos)
    h = T.layer_norm(x, p["tok.ln1.g"], p["tok.ln1.b"])
    q, k, v = (T.matmul(h, p[f"tok.{name}"]) for name in "qkv")
    q, k, v = T.gather_rows(q, batch.tt_q), T.gather_rows(k, batch.tt_k), T.gather_rows(v, batch.tt_k)
    att = _segment_attention(q, k, v, batch.tt_q, x.shape[0])
    x = x + T.matmul(att, p["tok.o"])
    h = T.layer_norm(x, p["tok.ln2.g"], p["tok.ln2.b"])
    ff = T.matmul(T.gelu(T.matmul(h, p["tok.ff1"]) + p["tok.ff1b"]), p["tok.ff2"]) + p["tok.ff2b"]
    return x + ff


def cross(p: dict[str, Tensor], atoms: Tensor, tokens: Tensor, batch: Batch) -> Tensor:
    """Mean readout of the atoms, which then attends to its molecule's tokens: (mols, DIM)."""
    pooled = T.segment_sum(atoms, batch.atom_mol, batch.num_mols) * T.constant(batch.inv_atoms)
    q = T.gather_rows(T.matmul(pooled, p["cross.q"]), batch.tok_mol)  # each token's pair: its molecule's query
    k = T.matmul(tokens, p["cross.k"])
    v = T.matmul(tokens, p["cross.v"])
    att = _segment_attention(q, k, v, batch.tok_mol, batch.num_mols)
    return T.layer_norm(pooled + T.matmul(att, p["cross.o"]), p["cross.ln.g"], p["cross.ln.b"])


def head(p: dict[str, Tensor], fused: Tensor) -> Tensor:
    """Linear head on the fused molecule vectors: (mols, CLASSES)."""
    return T.matmul(fused, p["head.w"]) + p["head.b"]


def forward(p: dict[str, Tensor], batch: Batch) -> Tensor:
    """Logits for a batch: (mols, CLASSES)."""
    return head(p, cross(p, gat(p, batch), token(p, batch), batch))


def probabilities(logits: Tensor) -> np.ndarray:
    """Class probabilities, each row summing to 1."""
    return T.softmax(logits, axis=-1).values
