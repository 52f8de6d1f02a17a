"""Dual-branch molecular property prediction at desk scale.

The package pairs a graph-attention encoder over parsed molecular graphs
with a Transformer encoder over tokenized SMILES strings, fuses the two
branches through multi-head cross-attention, and trains the whole stack
with Adam on a minimal float64 reverse-mode autodiff engine.

Modules: :mod:`molfuse.tensor` (the autodiff engine and its ops),
:mod:`molfuse.gradcheck` (finite-difference checks of every op and of whole
models), :mod:`molfuse.smiles` (SMILES parsing and atom featurization),
:mod:`molfuse.optim` (Adam), :mod:`molfuse.checkpoint` (bit-exact parameter
files), :mod:`molfuse.rng` (named seeded streams) and :mod:`molfuse.errors`.
The model, the metrics and the command line are not written yet.
"""

__version__ = "0.1.0"
