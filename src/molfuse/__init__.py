"""Dual-branch molecular property prediction at desk scale.

The package pairs a graph-attention encoder over parsed molecular graphs
with a Transformer encoder over tokenized SMILES strings, fuses the two
branches through multi-head cross-attention, and trains the whole stack
with Adam on a minimal float64 reverse-mode autodiff engine.

Modules: :mod:`molfuse.model` (the dual-branch model and its batching),
:mod:`molfuse.tensor` (the autodiff engine and its ops),
:mod:`molfuse.gradcheck` (finite-difference checks of every op and of whole
models), :mod:`molfuse.smiles` (SMILES parsing and atom featurization),
:mod:`molfuse.optim` (Adam), :mod:`molfuse.checkpoint` (bit-exact parameter
files), :mod:`molfuse.rng` (named seeded streams) and :mod:`molfuse.errors`.
The training loop, the metrics and the command line are not written yet.
A tensor holds a read-only, finiteness-checked copy of its values; reassign
``values`` to change them (the Conventions of :mod:`molfuse.tensor`).
One seed gives byte-identical inference outputs and training checkpoints at
any BLAS thread count: OpenBLAS splits no reduction of the forward's
products, which are small, nor of the fixed row blocks that the weight
gradients are summed over (the "BLAS thread count" note of
:mod:`molfuse.tensor`).
Importing :mod:`molfuse.tensor`, which the optimizer, checkpoint and
gradcheck modules import, makes glibc keep freed array memory in the
process heap for the rest of the process (its "Memory" note says why).
:func:`molfuse.smiles.featurize` also keeps process-wide state: a memo of
the graphs of its last 512 distinct strings, up to about 2.3 MB, which
``featurize.cache_clear()`` frees. Importing :mod:`molfuse.tensor` also
loads scipy's two compiled modules that it calls by file, without importing
``scipy.sparse`` or ``scipy.special``: a fresh ``import molfuse.tensor``
takes about a third of the time and half the peak RSS that those packages
cost (its "Imports" note gives the figures).
"""

__version__ = "0.1.0"
