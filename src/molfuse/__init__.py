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
One seed gives byte-identical inference outputs at any BLAS thread count,
since the forward's products are too small for OpenBLAS to split their
reductions; training is byte-identical, from one process to the next, only
at a fixed thread count, since the weight-gradient products reduce over
every row of a batch.
Importing :mod:`molfuse.tensor`, which the optimizer, checkpoint and
gradcheck modules import, makes glibc keep freed array memory in the
process heap for the rest of the process (its "Memory" note says why). It
loads scipy's two compiled modules that it calls by file, without importing
``scipy.sparse`` or ``scipy.special``: a fresh ``import molfuse.tensor``
takes about a third of the time and half the peak RSS that those packages
cost (its "Imports" note gives the figures).
"""

__version__ = "0.1.0"
