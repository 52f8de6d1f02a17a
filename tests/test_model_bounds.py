"""The model's op results are proven finite from their inputs' bounds.

An op result whose bound exceeds ``molfuse.tensor._LIMIT`` is checked by
reading it again, which costs about a tenth of a screening forward when it
happens on the token-pair arrays.  This counts such fallbacks over the
benchmark's screening check batch and over two training steps, so an op
that loses its bound fails here instead of only slowing the benchmark.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from molfuse import tensor as T
from molfuse.model import collate, forward, init_params
from molfuse.optim import AdamState, adam_step
from molfuse.rng import stream
from molfuse.smiles import featurize

Generator = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"))["Generator"]


@pytest.fixture
def fallbacks(monkeypatch):
    """Each ``_make`` call that falls back to the exact check, as (op, input shapes).

    Every input, leaf or op result, carries the bound set with its values,
    so no call may fall back.
    """
    made = T._make
    lost = []

    def spy(values, op, inputs, backward_rule, bound):
        if not bound <= T._LIMIT:
            lost.append((op, [x.shape for x in inputs]))
        return made(values, op, inputs, backward_rule, bound)

    monkeypatch.setattr(T, "_make", spy)
    return lost


def test_screening_forward_needs_no_output_check(fallbacks):
    # The benchmark's screening check batch: 5-50 atoms, 2% malformed.
    params = init_params(stream(7, "weights"))
    mols = Generator(stream(7, "check:screen_b256"), 5, 50, 0.02).take(256)
    graphs = [featurize(m.smiles) for m in mols if not m.malformed]
    with T.no_grad():
        forward(params, collate(graphs))
    assert fallbacks == []


def test_training_steps_need_no_output_check(fallbacks):
    # Two train_b32 steps of 32 molecules of 8-24 atoms at the benchmark's
    # learning rate; the second step runs on the values Adam reassigned.
    params = init_params(stream(7, "init"))
    state = AdamState(learning_rate=3e-3)
    mols = Generator(stream(7, "bounds:train_b32"), 8, 24).take(64)
    for step in (mols[:32], mols[32:]):
        logits = forward(params, collate([featurize(m.smiles) for m in step]))
        loss = T.cross_entropy(logits, np.array([m.label for m in step]))
        T.backward(loss)
        adam_step(params, state)
        T.zero_grads(params.values())
        assert np.isfinite(loss.item())
    assert fallbacks == []
