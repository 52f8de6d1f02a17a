"""The benchmark model's op results are proven finite from their inputs' bounds.

An op result whose bound exceeds ``molfuse.tensor._LIMIT`` is checked by
reading it again, which costs about a tenth of a screening forward when it
happens on the token-pair arrays.  This counts such fallbacks over the
benchmark's screening check batch and over two training steps, so an op
that loses its bound fails here instead of only slowing the benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from molfuse import tensor as T  # noqa: E402
from molfuse.rng import stream  # noqa: E402
from molfuse.smiles import featurize  # noqa: E402
from spans import OFF  # noqa: E402
from stack import collate, forward, init_params  # noqa: E402
from workloads import BATCH, Trainer, source  # noqa: E402


@pytest.fixture
def fallbacks(monkeypatch):
    """Each ``_make`` call that falls back to the exact check, as (op, input shapes).

    A leaf larger than the op's output is left unread by design, and its
    output checked instead (the atom-feature embedding, whose one-hot
    constant is 45 columns wide and its output 32, is one); that is not a
    lost bound, so it is not recorded.
    """
    made = T._make
    lost = []

    def spy(values, op, inputs, backward_rule, bound):
        t = made(values, op, inputs, backward_rule, bound)
        skipped_leaf = any(x._bounded is not x.values and x.size > t.size for x in inputs)
        if not bound <= T._LIMIT and not skipped_leaf:
            lost.append((op, [x.shape for x in inputs]))
        return t

    monkeypatch.setattr(T, "_make", spy)
    return lost


def test_screening_forward_needs_no_output_check(fallbacks):
    params = init_params(stream(7, "weights"))
    graphs = [featurize(m.smiles) for m in source("screen_b256", 7, "check").take(256) if not m.malformed]
    with T.no_grad():
        forward(params, collate(graphs))
    assert fallbacks == []


def test_training_steps_need_no_output_check(fallbacks, tmp_path):
    batch = BATCH["train_b32"]
    corpus = source("train_b32", 7, "bounds").take(2 * batch)
    trainer = Trainer(init_params(stream(7, "init")), corpus, 7, tmp_path / "unused.ckpt")
    for begin in (0, batch):
        loss = trainer.step(np.arange(begin, begin + batch), OFF)
        assert np.isfinite(loss)
    assert fallbacks == []
