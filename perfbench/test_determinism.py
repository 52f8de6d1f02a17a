"""The seed fixes the benchmark's inputs and everything computed from them.

Run with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from checks import mini_training  # noqa: E402
from workloads import BATCH, CORPUS, source  # noqa: E402

WORKLOADS = tuple(BATCH)


def corpus(workload: str, seed: int) -> list:
    return source(workload, seed).take(CORPUS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_corpus(workload):
    assert corpus(workload, 5) == corpus(workload, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_corpus(workload):
    first = [m.smiles for m in corpus(workload, 5)]
    second = [m.smiles for m in corpus(workload, 6)]
    assert first != second
    assert len(set(first) & set(second)) < len(first) // 2


def test_screen_corpus_marks_malformed_strings():
    mols = source("screen_b256", 5).take(2000)
    assert 0 < sum(m.malformed for m in mols) < 100


def test_same_seed_gives_identical_losses_and_checkpoint(tmp_path):
    a = mini_training(7, tmp_path / "a.ckpt")
    b = mini_training(7, tmp_path / "b.ckpt")
    assert a.step_losses == b.step_losses
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_different_seed_gives_different_losses(tmp_path):
    assert mini_training(7, tmp_path / "a.ckpt").step_losses != mini_training(8, tmp_path / "b.ckpt").step_losses
