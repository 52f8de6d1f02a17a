"""Inference outputs do not depend on the BLAS thread count, and training
repeats byte for byte across processes at a fixed one.

Each run scores the benchmark's screening check batch, or trains its short
determinism run, in a fresh interpreter, since OpenBLAS reads its thread
count once, at load.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "perfbench")]

SCORE = """
import sys
sys.path[:0] = {paths!r}

from molfuse import tensor as T
from molfuse.rng import stream
from molfuse.smiles import featurize
from stack import collate, forward, init_params
from workloads import source

params = init_params(stream(7, "weights"))
graphs = [featurize(m.smiles) for m in source("screen_b256", 7, "check").take(256) if not m.malformed]
with T.no_grad():
    sys.stdout.buffer.write(forward(params, collate(graphs)).values.tobytes())
"""


TRAIN = """
import sys
from pathlib import Path
sys.path[:0] = {paths!r}

from checks import mini_training

mini_training(7, Path({ckpt!r}))
sys.stdout.buffer.write(Path({ckpt!r}).read_bytes())
"""


def output_digest(script: str, threads: int) -> str:
    """SHA-256 of what ``script`` writes to stdout, run at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120, check=True)
    assert run.stdout
    return hashlib.sha256(run.stdout).hexdigest()


def test_inference_is_byte_identical_at_one_and_two_blas_threads():
    score = SCORE.format(paths=PATHS)
    assert output_digest(score, 1) == output_digest(score, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_training_checkpoint_repeats_across_processes(threads, tmp_path):
    first, second = (
        output_digest(TRAIN.format(paths=PATHS, ckpt=str(tmp_path / f"run{i}.ckpt")), threads) for i in (1, 2)
    )
    assert first == second
