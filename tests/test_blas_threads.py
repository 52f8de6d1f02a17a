"""Inference outputs do not depend on the BLAS thread count.

Each run scores the benchmark's screening check batch in a fresh
interpreter, since OpenBLAS reads its thread count once, at load.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

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


def logits_digest(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    run = subprocess.run(
        [sys.executable, "-c", SCORE.format(paths=PATHS)], env=env, capture_output=True, timeout=120, check=True
    )
    assert run.stdout
    return hashlib.sha256(run.stdout).hexdigest()


def test_inference_is_byte_identical_at_one_and_two_blas_threads():
    assert logits_digest(1) == logits_digest(2)
