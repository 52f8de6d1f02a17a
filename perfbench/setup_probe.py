"""Time one set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first request: importing molfuse (and
numpy/scipy with it), parameter init, the checkpoint load of the inference
workloads, and warm-up.  The warm-up molecules arrive as JSON on stdin,
already generated, so input generation stays outside the timed region:
``{"workload": ..., "seed": ..., "ckpt": ..., "warmup": [[smiles, atoms, label], ...]}``.
The seconds are scaled to the reference host speed by host probes taken right
after the set-up, as the workloads' timed regions are (see
``workloads.PROBE_NOMINAL_S``).
"""

import json
import statistics
import sys
import time
from pathlib import Path


def main() -> None:
    cfg = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import workloads
    from gen import Molecule

    warmup = [Molecule(smiles, atoms, label, False) for smiles, atoms, label in cfg["warmup"]]
    workloads.setup(cfg["workload"], cfg["seed"], cfg["ckpt"], warmup)
    seconds = time.perf_counter() - start
    probe = statistics.median(workloads.probe() for _ in range(workloads.PROBE_WINDOW))
    print(json.dumps({"setup_s": seconds * workloads.PROBE_NOMINAL_S / probe, "unscaled_s": seconds}))


if __name__ == "__main__":
    main()
