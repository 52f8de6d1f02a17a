"""Benchmark entry point: one workload per run, or every workload.

    python3 perfbench/run.py --workload infer_b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced requests (epochs, for training) for ``--seconds`` and
prints the per-layer metrics derived from the traced half's spans, plus the
tracing overhead: how much lower the traced half's throughput is.  Every run
also runs the correctness checks; the last line of stdout is the result
object, and the exit code is non-zero when a check or an operation failed.
Results, the environment record and (traced) spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (no more than nproc): the GEMMs are small, and a single
# thread keeps runs on a shared machine comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("infer_b1", "train_b32", "screen_b256")
SETUP_REPEATS = 7
AFFINITY = sorted(os.sched_getaffinity(0))
CORE = AFFINITY[-1]

END_TO_END = {
    "mol_per_s": "mol/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "smiles.featurize_us_per_mol": "us",
    "smiles.calls": "count",
    "smiles.rejected": "count",
    "collate.us_per_mol": "us",
    "tensor.fwd.gat_ms": "ms",
    "tensor.fwd.token_ms": "ms",
    "tensor.fwd.cross_ms": "ms",
    "tensor.fwd.head_ms": "ms",
    "tensor.bwd_ms": "ms",
    "tensor.tape_entries": "count",
    "tensor.peak_mb": "MB",
    "optim.adam_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "trace.overhead_pct": "%",
}


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "source_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "nproc": len(AFFINITY),
        "core": CORE,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str | None:
    """HEAD of the repository this file lives in, if it is one."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads(numpy) -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _median_setup(workload: str, seed: int, ckpt: Path, warmup) -> tuple[float, float]:
    """Median of fresh-interpreter set-ups (see setup_probe.py), host-scaled and unscaled."""
    payload = json.dumps(
        {"workload": workload, "seed": seed, "ckpt": str(ckpt), "warmup": [[m.smiles, m.atoms, m.label] for m in warmup]}
    )
    samples, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=payload, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        samples.append(result["setup_s"])
        unscaled.append(result["unscaled_s"])
    return statistics.median(samples), statistics.median(unscaled)


def _layer_metrics(tracer, setup_tracer, traced, untraced, tape: int, peak_mb: float, ckpt_bytes: int) -> dict:
    """Per-layer figures from the traced half's span self times."""
    spans = tracer.self_times()
    setup_spans = setup_tracer.self_times()
    forwards = spans["tensor.fwd.gat"][0]
    calls = spans["smiles.featurize"][0]

    def total(span: str) -> float:
        return spans.get(span, (0, 0.0))[1]

    def per_call(span: str) -> float:
        """Mean self time per call, set-up calls included (checkpoint load of inference)."""
        count, seconds = spans.get(span, (0, 0.0))
        extra_count, extra_seconds = setup_spans.get(span, (0, 0.0))
        return (seconds + extra_seconds) / (count + extra_count) if count + extra_count else 0.0

    return {
        "smiles.featurize_us_per_mol": total("smiles.featurize") / calls * 1e6,
        "smiles.calls": calls,
        "smiles.rejected": traced.rejected,
        "collate.us_per_mol": total("collate") / traced.molecules * 1e6,
        "tensor.fwd.gat_ms": total("tensor.fwd.gat") / forwards * 1e3,
        "tensor.fwd.token_ms": total("tensor.fwd.token") / forwards * 1e3,
        "tensor.fwd.cross_ms": total("tensor.fwd.cross") / forwards * 1e3,
        "tensor.fwd.head_ms": total("tensor.fwd.head") / forwards * 1e3,
        "tensor.bwd_ms": per_call("tensor.bwd") * 1e3,
        "tensor.tape_entries": tape,
        "tensor.peak_mb": peak_mb,
        "optim.adam_ms": per_call("optim.adam") * 1e3,
        "checkpoint.save_ms": per_call("checkpoint.save") * 1e3,
        "checkpoint.load_ms": per_call("checkpoint.load") * 1e3,
        "checkpoint.bytes": ckpt_bytes,
        "trace.overhead_pct": (1.0 - traced.throughput() / untraced.throughput()) * 100,
    }


def run_one(args) -> int:
    import tracemalloc

    import numpy as np

    import checks
    import workloads as W
    from molfuse import tensor as T
    from molfuse.checkpoint import save_params
    from molfuse.rng import stream
    from spans import OFF, Tracer
    from stack import init_params

    name, seed = args.workload, args.seed
    OUT.mkdir(exist_ok=True)
    ckpt = OUT / f"{name}-{os.getpid()}.ckpt"
    setup_tracer = Tracer(enabled=bool(args.trace))
    try:
        warmup = W.warmup_molecules(name, seed)
        trainer = inputs = None
        if name == "train_b32":
            corpus = W.source(name, seed).take(W.CORPUS)
            capacity = W.TRAIN_ENTRIES
        else:
            inputs = W.pool(name, seed, args.seconds)
            capacity = len(inputs) // W.BATCH[name]
            with setup_tracer.span("checkpoint.save"):
                save_params(ckpt, init_params(stream(seed, "weights")))
        setup_s, setup_unscaled_s = _median_setup(name, seed, ckpt, warmup)
        phases = [(W.Tally(capacity), Tracer(enabled=False))]
        if args.trace:
            phases.append((W.Tally(capacity), Tracer(enabled=True)))
        untraced = phases[0][0]
        params = W.setup(name, seed, ckpt, warmup, setup_tracer)
        start = time.perf_counter()
        if name == "train_b32":
            trainer = W.Trainer(params, corpus, seed, ckpt)
            trainer.run(args.seconds, phases, min_epochs=2 * len(phases))
        else:
            W.run_scoring(params, inputs, W.BATCH[name], args.seconds, phases)
        measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            # One more batch under tracemalloc, which slows every allocation,
            # so it stays out of the traced half.
            tape = 0
            tracemalloc.start()
            if trainer is not None:
                loss = trainer.loss(np.arange(W.BATCH[name]))
                tape = len(T.Tape.trace(loss))
                T.backward(loss)
                T.zero_grads(params.values())
            else:
                W.score(params, [m.smiles for m in inputs[: W.BATCH[name]]], OFF)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            traced, tracer = phases[1]
            metrics = _layer_metrics(tracer, setup_tracer, traced, untraced, tape, peak_mb, ckpt.stat().st_size)
            tracer.write(OUT / f"spans_{name}.jsonl")
        else:
            metrics = {
                "mol_per_s": untraced.throughput(),
                "latency_p50_ms": untraced.latency(50) * 1e3,
                "latency_p99_ms": untraced.latency(99) * 1e3,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
        check_results = checks.run_all(seed, OUT, trainer)
    finally:
        ckpt.unlink(missing_ok=True)

    failed = sum(t.failed for t, _ in phases)
    ok = all(passed for _, passed, _ in check_results) and failed == 0
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": ok,
        "attempted": sum(t.attempted for t, _ in phases),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    segments = untraced.segment_latencies()
    samples = sum(len(x) for x in segments)
    env = environment(args)
    per_segment = [len(x) for x in segments]
    env["samples"] = {"latency_p50_ms": per_segment, "latency_p99_ms": per_segment, "setup_s": SETUP_REPEATS}
    env["host_slowdown"] = untraced.host_slowdown()
    env["unscaled"] = {
        "mol_per_s": untraced.throughput(scaled=False),
        "latency_p50_ms": untraced.latency(50, scaled=False) * 1e3,
        "latency_p99_ms": untraced.latency(99, scaled=False) * 1e3,
        "setup_s": setup_unscaled_s,
    }
    env["measured_s"] = measured_s
    errors = [why for t, _ in phases for why in t.errors]
    record = {"result": result, "environment": env, "checks": check_results, "errors": errors}
    if args.trace:
        record["self_times_ms"] = {k: {"spans": c, "self_ms": s * 1e3} for k, (c, s) in sorted(tracer.self_times().items())}
    (OUT / f"BENCH_{'layers' if args.trace else 'e2e'}_{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for check, passed, detail in check_results:
        print(f"check {check:<26} {'ok  ' if passed else 'FAIL'} {detail}")
    for why in errors:
        print(f"error {why}")
    for metric, entry in result["metrics"].items():
        print(f"{name:<12} {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    beyond = min(int((x > np.percentile(x, 99)).sum()) for x in segments)
    print(f"latency samples {samples} in {len(segments)} segments of {measured_s / len(segments):.1f} s "
          f"(at least {beyond} beyond p99 in each); set-up samples {SETUP_REPEATS}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload untraced and traced, in its own process; prints every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("environment ")))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
            if not lines:
                return done.returncode or 1
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"] and done.returncode == 0
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "molfuse" / "__init__.py").is_file():
        sys.stderr.write(f"molfuse sources not found under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    # The benchmark is one thread.  Cores of a shared machine can differ in
    # speed by 15%, so every run (and its set-up probes) uses the same one.
    os.sched_setaffinity(0, {CORE})
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
