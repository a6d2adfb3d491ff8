"""The hoot benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``hoot`` is imported from its ``src/``.
One process drives the library in a closed loop: each call returns
before the next is made. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``norm_ops_per_s`` (the
workload's unit of work per second, median over the operations of the
run, scaled to a reference machine speed measured around each operation;
see ``machine_speed``), ``setup_s`` (median over fresh interpreters from
start to ready) and ``peak_rss_mb``. ``--trace 1`` reports the per-layer
metrics of ``layers.py`` from a traced run, and ``trace.overhead_frac``.

Before any timing the README's worked example must reproduce bit-exact;
otherwise the run stops with exit code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9
MAX_TRACED_UNITS = 5  # bounds the spans held in memory
CALIBRATION_SHARE = 0.08  # calibration time after each operation, as a share of it

# seal_to_wire(b"meet at dawn", [garden-party-x7], fast KDF, Random(42)), from the README
KNOWN_ANSWER = (
    "#f7uuy qWCJvKcfPRqOmTcYOwYsNBAXv5l68nJ78hEQ6OgEYf7MXT83qE76G5ICPsQEFrfKB1GT2T"
    "gbjBAWIkGpdzfcmFOLn2rRes0d"
)


def known_answer_holds(hoot) -> bool:
    tag = hoot.PlainTag("garden-party-x7")
    line = hoot.seal_to_wire(b"meet at dawn", [tag], hoot.FAST_KDF, rng=random.Random(42))
    return line == KNOWN_ANSWER and hoot.open_hoot(hoot.parse(line), tag, hoot.FAST_KDF) == b"meet at dawn"


def fingerprint() -> dict:
    import cryptography
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def time_setup(spec: dict) -> float:
    """Seconds a fresh interpreter spends on ``import hoot`` and the set-up."""
    command = [sys.executable, str(ROOT / "perfbench" / "probe.py"), json.dumps(spec)]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
        ready = probe.communicate(timeout=120)[0].split()
    if probe.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return float(ready[1])


def _interpreter_slice() -> None:
    key = bytes(range(16))
    acc = 0
    for i in range(500):
        digest = hashlib.sha1(i.to_bytes(4, "big")).digest()
        enc = Cipher(algorithms.AES(key), modes.CTR(digest[:16])).encryptor()
        text = (enc.update(digest) + enc.finalize()).hex()
        acc ^= int(text[:8], 16) + len(text.split("a"))


def _scrypt_slice() -> None:
    hashlib.scrypt(b"calibration", salt=b"perfbench", n=2**14, r=1, p=1, maxmem=1 << 25)


# Calibration kernels and the seconds one slice takes on the reference
# machine (the median on a 2-vCPU shared VM at 2.0 GHz, Python 3.11).
KERNELS = {"interpreter": (_interpreter_slice, 0.015), "scrypt": (_scrypt_slice, 0.0075)}


def machine_speed(kernel: str, budget: float) -> float:
    """Speed of this machine now, relative to the reference machine.

    Runs slices of a fixed calibration kernel for ``budget`` seconds (at
    least one slice). The kernels are the benchmark's own code and never
    change with ``hoot``, so the figure moves only with the CPU the
    machine's other tenants leave free. Interpreted work and scrypt slow
    down differently, so each workload names the kernel that tracks it.
    """
    work, reference = KERNELS[kernel]
    slices = 0
    began = time.perf_counter()
    while True:
        work()
        slices += 1
        elapsed = time.perf_counter() - began
        if elapsed >= budget:
            return slices * reference / elapsed


def bracketed(call, kernel: str, seconds: float) -> list[tuple]:
    """Call ``call()`` at least once and for at least ``seconds``.

    ``call`` returns (value, elapsed seconds). Each call is returned as
    (value, elapsed, speed), where ``speed`` is the mean machine speed
    measured just before and just after it.
    """
    calls = []
    machine_speed(kernel, 0)  # warms the caches a set-up probe left cold
    before = machine_speed(kernel, 0)
    stop = time.perf_counter() + seconds
    while not calls or time.perf_counter() < stop:
        value, elapsed = call()
        after = machine_speed(kernel, CALIBRATION_SHARE * elapsed)
        calls.append((value, elapsed, (before + after) / 2))
        before = after
    return calls


def timed_run(workload, probe, tally, seconds: float) -> tuple[dict, list[str]]:
    workload.prepare(probe.set_up(workload.probe_spec))
    workload.rep(0, tally)  # warm-up: checked, not timed
    index = itertools.count(1)
    setups, ops = [], []
    # Set-up probes alternate with slices of the run, so that they sample
    # the machine's slow and fast spells as the operations do.
    for _ in range(SETUP_SAMPLES):
        setups.append(time_setup(workload.probe_spec))
        ops += bracketed(lambda: workload.rep(next(index), tally), workload.speed_kernel, seconds / SETUP_SAMPLES)
    setup_s = statistics.median(setups)
    rate = statistics.median(work / elapsed / speed for work, elapsed, speed in ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "norm_ops_per_s": {"value": rate, "unit": "op/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    raw_rate = statistics.median(work / elapsed for work, elapsed, _ in ops)
    notes = [
        f"{workload.alias} = {rate:.1f} {workload.unit}/s at reference speed"
        f" (norm_ops_per_s; median of {len(ops)} operations)",
        f"  raw {raw_rate:.1f} {workload.unit}/s; median machine speed"
        f" {statistics.median(speed for *_, speed in ops):.3f} ({workload.speed_kernel} kernel)",
        f"setup_s = {setup_s:.4f} s (median of {len(setups)} fresh interpreters)",
        f"peak_rss_mb = {peak_mb:.1f} MB",
    ]
    return metrics, notes


def traced_run(workload, probe, tally, seconds: float, hoot, seed: int) -> tuple[dict, list[str]]:
    import layers
    from tracing import Tracer

    tracer = Tracer(run=f"{workload.name}:{seed}:setup")
    layers.install(tracer, hoot)
    try:
        state = probe.set_up(workload.probe_spec)
    finally:
        tracer.unpatch()
    workload.prepare(state)
    workload.rep(0, tally)  # warm-up: checked, not timed

    index = itertools.count(1)

    def unit() -> float:
        return sum(workload.rep(next(index), tally)[1] for _ in range(workload.cycle))

    plain, traced, runs = [], [], []
    stop = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < stop and len(traced) < MAX_TRACED_UNITS):
        plain.append(unit())
        tracer.run = f"{workload.name}:{seed}:unit{len(traced)}"
        runs.append(tracer.run)
        layers.install(tracer, hoot)
        try:
            traced.append(unit())
        finally:
            tracer.unpatch()
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    found = layers.layer_metrics(tracer.spans, f"{workload.name}:{seed}:setup", runs, overhead)
    trace_path = OUT / f"trace-{workload.name}.jsonl.gz"
    tracer.write(trace_path)
    metrics = {name: {"value": value, "unit": layers.PER_LAYER[name]} for name, value in found.items()}
    notes = [f"{name} = {value:.6g} {layers.PER_LAYER[name]}" for name, value in found.items()]
    notes.append(f"({len(traced)} traced and {len(plain)} untraced units; {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)})")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "hoot" / "__init__.py").is_file():
        print(f"error: no hoot sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hoot
    import hoot.analysis
    import hoot.collider
    import hoot.feed

    if Path(hoot.__file__).resolve().parent != SRC / "hoot":
        print(f"error: imported hoot from {hoot.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import probe
    from tracing import Tally
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = fingerprint()
    if not known_answer_holds(hoot):
        print("error: the README worked example no longer reproduces bit-exact; refusing to time", file=sys.stderr)
        return 3

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    workload = WORKLOADS[args.workload](hoot, args.seed, OUT)
    try:
        if args.trace:
            metrics, notes = traced_run(workload, probe, tally, args.seconds, hoot, args.seed)
        else:
            metrics, notes = timed_run(workload, probe, tally, args.seconds)
    finally:
        getattr(workload, "close", lambda: None)()

    print(f"hoot benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("gate: README worked example reproduces bit-exact")
    for line in notes:
        print(line)
    print(f"failed_share = {tally.failed_share:g} ({tally.failed} of {tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
