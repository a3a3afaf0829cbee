"""Benchmark of the qorbits verifier: certification workloads, end-to-end
metrics untraced, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload sampled-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run, including the measured times behind the end-to-end
metrics, which are reported at a nominal host speed (see REFERENCE_S), and
the full record is written under ``.perfbench/``.  README.md next to this
file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up is short and noisy, so it is measured this many times per run.
SETUP_PROBES = 5

# On a shared host the same work can run 1.6 times slower for minutes at a
# time, which no affordable run length averages out.  So a fixed kernel that
# belongs to the benchmark, not the library, is timed before and after every
# op and set-up probe, and each measured time is reported at the nominal host
# speed at which one pass of the kernel takes REFERENCE_S seconds:
#     reported = measured * REFERENCE_S / kernel time around it,
# where the kernel time around it is the median of the two timings on each
# side, so that one disturbed timing does not rescale a whole op.
# The kernel is a sparse exact product shaped like the library's own, on a
# matrix large enough to leave the caches, because a cache-resident kernel
# tracks the host's speed less closely.  Measured times are printed too.
REFERENCE_S = 0.1
REFERENCE_N = 512


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg": list(os.getloadavg()),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> tuple:
    """Seconds from spawn to exit of each set-up probe, and the kernel
    time around each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        refs.append(reference_seconds())
    return times, kernel_around(refs)


def kernel_around(refs) -> list:
    """Kernel time around each of the items timed between refs[i] and
    refs[i + 1]: the median of the two timings on each side."""
    return [statistics.median(refs[max(0, i - 1):i + 3])
            for i in range(len(refs) - 1)]


def reference_seconds() -> float:
    """Time one pass of the host-speed kernel: build a REFERENCE_N-square
    Fraction matrix with two nonzeros per row and square it, skipping zeros
    the way ``Mat`` products do."""
    n = REFERENCE_N
    zero = Fraction(0)
    t0 = time.perf_counter()
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i * 37) % n] = Fraction(i % 7 + 1, i % 5 + 2)
        rows[i][(i * 101 + 3) % n] = Fraction(-(i % 3) - 1, 3)
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    for row in rows:
        acc = [zero] * n
        for k, a in enumerate(row):
            if a:
                for j, b in nonzero[k]:
                    acc[j] = acc[j] + a * b
    return time.perf_counter() - t0


def run_batch(workloads, ops, samples, failures, tracer=None) -> None:
    """Certify each op once, appending its latency to ``samples``."""
    for j, op in enumerate(ops):
        workloads.prepare()
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        why = workloads.run(op)
        samples[j].append(time.perf_counter() - t0)
        if why is not None:
            failures.append({"op": op.label, "why": why})
            print(f"FAIL {op.label}: {why}")


def measure(workloads, ops, seconds, failures) -> tuple:
    """Closed loop: certify the batch, then repeat its ops until ``seconds``.

    The first pass always completes, so every op has at least one sample.
    After it, an op is started only if its fastest latency so far still fits
    in the time left, so a run ends close to ``seconds`` however long the
    batch's slowest op is.  Returns, per op, the measured latencies and the
    kernel time around each.
    """
    samples = [[] for _ in ops]
    refs = [reference_seconds()]
    order = []

    def certify(j):
        run_batch(workloads, [ops[j]], [samples[j]], failures)
        refs.append(reference_seconds())
        order.append(j)

    start = time.perf_counter()
    for j in range(len(ops)):
        certify(j)
    started = True
    while started:
        started = False
        for j in range(len(ops)):
            if time.perf_counter() - start + min(samples[j]) <= seconds:
                certify(j)
                started = True
    kernel = [[] for _ in ops]
    for j, k in zip(order, kernel_around(refs)):
        kernel[j].append(k)
    return samples, kernel


def at_nominal_speed(times, kernel) -> list:
    return [t * REFERENCE_S / k for t, k in zip(times, kernel)]


def end_to_end(samples, kernel, setup, setup_kernel) -> tuple:
    n = sum(len(s) for s in samples)
    per_op = [statistics.median(at_nominal_speed(s, k))
              for s, k in zip(samples, kernel)]
    measured_op = [statistics.median(s) for s in samples]
    measured = {"wall_s": sum(measured_op),
                "op_p50_ms": statistics.median(measured_op) * 1000.0,
                "setup_s": statistics.median(setup)}
    all_kernel = [k for ks in kernel for k in ks]
    print(f"info host speed: kernel median {statistics.median(all_kernel) * 1000:.3f} ms "
          f"(nominal {REFERENCE_S * 1000:g} ms); measured "
          + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    nominal = "at nominal host speed"
    notes = {
        "wall_s": f"sum of {len(samples)} per-op medians, {n} op samples, {nominal}",
        "op_p50_ms": f"median of {len(samples)} per-op medians, {n} op samples, {nominal}",
        "peak_rss_mib": "ru_maxrss of this process",
        "setup_s": f"median of {len(setup)} set-up probes, {nominal}",
    }
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000.0, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB"),
        "setup_s": (statistics.median(at_nominal_speed(setup, setup_kernel)), "s"),
    }
    return metrics, notes, measured


def per_layer(tracer, traced_wall, untraced_wall) -> dict:
    totals = tracer.layer_totals()
    calls = lambda name: tracer.span(name)[0]
    self_s = lambda name: tracer.span(name)[2]
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "tensor.calls": (totals["tensor"][0], "count"),
        "tensor.self_s": (totals["tensor"][1], "s"),
        "tensor.rank.calls": (calls("tensor.rank"), "count"),
        "tensor.rank.self_s": (self_s("tensor.rank"), "s"),
        "tensor.matmul.calls": (calls("tensor.matmul"), "count"),
        "tensor.matmul.self_s": (self_s("tensor.matmul"), "s"),
        "tensor.matmul.out_fill": (ratio(tracer.product_nonzeros,
                                         tracer.product_entries), "ratio"),
        "tensor.kron.self_s": (self_s("tensor.kron"), "s"),
        "tensor.embed.self_s": (self_s("tensor.embed"), "s"),
        "tensor.max_dim": (tracer.max_dim, "rows"),
        "scalars.qscalar_ops": (tracer.scalar_ops, "count"),
        "scalars.laurent_share": (ratio(tracer.laurent_nonzeros,
                                        tracer.symbolic_nonzeros), "ratio"),
        "scalars.max_den_deg": (tracer.max_den_deg, "degree"),
        "projectors.calls": (totals["projectors"][0], "count"),
        "projectors.self_s": (totals["projectors"][1], "s"),
        "projectors.repeat_share": (ratio(tracer.repeats, tracer.requests),
                                    "ratio"),
        "projectors.max_legs": (tracer.max_legs, "legs"),
        "hecke.build.calls": (calls("hecke.build"), "count"),
    }
    for layer in ("hecke", "reps", "casimir", "identities", "orbits", "euler",
                  "cli"):
        m[f"{layer}.calls"] = (totals[layer][0], "count")
        m[f"{layer}.self_s"] = (totals[layer][1], "s")
    m["orbits.scan.self_s"] = (self_s("orbits.scan"), "s")
    m["identities.ch_verify.self_s"] = (self_s("identities.ch_verify"), "s")
    m["cli.checks"] = (calls("cli.checks"), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qorbits" / "__init__.py").is_file():
        print(f"error: no qorbits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    env = environment()
    OUT.mkdir(exist_ok=True)
    setup, setup_kernel = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    batch = workloads.build(args.workload, args.seed, str(OUT))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "q_values": batch.q_values, "cli_seeds": batch.cli_seeds,
              "ops": [op.label for op in batch.ops]}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env {json.dumps(env)}")
    if batch.q_values:
        print(f"q {' '.join(batch.q_values)}")
    if batch.cli_seeds:
        print(f"cli seeds {batch.cli_seeds}")
    print(f"batch ({len(batch.ops)} ops, closed loop, one caller): "
          + "; ".join(record["ops"]))

    failures = []
    if args.trace:
        from tracer import Tracer
        untraced = [[] for _ in batch.ops]
        run_batch(workloads, batch.ops, untraced, failures)
        tracer = Tracer()
        traced = [[] for _ in batch.ops]
        tracer.install()
        try:
            run_batch(workloads, batch.ops, traced, failures, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, sum(t[0] for t in traced),
                            sum(t[0] for t in untraced))
        totals = tracer.layer_totals()
        for layer in workloads.EXERCISED[args.workload]:
            if totals[layer][0] == 0:
                failures.append({"op": "trace", "why": f"layer {layer} recorded no calls"})
                print(f"FAIL trace: layer {layer} recorded no calls")
        notes = {name: f"one traced pass over {len(batch.ops)} ops"
                 for name in metrics}
        record["trace_record"] = tracer.record()
        attempted = 2 * len(batch.ops)
    else:
        samples, kernel = measure(workloads, batch.ops, args.seconds, failures)
        metrics, notes, record["measured"] = end_to_end(samples, kernel, setup,
                                                        setup_kernel)
        record["setup_s"] = setup
        record["setup_kernel_s"] = setup_kernel
        record["op_kernel_s"] = {op.label: k for op, k in zip(batch.ops, kernel)}
        record["op_seconds"] = {op.label: s for op, s in zip(batch.ops, samples)}
        attempted = sum(len(s) for s in samples)

    print(f"info fail_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({notes[name]})")
    record["failures"] = failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    kind = "trace" if args.trace else "run"
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {path.relative_to(ROOT)}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
