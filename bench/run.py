"""igac benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

NAME is one of reproduce, trajectories, spectra (see NOTES.md);
``all`` runs each in its own process, one after the other.  Run it from the
repository root: it imports igac from ./src and exits with code 1 when that
source is missing.  It prints a readable summary, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Full results (environment, every op, failures) go to
.bench_out/, and with ``--trace 1`` the spans too.

One process runs one workload, closed loop, one op at a time, in whole
blocks until ``--seconds`` have passed and at least MIN_BLOCKS blocks are
done; BLAS may use min(2, nproc) threads.  Between ops it runs the
workload's reference kernels (reference.py), whose mean time is the unit of
``op_cost_ref``.
``--trace 1`` makes the same untraced run, then replays its first
TRACE_BLOCKS blocks with every op run twice, untraced and traced, in
alternating order.  The replay is fixed so its counts repeat exactly for a
seed, and the paired runs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("reproduce", "trajectories", "spectra")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25.0      # run_seconds in BENCHMARK.json
MIN_BLOCKS = 3             # so that a group's median passes over one outlier
SETUP_REPEATS = 6          # half before the timed loop, half after it
# Blocks replayed by the traced run, fixed so that its counts repeat.
TRACE_BLOCKS = {"reproduce": 3, "trajectories": 1, "spectra": 1}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def _limit_threads() -> str:
    """Cap BLAS and OpenMP threads; must run before numpy is imported."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return threads


def _import_igac() -> None:
    """Import igac from this checkout's source tree, or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import igac
    except ImportError as exc:
        sys.exit(f"bench: cannot import igac from {SRC}: {exc}")
    if Path(igac.__file__).resolve().parent != SRC / "igac":
        sys.exit(f"bench: imported igac from {igac.__file__}, not from {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


@dataclass
class Record:
    """Outcome of one op: its time, and the failure class if it failed."""

    index: int
    op: object
    seconds: float
    failure: str | None = None
    reason: str = ""

    def as_dict(self) -> dict:
        return {"index": self.index, "kind": self.op.kind, "label": self.op.label,
                "sizes": self.op.sizes, "anchor": self.op.anchor,
                "seconds": self.seconds, "failure": self.failure,
                "reason": self.reason}


def run_op(index: int, op, tracer=None) -> Record:
    """Time ``op.run``, then check its output outside the timed region.

    ``igac.IgacError`` and a refused CLI command are failed ops, counted by
    class; any other exception propagates and ends the benchmark.
    """
    from igac import IgacError
    from workloads import Refused, WrongOutput

    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op_span(index, op.kind):
                out = op.run()
    except IgacError as exc:
        return Record(index, op, time.perf_counter() - start,
                      type(exc).__name__, str(exc))
    except Refused as exc:
        return Record(index, op, time.perf_counter() - start, exc.cls, str(exc))
    seconds = time.perf_counter() - start
    try:
        op.check(out)
    except WrongOutput as exc:
        return Record(index, op, seconds, exc.cls, str(exc))
    return Record(index, op, seconds)


def run_blocks(blocks, seconds: float,
               reference) -> tuple[list[Record], list[list]]:
    """Run whole blocks until ``seconds`` have passed and at least MIN_BLOCKS
    blocks are done, the reference kernels between ops."""
    records, done = [], []
    busy = 0.0
    started = time.perf_counter()
    for block in blocks:
        for op in block:
            records.append(run_op(len(records), op))
            busy += records[-1].seconds
            reference.keep_up(busy)
        done.append(block)
        if (time.perf_counter() - started >= seconds
                and len(done) >= MIN_BLOCKS):
            break
    return records, done


def trace_replay(blocks: list[list]):
    """Run every op untraced and traced, alternating which goes first, so the
    pair sees the same machine state.  Returns both record lists and the
    tracer."""
    from tracing import Tracer

    tracer = Tracer()
    base, traced = [], []
    ops = [op for block in blocks for op in block]
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced.append(run_op(i, op, tracer))
                finally:
                    tracer.uninstall()
            else:
                base.append(run_op(i, op))
    return base, traced, tracer


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh processes that import igac and build the workload."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
    return times


def build_workload(name: str, seed: int, scratch: Path):
    """The workload's models and specs, and its first block of inputs."""
    from workloads import WORKLOADS

    blocks = WORKLOADS[name](seed, scratch).blocks()
    return blocks, next(blocks)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_line(ok: list[float]) -> str:
    """op_tail_ms: the highest listed percentile with at least TAIL_BEYOND
    correct ops beyond it, or why it is omitted."""
    for pct in TAIL_PERCENTILES:
        beyond = int(len(ok) * (1.0 - pct / 100.0))
        if beyond >= TAIL_BEYOND:
            return (f"op_tail_ms {1e3 * percentile(ok, pct):.6g} ms (p{pct:g}, "
                    f"{beyond} of {len(ok)} correct ops beyond it)")
    need = round(TAIL_BEYOND / (1.0 - TAIL_PERCENTILES[-1] / 100.0))
    return f"op_tail_ms omitted: {len(ok)} correct ops, fewer than {need}"


def median_busy_s(records: list[Record]) -> float:
    """Busy time of the run with each op's time replaced by the median time
    of its group, so that a few slow draws or a slow spell of the host do
    not set the result."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.op.group, []).append(r.seconds)
    return sum(len(times) * statistics.median(times) for times in groups.values())


def end_to_end(records: list[Record], setup_times: list[float],
               ref_unit_s: float) -> dict:
    ok = sum(r.failure is None for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_cost_ref": (median_busy_s(records) / max(ok, 1) / ref_unit_s, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(base: list[Record], traced: list[Record], tracer) -> dict:
    untraced_s = sum(r.seconds for r in base)
    traced_s = sum(r.seconds for r in traced)
    metrics = tracer.layer_metrics()
    metrics.update({
        "dynamics.truncated_frac": (
            sum(r.failure == "truncated" for r in traced) / len(traced), "ratio"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def failures(records: list[Record]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in records:
        if r.failure is not None:
            counts[r.failure] = counts.get(r.failure, 0) + 1
    return dict(sorted(counts.items()))


def size_summary(records: list[Record]) -> dict:
    """How many ops ran at each input size (samples, dims, grid points)."""
    out: dict[str, dict] = {}
    for r in records:
        for key, value in r.op.sizes.items():
            if key != "model":
                bucket = out.setdefault(key, {})
                bucket[str(value)] = bucket.get(str(value), 0) + 1
    return out


def environment(args, threads: str) -> dict:
    import numpy
    import scipy

    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    lines = code_lines = 0
    for path in sorted((SRC / "igac").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        rows = [row.strip() for row in text.decode("utf-8").splitlines()]
        lines += len(rows)
        code_lines += sum(1 for row in rows if row and not row.startswith("#"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit,
        "src_sha256": digest.hexdigest(), "src_igac_lines": lines,
        "src_igac_code_lines": code_lines, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
    }


def print_summary(env: dict, records: list[Record], metrics: dict,
                  correct: bool, notes: list[str]) -> None:
    failed = [r for r in records if r.failure is not None]
    print(f"igac benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"commit {env['git_commit'] or 'n/a'}, src sha256 "
          f"{env['src_sha256'][:12]}, {env['src_igac_lines']} src/igac lines "
          f"({env['src_igac_code_lines']} code)")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, {env['blas_threads']} BLAS threads, nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    print(f"  correct {str(correct).lower()}; {len(failed)} of {len(records)} "
          f"ops failed")
    for cls, count in failures(records).items():
        print(f"    {cls}: {count}")
    for r in failed[:5]:
        print(f"    e.g. #{r.index} {r.op.label}: {r.failure}: {r.reason[:160]}")


def run_workload(args, threads: str) -> int:
    from reference import Reference

    setup_times = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    scratch = OUT / f"tmp-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args, threads)
    try:
        blocks, first = build_workload(args.workload, args.seed, scratch)
        run_op(-1, first[0])        # warm-up: lazy imports, BLAS threads
        reference = Reference(args.workload)
        records, done = run_blocks(blocks, args.seconds, reference)
        setup_times += measure_setup(args.workload, args.seed,
                                     SETUP_REPEATS - SETUP_REPEATS // 2)
        ok = [r.seconds for r in records if r.failure is None]
        busy = sum(r.seconds for r in records)
        metrics = end_to_end(records, setup_times, reference.unit_s())
        notes = [f"ops_per_s {len(ok) / busy:.6g} 1/s (correct ops / busy "
                 f"seconds, wall clock)",
                 f"ref_unit_ms {1e3 * reference.unit_s():.6g} ms (mean of "
                 f"{len(reference.times)} reference kernels)",
                 f"op_p50_ms {1e3 * statistics.median(ok or [r.seconds for r in records]):.6g} ms "
                 f"(median of {len(ok)} correct ops)",
                 tail_line(ok),
                 f"fail_frac {(len(records) - len(ok)) / len(records):.6g} "
                 f"(failed / attempted ops)",
                 f"measured {len(records)} ops in {len(done)} blocks, "
                 f"{busy:.3f} s busy",
                 f"input sizes {json.dumps(size_summary(records))}"]
        checked = list(records)
        if args.trace:
            replay = done[:TRACE_BLOCKS[args.workload]]
            replay += [next(blocks) for _ in range(TRACE_BLOCKS[args.workload]
                                                   - len(replay))]
            base, traced, tracer = trace_replay(replay)
            checked += base + traced
            metrics = per_layer(base, traced, tracer)
            tracer.write(OUT / f"spans-{tag}.json")
            notes.append(f"traced replay: {len(traced)} ops run untraced and "
                         f"traced; spans in .bench_out/spans-{tag}.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = all(r.failure is None for r in checked if r.op.anchor)
    print_summary(env, records, metrics, correct, notes)
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "environment": env, "setup_times_s": setup_times,
        "reference_times_s": reference.times, "metrics": as_json,
        "failures": failures(records), "sizes": size_summary(records),
        "ops": [r.as_dict() for r in checked]}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(records) - len(ok), "metrics": as_json}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), in turn."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=600)
        print(proc.stdout.rstrip("\n").rpartition("\n")[0]
              if proc.returncode == 0 else proc.stdout)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads = _limit_threads()
    if args.workload == "all":
        return run_all(args)
    _import_igac()
    if args.setup_only:
        build_workload(args.workload, args.seed, OUT / f"tmp-{os.getpid()}")
        return 0
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
