"""Benchmark harness: set-up, timed operations, output checks, metrics, result line.

One run measures one workload in one process. The workload's operations run
round-robin: one full pass, then more operations while ``--seconds`` allows.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs one untraced pass, then whole traced passes, and
reports the per-layer metrics of BENCHMARK.json per traced pass. Every
operation's output is checked; a failed check is counted, never fatal. The
last line of standard output is the JSON result; a record with the
environment, every sample and the output digests goes to ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from speed import InterimSamples, reference_time, scaled

PACKAGE = "ce_dynamics"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_SAMPLES = 9
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}
# Per-layer statistics, and whether they are summed over spans (then divided
# by the number of traced passes) or describe single calls.
LAYER_STATS = {
    "calls": ("count", True),
    "busy_s": ("s", True),
    "self_s": ("s", True),
    "fail": ("count", True),
    "bytes": ("B", True),
    "p50_us": ("us", False),
    "max_ms": ("ms", False),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny horizons, one pass, one set-up sample (harness self-test)")
    return p.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ce_dynamics

    if Path(ce_dynamics.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} imported from {ce_dynamics.__file__}, not from {src}")
    return ce_dynamics


def _spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _setup_samples(workload, seed, count):
    probe = HERE / "setup_probe.py"
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(probe), str(ROOT / "src"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        raw, scaled_s = proc.stdout.split()
        samples.append((float(raw), float(scaled_s)))
    return samples


def _environment(seed):
    import numpy as np

    git_sha = "n/a"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Sample(NamedTuple):
    op: int  # index into the workload's operations
    seconds: float  # as measured
    scaled_s: float  # at reference speed, see speed.py
    outcome: object


def _run_op(i, op, cd, before):
    """Execute one operation (timed), time the reference kernel, check the output.

    Returns the sample and the kernel time, which also serves as the next
    operation's ``before``.
    """
    interim = InterimSamples()
    t0 = perf_counter()
    try:
        with interim:
            result = op.execute()
        crash = None
    except Exception:  # a crash in one operation is counted, the workload goes on
        crash = _crash(op, cd)
    elapsed = perf_counter() - t0 - interim.spent
    after = reference_time()
    outcome = crash or op.check(result)
    return Sample(i, elapsed, scaled(elapsed, [before, after, *interim.times]), outcome), after


def _crash(op, cd):
    from workloads import Outcome

    exc = sys.exc_info()[1]
    typed = isinstance(exc, (cd.ValidationError, cd.StationaryResidualError))
    detail = f"{op.label}: {traceback.format_exc(limit=-3)}"
    return Outcome(op.attempts, op.attempts if typed else 0, 0 if typed else op.attempts,
                   0, f"raised {type(exc).__name__}", [detail])


def _measure(ops, cd, seconds, whole_passes, smoke, repeats=True):
    """One full pass, then (with ``repeats``) more operations while they fit in ``seconds``.

    Repeats go longest first (by first-pass time), so the operations that
    carry most of a pass get the most samples. An operation is repeated only
    if its first-pass time still fits; with ``whole_passes``, only whole
    passes are repeated.
    """
    t0 = perf_counter()
    reference = reference_time()
    samples = []
    for i, op in enumerate(ops):
        sample, reference = _run_op(i, op, cd, reference)
        samples.append(sample)
    if smoke or not repeats:
        return samples
    first = [sample.seconds for sample in samples]
    order = sorted(range(len(ops)), key=lambda i: -first[i])
    for k in itertools.count():
        i = order[k % len(ops)]
        need = (sum(first) if k % len(ops) == 0 else 0.0) if whole_passes else first[i]
        if perf_counter() - t0 + need > seconds:
            break
        sample, reference = _run_op(i, ops[i], cd, reference)
        samples.append(sample)
    return samples


def _tally(ops, samples):
    """Counts over every sample, with a determinism check across repeats."""
    attempted = failed = bad = 0
    problems = []
    first = {}
    for s in samples:
        attempted += s.outcome.attempts
        failed += s.outcome.raised + s.outcome.bad
        bad += s.outcome.bad
        problems.extend(s.outcome.problems)
        if first.setdefault(s.op, s.outcome.digest) != s.outcome.digest:
            failed += 1
            bad += 1
            problems.append(f"{ops[s.op].label}: output digest differs between repeats")
    return attempted, failed, bad, problems


def _kind_medians(ops, samples, field="scaled_s"):
    """Median time of each kind of operation (same work on other inputs)."""
    by_kind = {}
    for s in samples:
        by_kind.setdefault(ops[s.op].kind, []).append(getattr(s, field))
    return {kind: statistics.median(times) for kind, times in by_kind.items()}


def _wall(ops, samples, field="scaled_s"):
    """Time of one pass: the sum over its operations of their kind's median."""
    med = _kind_medians(ops, samples, field)
    return sum(med[op.kind] for op in ops)


def _fail_ratio(samples):
    """Mean over operations of the failed share of their attempts; an operation
    weighs the same however many times it was sampled."""
    shares = {}
    for s in samples:
        shares.setdefault(s.op, []).append((s.outcome.raised + s.outcome.bad) / s.outcome.attempts)
    return statistics.fmean(statistics.fmean(v) for v in shares.values())


def _end_to_end(ops, samples, setup):
    med = _kind_medians(ops, samples)
    rounds = {s.op: s.outcome.rounds for s in samples}
    runs = [i for i, op in enumerate(ops) if op.counts_rounds]
    return {
        "setup_s": statistics.median(scaled_s for _, scaled_s in setup),
        "wall_s": _wall(ops, samples),
        "rounds_per_s": sum(rounds[i] for i in runs) / sum(med[ops[i].kind] for i in runs),
        "success_ratio": 1.0 - _fail_ratio(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(recorder, ops, traced, untraced):
    n = len(traced) // len(ops)
    values = {}
    for span, stats in recorder.stats().items():
        for stat, value in stats.items():
            values[f"{span}.{stat}"] = value / n if LAYER_STATS[stat][1] else value
    for key, total in recorder.counters.items():
        values[key] = total / n
    values["tracing.overhead_s"] = _wall(ops, traced) - _wall(ops, untraced)
    values["tracing.spans"] = len(recorder.start) / n
    return values


def _unit(name):
    return UNITS.get(name) or LAYER_STATS[name.rsplit(".", 1)[1]][0]


def _select(listed, values):
    """The metrics BENCHMARK.json lists, in its order, with units checked."""
    out = {}
    for metric in listed:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} listed in BENCHMARK.json is not measured")
        if _unit(name) != metric["unit"]:
            raise BenchError(f"metric {name}: BENCHMARK.json unit {metric['unit']!r}, "
                             f"measured in {_unit(name)!r}")
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def _print_samples(ops, samples):
    raw = _kind_medians(ops, samples, "seconds")
    med = _kind_medians(ops, samples)
    counts = Counter(ops[s.op].kind for s in samples)
    print(f"{len(ops)} operations per pass, {len(samples)} timed; "
          f"speed vs reference {statistics.median(s.scaled_s / s.seconds for s in samples):.3f}")
    print(f"{'operation kind':<30} {'n':>4} {'median_s':>10} {'scaled_s':>10}")
    for kind, n in counts.items():
        print(f"{kind:<30} {n:>4} {raw[kind]:>10.4f} {med[kind]:>10.4f}")
    print(f"wall_s unscaled {_wall(ops, samples, 'seconds')!r} s")


def _print_layer_table(values):
    spans = sorted({k.rsplit(".", 1)[0] for k in values if k.endswith(".self_s")},
                   key=lambda s: -values[f"{s}.self_s"])
    print(f"{'span (per traced pass)':<50} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for s in spans:
        if values[f"{s}.calls"]:
            print(f"{s:<50} {values[f'{s}.calls']:>9.0f} {values[f'{s}.busy_s']:>10.4f} "
                  f"{values[f'{s}.self_s']:>10.4f}")
    print(f"tracing overhead per pass: {values['tracing.overhead_s']:.4f} s "
          f"({values['tracing.spans']:.0f} spans)")


def run(argv=None) -> int:
    args = _parse(argv)
    spec = _spec()
    cd = _import_package()
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    env = _environment(args.seed)

    setup = []
    if not args.trace:
        setup = _setup_samples(workload.name, args.seed, 1 if args.smoke else SETUP_SAMPLES)
    games = workload.setup(args.seed)
    game_dir = out / "games"
    game_dir.mkdir(parents=True, exist_ok=True)
    game_files = {}
    for label, game in games.items():
        game_files[label] = game_dir / f"{label}.json"
        game_files[label].write_bytes(cd.save_game(game))
    ops = workload.operations(args.seed, games, game_files, out / "runs", args.smoke)

    t0 = perf_counter()
    if args.trace:
        untraced = _measure(ops, cd, 0.0, whole_passes=True, smoke=True)
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = _measure(ops, cd, args.seconds - (perf_counter() - t0),
                              whole_passes=True, smoke=args.smoke, repeats=workload.repeats)
        finally:
            recorder.uninstall()
        samples = untraced + traced
        recorder.save(out / "spans.npz")
        values = _per_layer(recorder, ops, traced, untraced)
        _print_layer_table(values)
        listed = spec["per_layer"]
    else:
        samples = _measure(ops, cd, args.seconds, whole_passes=False, smoke=args.smoke,
                           repeats=workload.repeats)
        values = _end_to_end(ops, samples, setup)
        listed = spec["end_to_end"]

    attempted, failed, bad, problems = _tally(ops, samples)
    fail_ratio = _fail_ratio(samples)
    digests = {op.label: s.outcome.digest for s, op in zip(samples, ops)}
    run_digest = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    metrics = _select(listed, values)
    result = {"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "setup_samples_s": setup,
        "op_samples": [[ops[s.op].label, ops[s.op].kind, s.seconds, s.scaled_s] for s in samples],
        "wall_s_unscaled": _wall(ops, samples, "seconds"),
        "fail_ratio": fail_ratio, "values": values, "problems": problems,
        "output_digest": run_digest, "digests": digests, "result": result,
    }
    (out / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in env.items():
        print(f"env {key}: {value}")
    for p in problems[:20]:
        print(f"problem {p}")
    _print_samples(ops, samples)
    print(f"output digest (sha256 over run.csv + summary.json per run): {run_digest}")
    print(f"fail_ratio {fail_ratio!r} ratio ({failed} of {attempted} attempts failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
