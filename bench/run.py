"""Seeded benchmark for bakermill.

One workload per process, single-threaded, as a closed loop with one
caller: the next operation starts when the previous one returns. The loop
runs whole rounds (see workloads.py), cycling the pool of inputs, until
it has spent ``--seconds`` in operations, then prints its metrics by name
with their units; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The library is imported from
``src/`` next to this directory.

    python3 bench/run.py --workload solve_mixed --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all                 # every workload, summary table
    python3 bench/run.py --workload dynamics --record-fingerprints

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each operation runs twice, once plain and once with a span around every
library call, and the metrics are per layer, plus the tracing overhead.

An operation fails on an exception, a nonzero exit code, a failed check or
a fingerprint mismatch. Fingerprints must repeat within a run, agree between
the plain and traced forms, and, for the default seed, equal the ones stored
in fingerprints.json. Any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FINGERPRINTS = BENCH / "fingerprints.json"
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("solve_mixed", "coverage_greedy", "oracle_corpus", "dynamics")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}
# work_per_s counts a different unit of useful work on each workload
WORK_NAMES = {
    "solve_mixed": "solve_bakers_per_s",
    "coverage_greedy": "cover_items_per_s",
    "oracle_corpus": "oracle_profiles_per_s",
    "dynamics": "dyn_moves_per_s",
}
# per-layer self time, per operation: metric -> span name
LAYER_TIMES = {
    "solver.phase1_s": "solver.phase1",
    "solver.phase2_s": "solver.phase2",
    "solver.phase3_s": "solver.phase3",
    "solver.covered_s": "solver.covered",
    "reductions.reduce_s": "reductions.reduce",
    "serialization.parse_s": "serialization.parse",
    "serialization.serialize_s": "serialization.serialize",
    "serialization.digest_s": "serialization.digest",
    "model.verify_s": "model.verify",
    "model.score_s": "model.score",
    "oracle.scan_s": "oracle.scan",
    "oracle.optimum_s": "oracle.optimum",
    "dynamics.run_s": "dynamics.run",
}
# counters, per operation
LAYER_COUNTS = (
    "solver.calls", "solver.bakers", "reductions.bakers_out", "serialization.bytes",
    "model.verify_failed", "oracle.profiles_examined", "oracle.equilibria",
    "dynamics.moves", "dynamics.cycles", "dynamics.converged",
)
PER_LAYER = {
    **{name: "s/op" for name in LAYER_TIMES},
    "cli.self_s": "s/op",
    **{name: "count/op" for name in LAYER_COUNTS},
    "solver.phase3_moved_ratio": "ratio",
    "oracle.ne_per_profile": "ratio",
    "trace.overhead_s": "s/op",
    "trace.lib_share": "ratio",
}


def import_library():
    """Import bakermill from this checkout's src/, never from elsewhere.

    Returns the import time in seconds; exits nonzero, printing no result,
    when the checkout holds no library source.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import bakermill
        import bakermill.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import bakermill from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(bakermill.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: bakermill resolved to {bakermill.__file__}, not to {src}")
    return elapsed


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples above it.

    Returns (value, percentile). Below eleven samples no percentile has ten
    above it, so the maximum is returned with percentile 100.
    """
    s = sorted(latencies)
    if len(s) <= 10:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def load_expected(workload: str, seed: int):
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED or not FINGERPRINTS.exists():
        return None
    entry = json.loads(FINGERPRINTS.read_text()).get(workload)
    return None if entry is None else entry["items"]


class Loop:
    """The measured closed loop and its failure accounting."""

    def __init__(self, wl, expected):
        self.wl = wl
        self.expected = expected
        self.seen: dict[int, str] = {}
        self.latencies: list[float] = []
        self.busy = 0.0    # seconds spent in ops
        self.work = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, item, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{self.wl.name} item {item.index} ({item.kind}): {message}")

    def verify(self, item, out, traced_fp=None) -> int:
        """Check one output and its fingerprint; return its units of work,
        or count a failure and return 0."""
        try:
            self.wl.check(item, out)
        except Exception as exc:
            self.fail(item, f"check failed: {exc}")
            return 0
        fp = self.wl.fingerprint(item, out)
        first = self.seen.setdefault(item.index, fp)
        if fp != first:
            self.fail(item, f"fingerprint {fp} differs from this run's earlier {first}")
        elif traced_fp is not None and traced_fp != fp:
            self.fail(item, f"traced fingerprint {traced_fp} differs from plain {fp}")
        elif self.expected is not None and fp != self.expected[item.index]:
            self.fail(item, f"fingerprint {fp} differs from the stored {self.expected[item.index]}")
        else:
            return self.wl.work(item, out)
        return 0

    def timed(self, item):
        start = time.perf_counter()
        try:
            out = self.wl.run(item)
        except Exception:
            out = None
            self.fail(item, traceback.format_exc())
        self.latencies.append(time.perf_counter() - start)
        self.busy += self.latencies[-1]
        return out


def set_up(wl, seed):
    """Generate inputs, write instance files, warm up; returns the pool and
    its work directory."""
    work_root = ROOT / ".bench_out"
    work_root.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=work_root)
    pool = wl.build(seed, Path(tmp.name))
    wl.warm_up(Path(tmp.name))
    return pool, tmp


def time_setup(workload: str, seed: int) -> None:
    """Print the seconds one fresh process takes to import the library and
    set up ``workload``: the body of one set-up sample."""
    start = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    set_up(WORKLOADS[workload], seed)[1].cleanup()
    print(time.perf_counter() - start)


def setup_sample(wl, seed) -> float:
    """One set-up in a fresh process, so that it pays the library import
    and the set-up from cold, as the run itself does."""
    child = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
             "run.time_setup(sys.argv[1], int(sys.argv[2]))")
    proc = subprocess.run([sys.executable, "-c", child, wl.name, str(seed)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def rounds(pool, loop, seconds):
    """Item lists of whole rounds, cycling the pool, until the loop has
    spent ``seconds`` in ops."""
    r = 0
    while r == 0 or loop.busy < seconds:
        yield [pool.items[i] for i in pool.rounds[r % len(pool.rounds)]]
        r += 1


def measure(wl, pool, seconds, expected, seed):
    """The timed loop; returns it with the median set-up time.

    On a VM whose cores are shared with other tenants, speed changes by up
    to half in spells of seconds, so set-ups taken back to back all land in
    one spell: their median moved by a quarter from one run to the next. The SETUP_SAMPLES set-ups are spread
    evenly over the run instead, between rounds, where the loop's clock,
    which counts time in ops only, does not see them.
    """
    loop = Loop(wl, expected)
    setup = [setup_sample(wl, seed)]
    for items in rounds(pool, loop, seconds):
        for item in items:
            out = loop.timed(item)
            if out is not None:
                loop.work += loop.verify(item, out)
        while len(setup) < 1 + (SETUP_SAMPLES - 1) * min(1.0, loop.busy / seconds):
            setup.append(setup_sample(wl, seed))
    return loop, statistics.median(setup)


def measure_traced(wl, pool, seconds, expected):
    """Each op runs plain (timed) and then traced; both outputs must agree."""
    rec = Recorder()
    loop = Loop(wl, expected)
    for items in rounds(pool, loop, seconds):
        for item in items:
            out = loop.timed(item)
            with rec.span("op"):
                try:
                    traced, error = wl.run(item, rec), None
                except Exception:
                    traced, error = None, traceback.format_exc()
            if out is None:
                continue
            if error is not None:
                loop.fail(item, f"traced form raised {error}")
                continue
            loop.verify(item, out, traced_fp=wl.fingerprint(item, traced))
    return loop, rec


def span_cost() -> float:
    """Seconds a span adds to the call it wraps, the median of 5 timings of
    20 000 spanned calls against as many plain ones.

    This is the traced form's overhead per span. Traced op time minus plain
    op time would measure it too, but on solve_mixed phase 3 varies by
    milliseconds from one run of an op to the next, a thousand times more
    than an op's dozen spans cost.
    """
    def noop():
        pass

    calls = 20_000
    costs = []
    for _ in range(5):
        rec = Recorder()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        with rec.span("op"):
            for _ in range(calls):
                rec.call("span", noop)
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)


def layer_metrics(wl, loop, rec):
    ops = len(loop.latencies)
    self_times = rec.self_times()
    lib_time = sum(t for name, t in self_times.items() if name != "op")
    traced_time = sum(s.end - s.start for s in rec.spans if s.parent is None)
    c = rec.counters
    values = {m: self_times.get(span, 0.0) / ops for m, span in LAYER_TIMES.items()}
    # The traced form of a CLI op runs cli.main itself with its library calls
    # spanned, so cli.main's own work (argument parsing, file read, checks,
    # formatting and printing) is the root spans' self time.
    values["cli.self_s"] = self_times.get("op", 0.0) / ops if wl.uses_cli else 0.0
    values.update({name: c.get(name, 0) / ops for name in LAYER_COUNTS})
    values["solver.phase3_moved_ratio"] = (
        c.get("solver.phase3_moved", 0) / c["solver.bakers"] if c.get("solver.bakers") else 0.0)
    values["oracle.ne_per_profile"] = (
        c["oracle.equilibria"] / c["oracle.profiles_examined"] if c.get("oracle.profiles_examined") else 0.0)
    values["trace.overhead_s"] = len(rec.spans) / ops * span_cost()
    values["trace.lib_share"] = lib_time / traced_time
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def end_to_end_metrics(wl, loop, setup_s):
    """Metrics over every timed op of the run.

    The loop stops only between whole rounds, so each run has the same mix
    of input shapes. Time in ops excludes the benchmark's own checks.
    """
    busy = loop.busy
    tail, pct = tail_latency(loop.latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(loop.latencies) / busy,
        "op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": loop.work / busy,
    }
    above = len(loop.latencies) - round(pct / 100 * len(loop.latencies))
    print(f"{len(loop.latencies)} ops; op_tail_ms is p{pct:.2f}, {above} ops above it")
    print(f"{WORK_NAMES[wl.name]} (work_per_s) {values['work_per_s']:.6g} 1/s")
    print(f"failed_ratio {loop.failed / len(loop.latencies):.6g}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def record_fingerprints(wl, seed):
    """Run every pool item once, check it, and store its fingerprint."""
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        sys.exit(f"error: fingerprints are stored for the default seed {DEFAULT_SEED} only")
    pool, tmp = set_up(wl, seed)
    loop = Loop(wl, None)
    fps = []
    for item in pool.items:
        out = wl.run(item)
        loop.verify(item, out)
        fps.append(wl.fingerprint(item, out))
    tmp.cleanup()
    if loop.failed:
        print("\n".join(loop.errors), file=sys.stderr)
        sys.exit("error: checks failed, fingerprints not recorded")
    stored = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    stored[wl.name] = {"sha256": hashlib.sha256(" ".join(fps).encode()).hexdigest(), "items": fps}
    FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"{wl.name}: {len(fps)} fingerprints, sha256 {stored[wl.name]['sha256']}")


def run_all(args) -> int:
    """Run each workload in its own process; exit 1 if any of them failed."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        if result is not None:
            rows.append((name, result))
    print("\nworkload          metric                      value  unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<17} {metric:<26} {m['value']:>10.4g}  {m['unit']}")
        print(f"{name:<17} {'failed':<26} {result['failed']:>10}  of {result['attempted']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="store the default seed's fingerprints for this workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_library()
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[args.workload]
    if args.record_fingerprints:
        record_fingerprints(wl, args.seed)
        return 0
    expected = load_expected(wl.name, args.seed)
    try:
        pool, tmp = set_up(wl, args.seed)
        gc.collect()
        if args.trace:
            loop, rec = measure_traced(wl, pool, args.seconds, expected)
        else:
            loop, setup_s = measure(wl, pool, args.seconds, expected, args.seed)
    except CheckFailed as exc:
        sys.exit(f"error: a warm-up op failed its check: {exc}")
    except subprocess.CalledProcessError as exc:
        sys.exit(f"error: a set-up sample failed:\n{exc.stderr}")
    tmp.cleanup()
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace_{wl.name}.jsonl"
        rec.write(trace_file)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        metrics = layer_metrics(wl, loop, rec)
    else:
        metrics = end_to_end_metrics(wl, loop, setup_s)
    for message in loop.errors:
        print(message, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
