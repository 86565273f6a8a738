"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
from bakermill import Move, StrategyProfile, serialize_instance  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    CheckFailed,
    Item,
    random_coverage_problem,
    random_dynamics_instance,
    lowest_index_start,
)


def pool_text(pool):
    """Everything a pool hands the library, as comparable text."""
    out = []
    for item in pool.items:
        for key, value in sorted(item.data.items()):
            if key == "path":
                continue
            if key == "winstance":
                value = (serialize_instance(value), value.baker_weights, value.miller_weights)
            elif hasattr(value, "locations"):
                value = serialize_instance(value)
            out.append(f"{item.index} {item.kind} {key} {value}")
    return out, pool.rounds


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    wl = WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = pool_text(wl.build(7, tmp_path / "a"))
    assert first == pool_text(wl.build(7, tmp_path / "b"))
    if name != "dynamics" or len(first[0]) > 1:
        assert first != pool_text(wl.build(8, tmp_path / "c"))


def small_items(name, tmp_path):
    """A few cheap items per workload, taken from the default-seed pool."""
    wl = WORKLOADS[name]
    if name == "coverage_greedy":
        problem = random_coverage_problem(random.Random(1), 200, 15)
        return [Item(-1, "small", {"problem": problem})]
    if name == "dynamics":
        pool = wl.build(DEFAULT_SEED, tmp_path)
        w = random_dynamics_instance(random.Random(3), weighted=True)
        small = dataclasses.replace(w.instance, bakers=w.instance.bakers[:40])
        w = dataclasses.replace(w, instance=small, baker_weights=w.baker_weights[:40])
        return [pool.items[0], Item(-1, "best-weighted",
                                    {"winstance": w, "start": lowest_index_start(w), "policy": "best"})]
    pool = wl.build(DEFAULT_SEED, tmp_path)
    if name == "solve_mixed":
        return [item for item in pool.items if item.data["instance"].num_bakers == 100][:2]
    return [item for item in pool.items if item.kind in ("tiny", "poa", "pos")][:20]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fingerprints_repeat_and_traced_form_agrees(name, tmp_path):
    wl = WORKLOADS[name]
    rec = spans.Recorder()
    for item in small_items(name, tmp_path):
        out = wl.run(item)
        wl.check(item, out)
        fp = wl.fingerprint(item, out)
        assert fp == wl.fingerprint(item, wl.run(item))
        with rec.span("op"):
            traced = wl.run(item, rec)
        assert fp == wl.fingerprint(item, traced)
    library = {s.name for s in rec.spans} - {"op"}
    assert library and library <= set(run.LAYER_TIMES.values())


def test_traced_cli_op_runs_cli_main_with_spanned_library_calls(tmp_path):
    import bakermill.cli

    saved = bakermill.cli.parse_instance, bakermill.cli.compute_equilibrium
    calls = []
    wl = WORKLOADS["solve_mixed"]
    item = small_items("solve_mixed", tmp_path)[0]
    rec = spans.Recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bakermill.cli, "main",
                   lambda argv, real=bakermill.cli.main: calls.append(argv) or real(argv))
        with rec.span("op"):
            wl.run(item, rec)
    assert len(calls) == 1
    assert (bakermill.cli.parse_instance, bakermill.cli.compute_equilibrium) == saved
    assert [s.name for s in rec.spans] == [
        "op", "serialization.parse", "solver.phase1", "solver.phase2", "solver.phase3",
        "model.score", "model.score", "model.score", "model.verify"]


def test_stored_fingerprints_cover_the_default_pool(tmp_path):
    stored = json.loads(run.FINGERPRINTS.read_text())
    assert set(stored) == set(WORKLOADS)
    for name, wl in WORKLOADS.items():
        (tmp_path / name).mkdir()
        pool = wl.build(DEFAULT_SEED, tmp_path / name)
        assert len(stored[name]["items"]) == len(pool.items)
    for name in ("solve_mixed", "oracle_corpus", "dynamics"):
        for item in small_items(name, tmp_path / name):
            if item.index >= 0:
                out = WORKLOADS[name].run(item)
                assert WORKLOADS[name].fingerprint(item, out) == stored[name]["items"][item.index]


# ---- every check rejects a corrupted output


def test_solve_check_rejects_a_moved_baker_and_a_wrong_verdict(tmp_path):
    wl = WORKLOADS["solve_mixed"]
    item = small_items("solve_mixed", tmp_path)[0]
    code, text = wl.run(item)
    wl.check(item, (code, text))
    instance = item.data["instance"]
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("bakers: "))
    bakers, millers = lines[i][len("bakers: "):].rstrip("\n").split(" | millers: ")
    names = bakers.split()
    moved = 0
    # move one baker to another location in her range, off the equilibrium
    for b, rng in enumerate(instance.bakers):
        for t in rng:
            trial = list(names)
            trial[b] = instance.locations[t]
            corrupt = lines[:i] + [f"bakers: {' '.join(trial)} | millers: {millers}\n"] + lines[i + 1:]
            try:
                wl.check(item, (code, "".join(corrupt)))
            except CheckFailed:
                moved += 1
        if moved:
            break
    assert moved
    with pytest.raises(CheckFailed):
        wl.check(item, (code, text.replace("nash equilibrium: yes", "nash equilibrium: no")))
    with pytest.raises(CheckFailed):
        wl.check(item, (1, text))


def test_coverage_check_rejects_a_wrong_order_or_count():
    wl = WORKLOADS["coverage_greedy"]
    item = Item(-1, "small", {"problem": random_coverage_problem(random.Random(2), 200, 15)})
    text, order, covered = wl.run(item)
    wl.check(item, (text, order, covered))
    with pytest.raises(CheckFailed):
        wl.check(item, (text, order[::-1], covered))
    with pytest.raises(CheckFailed):
        wl.check(item, (text, order, covered + 1))
    with pytest.raises(CheckFailed):
        wl.check(item, (text, order[:-1], covered))


def test_oracle_check_rejects_a_dropped_equilibrium_and_wrong_ratios(tmp_path):
    wl = WORKLOADS["oracle_corpus"]
    items = small_items("oracle_corpus", tmp_path)
    for item in items:
        out = wl.run(item)
        wl.check(item, out)
        solved = out["solve"].profile
        canonical = StrategyProfile(solved.baker_locations, tuple(sorted(solved.miller_locations)))
        dropped = dict(out, equilibria=tuple(p for p in out["equilibria"] if p != canonical))
        with pytest.raises(CheckFailed):
            wl.check(item, dropped)
        if item.kind in ("poa", "pos"):
            with pytest.raises(CheckFailed):
                wl.check(item, dict(out, **{item.kind: out[item.kind] + Fraction(1, 7)}))
    assert {"poa", "pos"} <= {item.kind for item in items}


def test_dynamics_check_rejects_a_broken_cycle_or_a_false_convergence(tmp_path):
    wl = WORKLOADS["dynamics"]
    fig7, small = small_items("dynamics", tmp_path)
    trace = wl.run(fig7)
    wl.check(fig7, trace)
    with pytest.raises(CheckFailed):
        wl.check(fig7, dataclasses.replace(trace, revisit_index=1))
    with pytest.raises(CheckFailed):
        wl.check(fig7, dataclasses.replace(trace, status="stuck"))
    m = trace.moves[0]
    flat = Move(m.kind, m.agent, m.origin, m.target, m.utility_after, m.utility_after)
    with pytest.raises(CheckFailed):
        wl.check(fig7, dataclasses.replace(trace, moves=(flat,) + trace.moves[1:]))

    trace = wl.run(small)
    wl.check(small, trace)
    assert trace.status == "converged-to-NE"
    with pytest.raises(CheckFailed):
        # claiming convergence at the start state, which has improving moves
        wl.check(small, dataclasses.replace(trace, states=(small.data["start"],)))


# ---- harness pieces


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    rec = spans.Recorder()
    with rec.span("op"):            # 0 .. 10
        with rec.span("a"):         # 1 .. 3
            pass
        with rec.span("a"):         # 4 .. 4.5
            pass
    assert rec.self_times() == {"op": 7.5, "a": 2.5}
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert {s.op for s in rec.spans} == {0}


def test_span_cost_is_positive_and_small():
    assert 0 < run.span_cost() < 1e-3


def test_tail_latency_has_ten_samples_above_it():
    assert run.tail_latency(list(range(1, 21))) == (10, 50.0)
    assert run.tail_latency([3, 1, 2]) == (3, 100.0)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dynamics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
