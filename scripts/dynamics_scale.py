"""One-shot dynamics scale run: seconds and memory per run at sizes the bench skips.

    python3 scripts/dynamics_scale.py [--src DIR] [--label NAME] [--out FILE]

Times ``run_dynamics`` once per case, under "first" and "best", on seeded
instances of 400 bakers x 30 locations x 60 millers and 2000 x 100 x 300,
each with unit weights and with random weights 1-5. Ranges hold 1-5
random locations, and every run starts with each baker at her lowest
location and every miller at location 0. Every case runs with a step
budget of 120, and the 2000 x 100 x 300 cases run once more with a budget
of 20,000, which each of them reaches convergence within, so that their
``peak_rss_mb`` shows what a whole run keeps. Each case runs in a fresh
interpreter of its own, so its ``peak_rss_mb`` is that case's peak alone.
The results go under ``--label`` into ``--out`` (default
BENCH_dynamics_scale.json at the repo root), next to any other labels
already there, so running it once against an older checkout's ``src`` and
once against this one records both sides.

Every trace must hash to the SHA-256 recorded below, so a run on any
checkout also shows that the moves, their utilities, the status and the
revisit index are unchanged. There is no timing gate. The test suite
checks the four 400 x 30 x 60 cases against these hashes, through
``build``, ``trace_hash`` and ``EXPECTED``.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import sys

from scale_common import parse_args, record, sha256_hex, timed

WEIGHTS = ("unit", "random")
POLICIES = ("first", "best")
STEP_BUDGET = 120
CONVERGENCE_BUDGET = 20_000
# (bakers, locations, millers, step budget)
CASES = ((400, 30, 60, STEP_BUDGET), (2000, 100, 300, STEP_BUDGET),
         (2000, 100, 300, CONVERGENCE_BUDGET))

# SHA-256 of the status, the revisit index and one line per move (kind,
# agent, origin, target, utility before and after), recorded from the step
# loop that rebuilt sums and signatures on every step; the runs to
# convergence, keyed with their budget, from the loop that kept a profile
# per step.
EXPECTED = {
    "400x30x60:unit:first":
        "b8791efe14326e387557ddf1901ddc4473a88d533fab5a4a9c790cd6c2bc5bd4",
    "400x30x60:unit:best":
        "14b3a16174c600af00f693464c5b4fcbfef5dd21bb8e9f27833f7a928363ff27",
    "400x30x60:random:first":
        "07b60b0aa7cc34b0b51eebb6aabf84b52434e7158f2a3a87b7778d58003bd690",
    "400x30x60:random:best":
        "c1fdfde47713f81f76ce949ecd7dd68700f064d3c4a2c6ec9cae9ecf6f64ca0e",
    "2000x100x300:unit:first":
        "776c2704d925ec7a947d597125bd5292643c9e361a20f70fe31e6f51550c1210",
    "2000x100x300:unit:best":
        "e2707eeb25caa73297d5c8b42175ffd6f203550a017b7c325929883ce8aee80f",
    "2000x100x300:random:first":
        "267eea1835a80d90af9569ef75b5c8c521d8b2269a2cf272513c38a1fa07fd8f",
    "2000x100x300:random:best":
        "f3fab3eacc1fb7231fdf95f5e168cadb9648e5b8b647e9749c5c39e74749a958",
    "2000x100x300:unit:first:budget20000":
        "91e02d6843a726bdc0a1bcd71135f0e827faeef426f2bcfe5038f7fcf0d04774",
    "2000x100x300:unit:best:budget20000":
        "07c824e133a42ea44b2816ae8a53d3f136054f32fb4190270eb62e1844f8825d",
    "2000x100x300:random:first:budget20000":
        "ea44e4941668c8d15d91a130719097aaef1b769f7e5d9e528b9a44cd35946ddf",
    "2000x100x300:random:best:budget20000":
        "325c02bff813197b2732df0d99480d9f19a0dd71563d6b5a9e868d0431f8d1a6",
}


def build(n: int, q: int, m: int, weights: str):
    from bakermill import Instance, StrategyProfile, WeightedInstance

    rng = random.Random(f"dynamics_scale:{n}:{q}:{m}:{weights}")
    bakers = tuple(tuple(rng.sample(range(q), rng.randint(1, 5))) for _ in range(n))
    instance = Instance(tuple(f"L{i}" for i in range(q)), m, bakers)
    if weights == "unit":
        winstance = WeightedInstance.uniform(instance)
    else:
        winstance = WeightedInstance(instance, tuple(rng.randint(1, 5) for _ in range(n)),
                                     tuple(rng.randint(1, 5) for _ in range(m)))
    start = StrategyProfile(tuple(r[0] for r in instance.bakers), (0,) * m)
    return winstance, start


def trace_hash(trace) -> str:
    lines = [f"{trace.status} {trace.revisit_index}"] + [
        f"{move.kind} {move.agent} {move.origin} {move.target} "
        f"{move.utility_before} {move.utility_after}"
        for move in trace.moves
    ]
    return sha256_hex("\n".join(lines))


def run_case(n: int, q: int, m: int, weights: str, policy: str, budget: int) -> dict:
    from bakermill import run_dynamics

    winstance, start = build(n, q, m, weights)
    trace, run_s = timed(run_dynamics, winstance, start, policy, budget)
    return {
        "bakers": n,
        "locations": q,
        "millers": m,
        "weights": weights,
        "policy": policy,
        "step_budget": budget,
        "run_s": run_s,
        "moves": len(trace.moves),
        "status": trace.status,
        "trace_sha256": trace_hash(trace),
        # run_case has this process to itself (see main)
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    args = parse_args(__doc__, "BENCH_dynamics_scale.json", argv)
    results, failures = [], []
    spawn = multiprocessing.get_context("spawn")
    for n, q, m, budget in CASES:
        for weights in WEIGHTS:
            for policy in POLICIES:
                with spawn.Pool(1) as pool:
                    row = pool.apply(run_case, (n, q, m, weights, policy, budget))
                key = f"{n}x{q}x{m}:{weights}:{policy}"
                if budget != STEP_BUDGET:
                    key += f":budget{budget}"
                row["hash_matches"] = row["trace_sha256"] == EXPECTED.get(key)
                if not row["hash_matches"]:
                    failures.append(key)
                results.append(row)
                print(f"{key:>38}  {row['run_s']:8.4f} s  {row['moves']:5d} moves"
                      f"  {row['peak_rss_mb']:6.1f} MB  {row['status']:<22}"
                      f" {row['trace_sha256'][:12]}"
                      f"  {'ok' if row['hash_matches'] else 'HASH MISMATCH'}", flush=True)
    return record(args, "run_dynamics seconds from one timing each, step budget "
                  f"{STEP_BUDGET} or {CONVERGENCE_BUDGET}; seeded instances with ranges of "
                  "1-5 locations; peak_rss_mb per case, each case in its own process",
                  results, failures)


if __name__ == "__main__":
    sys.exit(main())
