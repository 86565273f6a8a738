"""One-shot phase-3 scale run: per-phase seconds at sizes the bench skips.

    python3 scripts/phase3_scale.py [--src DIR] [--label NAME] [--out FILE]

Times phases 1, 2 and 3 of the solver, once each, on seeded instances of
1000 bakers x 50 locations, 5000 x 150 and 10^4 x 200, each with subset and
ring ranges of 1-6 locations and q/2 millers. The results go under
``--label`` into ``--out`` (default BENCH_phase3_scale.json at the repo
root), next to any other labels already there, so running it once against
an older checkout's ``src`` and once against this one records both sides.

Every final profile must hash to the SHA-256 recorded below, so a run on
any checkout also shows that the profiles are unchanged. There is no
timing gate, and the test suite does not run this script.
"""

from __future__ import annotations

import random
import sys

from scale_common import parse_args, record, sha256_hex, timed

CASES = ((1000, 50), (5000, 150), (10_000, 200))
SHAPES = ("subset", "ring")

# SHA-256 of "bakers|millers" (comma-joined location indices) per case,
# recorded from the rebalancer that ran every search to the end.
EXPECTED = {
    "1000x50:subset":
        "ddfa73ca7c80f7c361a8f7a5314651e4b8c5dd43e29e8c6f6eb8bab60b5d2f46",
    "1000x50:ring":
        "f7441aadc6bf49b7fc000d18e46313e04d7d3d71bc3756d8cc646efd6743224e",
    "5000x150:subset":
        "d7ff977349ba7e2c57f303c59884297752bc1446fdf2c5e0d974b3e210047a11",
    "5000x150:ring":
        "a80d4dcb5464dbebfbbc2d84fd4d21d95feeebc413b4b8bd2b1c8a0a39567d7c",
    "10000x200:subset":
        "fc9a7ef11380b13732f5876d54728e0f6da4c04aa31457598f9fe9892d37f630",
    "10000x200:ring":
        "943d742e4ace6a5a01c8e02069e9a7e54e7c06cd31188186e08ace96ceb99309",
}


def build(n: int, q: int, shape: str):
    from bakermill import Instance

    rng = random.Random(f"phase3_scale:{n}:{q}:{shape}")
    bakers = []
    for _ in range(n):
        width = rng.randint(1, 6)
        if shape == "ring":
            start = rng.randrange(q)
            bakers.append(tuple((start + i) % q for i in range(width)))
        else:
            bakers.append(tuple(rng.sample(range(q), width)))
    return Instance(tuple(f"L{i}" for i in range(q)), q // 2, tuple(bakers))


def profile_hash(bakers, millers) -> str:
    return sha256_hex(",".join(map(str, bakers)) + "|" + ",".join(map(str, millers)))


def run_case(n: int, q: int, shape: str) -> dict:
    from bakermill import phase1_concentrate, phase2_insert_millers, phase3_rebalance

    instance = build(n, q, shape)
    (greedy, phase1), phase1_s = timed(phase1_concentrate, instance)
    millers, phase2_s = timed(phase2_insert_millers, instance, phase1, greedy)
    bakers, phase3_s = timed(phase3_rebalance, instance, millers)
    return {
        "bakers": n,
        "locations": q,
        "shape": shape,
        "phase1_s": phase1_s,
        "phase2_s": phase2_s,
        "phase3_s": phase3_s,
        "profile_sha256": profile_hash(bakers, millers),
    }


def main(argv=None) -> int:
    args = parse_args(__doc__, "BENCH_phase3_scale.json", argv)
    results, failures = [], []
    for n, q in CASES:
        for shape in SHAPES:
            row = run_case(n, q, shape)
            key = f"{n}x{q}:{shape}"
            row["hash_matches"] = row["profile_sha256"] == EXPECTED[key]
            if not row["hash_matches"]:
                failures.append(key)
            results.append(row)
            print(f"{key:>16}  phase1 {row['phase1_s']:8.4f} s  phase2 {row['phase2_s']:8.4f} s"
                  f"  phase3 {row['phase3_s']:8.4f} s  {row['profile_sha256'][:12]}"
                  f"  {'ok' if row['hash_matches'] else 'HASH MISMATCH'}", flush=True)

    return record(args, "phase seconds from one timing each; seeded instances with "
                  "ranges of 1-6 locations and q/2 millers", results, failures)


if __name__ == "__main__":
    sys.exit(main())
