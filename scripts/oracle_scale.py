"""One-shot oracle scale run: seconds per report near the default budget.

    python3 scripts/oracle_scale.py [--src DIR] [--label NAME] [--out FILE]

Times ``oracle_report`` once per case on instances whose search space lies
between 4 * 10^6 and the default budget of 10^7:

- ``poa18``: the worst-anarchy family with 18 bakers, 19 locations and one
  miller, where every baker profile has its own count vector;
- ``subset``: 3 locations, 2 millers, seeded ranges of 2-3 locations;
- ``tied``: 4 locations, 3 millers, eight bakers who may each go
  anywhere, so equal counts and tied apportionments are common;
- ``crowded``: 3 locations, 4 millers, sixteen bakers who may each use
  the first two locations only.

Each case runs in a fresh interpreter of its own, so its ``peak_rss_mb``
is that case's peak alone. The results go under ``--label`` into
``--out`` (default BENCH_oracle_scale.json at the repo root), next to any
other labels already there, so running it once against an older
checkout's ``src`` and once against this one records both sides.

Every equilibrium list must hash to the SHA-256 recorded below, so a run
on any checkout also shows that the equilibria and their order are
unchanged. There is no timing gate, and the test suite does not run this
script.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import sys
from math import prod

from scale_common import parse_args, record, sha256_hex, timed

CASES = ("poa18", "subset", "tied", "crowded")

# SHA-256 of one "bakers/millers" line per equilibrium, in the oracle's
# order, recorded from the scan that tried every miller multiset.
EXPECTED = {
    "poa18":
        "6d52aa8106fea35de268a50088f337155a6e665a072d8e9a40de154a42921ef3",
    "subset":
        "b9c84693c69dc4540da95516c07b89eccd85fce8f433b5998022761b57d4b695",
    "tied":
        "63fad4466a7d53eef55d21f4eec1eb2190994a23e9da49c3bd1cba80998a543a",
    "crowded":
        "e691fe2877033b85a3438dd7a96c0256fce1c2e2cbe9ee6cb325a45d73187b7f",
}


def build(case: str):
    from bakermill import Instance, gen_poa_family

    if case == "poa18":
        return gen_poa_family(18)[0]
    if case == "subset":
        rng = random.Random("oracle_scale:subset")
        while True:
            ranges = tuple(tuple(sorted(rng.sample(range(3), rng.randint(2, 3))))
                           for _ in range(rng.randint(12, 20)))
            if 4 * 10**6 <= prod(len(r) for r in ranges) * 3**2 <= 10**7:
                return Instance(tuple(f"L{i}" for i in range(3)), 2, ranges)
    if case == "tied":
        return Instance(tuple(f"L{i}" for i in range(4)), 3, ((0, 1, 2, 3),) * 8)
    return Instance(tuple(f"L{i}" for i in range(3)), 4, ((0, 1),) * 16)


def equilibria_hash(equilibria) -> str:
    return sha256_hex("\n".join(
        f"{','.join(map(str, p.baker_locations))}/{','.join(map(str, p.miller_locations))}"
        for p in equilibria))


def run_case(case: str) -> dict:
    from bakermill import oracle_report, search_space

    instance = build(case)
    report, report_s = timed(oracle_report, instance)
    return {
        "case": case,
        "bakers": instance.num_bakers,
        "locations": instance.num_locations,
        "millers": instance.num_millers,
        "search_space": search_space(instance),
        "report_s": report_s,
        "equilibria": len(report.equilibria),
        "equilibria_sha256": equilibria_hash(report.equilibria),
        # run_case has this process to itself (see main)
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    args = parse_args(__doc__, "BENCH_oracle_scale.json", argv)
    results, failures = [], []
    spawn = multiprocessing.get_context("spawn")
    for case in CASES:
        with spawn.Pool(1) as pool:
            row = pool.apply(run_case, (case,))
        row["hash_matches"] = row["equilibria_sha256"] == EXPECTED[case]
        if not row["hash_matches"]:
            failures.append(case)
        results.append(row)
        print(f"{case:>8}  {row['search_space']:>9}  {row['report_s']:8.4f} s"
              f"  {row['peak_rss_mb']:6.1f} MB"
              f"  {row['equilibria']:6d} equilibria  {row['equilibria_sha256'][:12]}"
              f"  {'ok' if row['hash_matches'] else 'HASH MISMATCH'}", flush=True)
    return record(args, "oracle_report seconds from one timing each, default budget 10^7;"
                  " peak_rss_mb per case, each case in its own process",
                  results, failures)


if __name__ == "__main__":
    sys.exit(main())
