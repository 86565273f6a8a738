"""Command line surface: solve, verify, oracle, dynamics, generate, welfare."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dynamics import WeightedInstance, run_dynamics, trace_lines
from .model import (
    GameError,
    Instance,
    StrategyProfile,
    _first_moves,
    coverage,
    format_fraction,
    occupancy,
)
from .oracle import BudgetExceededError, oracle_report
from .reductions import (
    CoverageProblem,
    EXAMPLE_TAGS,
    example_instance,
    fig7_cycle_script,
    gen_poa_family,
    gen_pos_family,
    reduce_to_optimal_ne_instance,
    reduce_to_optimum_instance,
)
from .serialization import (
    ParseError,
    instance_digest,
    parse_instance,
    parse_profile,
    parse_script,
    serialize_instance,
    serialize_profile,
    serialize_script,
)
from .solver import compute_equilibrium

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc.reason} at byte {exc.start})") from None


def _load_instance(path: str):
    return parse_instance(_read_text(path))


def _require_unweighted(obj) -> Instance:
    if isinstance(obj, WeightedInstance):
        raise GameError(
            "this command works on the unweighted game; "
            "strip the weights or use the dynamics command"
        )
    return obj


def _as_weighted(obj) -> WeightedInstance:
    return obj if isinstance(obj, WeightedInstance) else WeightedInstance.uniform(obj)


def _profile_line(instance: Instance, profile: StrategyProfile) -> str:
    names = instance.locations
    bakers = " ".join(names[loc] for loc in profile.baker_locations)
    millers = " ".join(names[loc] for loc in profile.miller_locations)
    return f"bakers: {bakers} | millers: {millers}"


def _cmd_solve(args) -> int:
    instance = _require_unweighted(_load_instance(args.instance))
    report = compute_equilibrium(instance)
    names = instance.locations
    print(
        f"instance: {instance.num_locations} locations, "
        f"{instance.num_millers} millers, {instance.num_bakers} bakers"
    )
    print("greedy order:", " ".join(names[loc] for loc in report.greedy.order))
    print("greedy counts:", " ".join(str(c) for c in report.greedy.counts))
    print("phase-1 bakers:", " ".join(names[loc] for loc in report.phase1_bakers))
    print("potential before:", format_fraction(report.potential_before))
    print("potential after:", format_fraction(report.potential_after))
    print(_profile_line(instance, report.profile))
    print("coverage:", report.coverage)
    print("nash equilibrium:", "yes" if report.is_ne else "no")
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _require_unweighted(_load_instance(args.instance))
    # parse_profile has checked that the profile fits the instance
    profile = parse_profile(_read_text(args.profile), instance)
    names = instance.locations
    baker_move, miller_move = _first_moves(instance, profile)
    if baker_move is None:
        print("baker equilibrium: yes")
    else:
        b, target = baker_move
        print(f"baker equilibrium: no (baker {b} improves by moving to {names[target]})")
    if miller_move is None:
        print("miller equilibrium: yes")
    else:
        m, target = miller_move
        print(f"miller equilibrium: no (miller {m} improves by moving to {names[target]})")
    print("nash equilibrium:", "yes" if baker_move is None and miller_move is None else "no")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _require_unweighted(_load_instance(args.instance))
    report = oracle_report(instance, args.budget)
    print("instance digest:", report.digest)
    print("profiles examined:", report.profiles_examined)
    print("nash equilibria:", len(report.equilibria))
    for i, ne in enumerate(report.equilibria, start=1):
        print(f"ne {i}: {_profile_line(instance, ne)} | coverage: {coverage(instance, ne)}")
    print(f"optimal coverage: {report.opt_coverage} ({_profile_line(instance, report.opt_witness)})")
    print(f"best ne coverage: {report.best_ne_coverage}")
    print(f"worst ne coverage: {report.worst_ne_coverage}")
    print("poa:", format_fraction(report.poa))
    print("pos:", format_fraction(report.pos))
    return EXIT_OK


def _default_start(winstance: WeightedInstance) -> StrategyProfile:
    instance = winstance.instance
    return StrategyProfile(
        tuple(rng[0] for rng in instance.bakers),
        (0,) * instance.num_millers,
    )


def _cmd_dynamics(args) -> int:
    obj = _load_instance(args.instance)
    winstance = _as_weighted(obj)
    if args.start:
        start = parse_profile(_read_text(args.start), winstance)
    else:
        start = _default_start(winstance)
    if args.script:
        script = parse_script(_read_text(args.script), winstance)
        trace = run_dynamics(
            winstance, start, policy="scripted",
            step_budget=max(args.budget, len(script)), script=script,
        )
    else:
        trace = run_dynamics(winstance, start, policy=args.policy, step_budget=args.budget)
    for line in trace_lines(trace, winstance):
        print(line)
    print("moves:", len(trace.moves))
    print("status:", trace.status)
    if trace.revisit_index is not None:
        print("revisited state:", trace.revisit_index)
    return EXIT_OK


def _parse_sets(raw: str) -> tuple[tuple[int, ...], ...]:
    import json

    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--sets: {exc.msg}") from None
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ParseError("--sets: expected a list of lists of integers")
    return tuple(tuple(s) for s in data)


def _cmd_generate(args) -> int:
    profiles: dict[str, StrategyProfile] = {}
    scripts: dict[str, object] = {}
    if args.family == "poa":
        obj, profiles = gen_poa_family(args.bakers)
    elif args.family == "pos":
        obj, profiles = gen_pos_family(args.n, args.locations, args.millers)
    elif args.family in ("coverage-opt", "coverage-ne"):
        problem = CoverageProblem(_parse_sets(args.sets), args.k)
        if args.family == "coverage-opt":
            obj = reduce_to_optimum_instance(problem).instance
        else:
            obj = reduce_to_optimal_ne_instance(problem).instance
    else:
        example = example_instance(args.family)
        obj = example.instance
        profiles = dict(example.profiles)
        if example.script is not None:
            scripts["moves"] = example.script
            scripts["cycle"] = fig7_cycle_script()

    text = serialize_instance(obj)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if args.profiles_dir:
        directory = Path(args.profiles_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for key, profile in profiles.items():
            path = directory / f"{args.family}_{key}.profile.json"
            path.write_text(serialize_profile(profile, obj))
            print(f"wrote {path}")
        for key, script in scripts.items():
            path = directory / f"{args.family}_{key}.script"
            path.write_text(serialize_script(script, obj))
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_welfare(args) -> int:
    instance = _require_unweighted(_load_instance(args.instance))
    profile = parse_profile(_read_text(args.profile), instance)
    occ = occupancy(instance, profile)
    counts = list(zip(occ.bakers_at, occ.millers_at))
    # the b bakers at a location share its m millers, so their utilities m/b
    # sum to m there, and the millers' b/m sum to b: both sums are integers,
    # and the millers' sum is the coverage
    baker_sum = sum(m for b, m in counts if b)
    miller_sum = sum(b for b, m in counts if m)
    print("coverage:", miller_sum)
    print("baker utility sum:", format_fraction(baker_sum))
    print("miller utility sum:", format_fraction(miller_sum))
    print("total welfare:", format_fraction(baker_sum + miller_sum))
    print("bakers at millered locations:", miller_sum)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared, so callers
    must not change it. Parsing keeps no state in it: every call starts
    from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="bakermill",
        description="Solve, verify and explore the bakers-and-millers location game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an equilibrium of an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a profile file for stability")
    p.add_argument("instance")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive equilibria, optimum, poa and pos")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None,
                   help="search space cap (default 10^7, env ORACLE_BUDGET)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dynamics", help="run improving-response dynamics")
    p.add_argument("instance")
    p.add_argument("--start", help="profile file with the starting state")
    p.add_argument("--policy", choices=("first", "best"), default="first")
    p.add_argument("--script", help="move script file (overrides --policy)")
    p.add_argument("--budget", type=int, default=1000, help="step budget")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("generate", help="emit a generated instance file")
    p.add_argument(
        "family",
        choices=("poa", "pos", "coverage-opt", "coverage-ne") + EXAMPLE_TAGS,
    )
    p.add_argument("--bakers", type=int, default=3, help="poa: number of bakers")
    p.add_argument("--n", type=int, default=2, help="pos: bakers per outer location")
    p.add_argument("--locations", type=int, default=3, help="pos: number of locations")
    p.add_argument("--millers", type=int, default=3, help="pos: number of millers")
    p.add_argument("--sets", default="[[1, 2], [2, 3], [3]]",
                   help="coverage families: JSON list of item lists")
    p.add_argument("--k", type=int, default=1, help="coverage families: sets to pick")
    p.add_argument("-o", "--out", help="write the instance here instead of stdout")
    p.add_argument("--profiles-dir", help="also write canonical profiles and scripts")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("welfare", help="coverage and utility sums of a profile")
    p.add_argument("instance")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_welfare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (GameError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # missing, a directory, unreadable, or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
