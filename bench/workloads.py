"""Seeded workloads: input generators, operations, exact checks, fingerprints.

Each workload turns a seed into a pool of inputs laid out in rounds. One
round is a fixed pattern of operation kinds, so every timed run covers the
same mix of input shapes whatever the seed; the seed only changes the
instances inside that pattern. The library sees nothing but generated
instances or instance files.

Every operation has two forms. The plain form calls the library the way a
user would (``cli.main``, ``oracle_report`` and ``compute_equilibrium``).
The traced form puts a span around each public piece those entry points
are made of, called in the same order, and must produce an output with the
same fingerprint. For ``cli.main`` that means running cli.main itself with
its library calls routed through the spans.

Only the stable public surface of ``bakermill`` is imported: nothing from
``flow`` and no underscore names, so replacing the rebalancer or the
oracle's enumeration leaves this file untouched.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from bakermill import (
    CoverageProblem,
    Instance,
    StrategyProfile,
    SolveReport,
    WeightedInstance,
    compute_equilibrium,
    coverage,
    covered_bakers,
    enumerate_all_ne,
    example_instance,
    fig7_cycle_script,
    format_fraction,
    gen_poa_family,
    gen_pos_family,
    greedy_k_coverage,
    instance_digest,
    is_nash_equilibrium,
    optimal_coverage,
    oracle_report,
    parse_instance,
    phase1_concentrate,
    phase2_insert_millers,
    phase3_rebalance,
    potential_value,
    reduce_to_optimum_instance,
    run_dynamics,
    serialize_instance,
)
import bakermill.cli

DEFAULT_SEED = 0
TERMINAL_STATUSES = ("converged-to-NE", "cycle-detected", "step-budget-exhausted")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Item:
    """One input of a workload; ``index`` keys its stored fingerprint."""

    index: int
    kind: str
    data: dict = field(default_factory=dict)


@dataclass
class Pool:
    """Inputs, and the order rounds run them in.

    The timed loop cycles through ``rounds`` until its time is up, so each
    input runs several times, seconds apart.
    """

    items: list[Item]
    rounds: list[list[int]]    # item indices, in the order one round runs them


class Untraced:
    """Recorder stand-in for the timed run: calls straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass


UNTRACED = Untraced()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def is_stable(ranges, num_locations, bakers, millers, baker_w=None, miller_w=None) -> bool:
    """Independent stability check, written out here so that a wrong solver,
    model or dynamics module cannot vouch for itself.

    With weights, utilities are weight sums; unit weights give the plain
    game. A move is improving when it strictly raises the mover's ratio.
    """
    baker_w = baker_w or (1,) * len(bakers)
    miller_w = miller_w or (1,) * len(millers)
    b_sum = [0] * num_locations
    m_sum = [0] * num_locations
    for b, loc in enumerate(bakers):
        if loc not in ranges[b]:
            return False
        b_sum[loc] += baker_w[b]
    for m, loc in enumerate(millers):
        m_sum[loc] += miller_w[m]
    for m, loc in enumerate(millers):
        w = miller_w[m]
        for t in range(num_locations):
            if t != loc and b_sum[t] * m_sum[loc] > b_sum[loc] * (m_sum[t] + w):
                return False
    for b, loc in enumerate(bakers):
        w = baker_w[b]
        for t in ranges[b]:
            if t != loc and m_sum[t] * b_sum[loc] > m_sum[loc] * (b_sum[t] + w):
                return False
    return True


def _solve_pieces(rec, instance) -> SolveReport:
    """compute_equilibrium, one public phase at a time (traced form)."""
    greedy, phase1 = rec.call("solver.phase1", phase1_concentrate, instance)
    millers = rec.call("solver.phase2", phase2_insert_millers, instance, phase1, order=greedy)
    rebalanced = rec.call("solver.phase3", phase3_rebalance, instance, millers)
    profile = StrategyProfile(rebalanced, millers)
    before = rec.call("model.score", potential_value, instance, millers, phase1)
    after = rec.call("model.score", potential_value, instance, millers, rebalanced)
    cov = rec.call("model.score", coverage, instance, profile)
    is_ne = rec.call("model.verify", is_nash_equilibrium, instance, profile)
    rec.count("solver.calls")
    rec.count("solver.bakers", instance.num_bakers)
    rec.count("solver.phase3_moved", sum(1 for a, b in zip(phase1, rebalanced) if a != b))
    rec.count("model.verify_failed", 0 if is_ne else 1)
    return SolveReport(profile=profile, greedy=greedy, phase1_bakers=phase1,
                       potential_before=before, potential_after=after,
                       coverage=cov, is_ne=is_ne)


@contextmanager
def traced_cli(rec):
    """Route cli.main's library calls through ``rec`` while the block runs.

    cli.main looks up ``parse_instance`` and ``compute_equilibrium`` in its
    own module, so swapping those two names spans the parse and each solver
    phase, and cli.main's own work (argument parsing, file read, checks,
    formatting, printing) runs unchanged outside the library spans.
    """
    def parse(text):
        rec.count("serialization.bytes", len(text))
        return rec.call("serialization.parse", parse_instance, text)

    cli = bakermill.cli
    saved = cli.parse_instance, cli.compute_equilibrium
    cli.parse_instance = parse
    cli.compute_equilibrium = lambda instance: _solve_pieces(rec, instance)
    try:
        yield
    finally:
        cli.parse_instance, cli.compute_equilibrium = saved


class Workload:
    name = ""
    uses_cli = False

    def build(self, seed: int, workdir: Path) -> Pool:
        raise NotImplementedError

    def warm_up(self, workdir: Path) -> None:
        """Run one small operation untimed, so lazy set-up is paid here."""
        raise NotImplementedError

    def run(self, item: Item, rec=UNTRACED):
        """One operation. ``rec`` is UNTRACED for the timed run."""
        raise NotImplementedError

    def check(self, item: Item, out) -> None:
        """Raise CheckFailed unless the output is exactly right."""
        raise NotImplementedError

    def fingerprint(self, item: Item, out) -> str:
        raise NotImplementedError

    def work(self, item: Item, out) -> int:
        """Units of useful work the operation did, for the throughput metric."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# solve_mixed: `bakermill solve FILE`, phase 3 dominates


def random_solve_instance(rng: random.Random, n: int, shape: str) -> Instance:
    """n bakers, q = n/10 locations, m = q/2 millers, ranges of 1-5 locations.

    ``subset`` ranges are random location sets (short augmenting chains);
    ``ring`` ranges are windows on a ring of locations (long chains).
    """
    q = n // 10
    bakers = []
    for _ in range(n):
        width = rng.randint(1, 5)
        if shape == "ring":
            start = rng.randrange(q)
            bakers.append(tuple((start + i) % q for i in range(width)))
        else:
            bakers.append(tuple(rng.sample(range(q), width)))
    return Instance(tuple(f"L{i}" for i in range(q)), q // 2, tuple(bakers))


class SolveMixed(Workload):
    name = "solve_mixed"
    uses_cli = True
    ROUND = ((100, "subset"), (200, "ring"), (300, "subset"),
             (100, "ring"), (200, "subset"), (300, "ring"))
    # A run holds about ten rounds, so most inputs run twice and the
    # figures rest on 36 instances, not on a few.
    POOL_ROUNDS = 6

    def build(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        items, rounds = [], []
        for r in range(self.POOL_ROUNDS):
            rounds.append([])
            for n, shape in self.ROUND:
                instance = random_solve_instance(rng, n, shape)
                path = workdir / f"solve_{len(items):03d}.json"
                path.write_text(serialize_instance(instance))
                rounds[-1].append(len(items))
                items.append(Item(len(items), shape, {"instance": instance, "path": str(path)}))
        return Pool(items, rounds)

    def warm_up(self, workdir):
        instance = random_solve_instance(random.Random(self.name), 50, "ring")
        path = workdir / "solve_warm.json"
        path.write_text(serialize_instance(instance))
        self.check(Item(-1, "ring", {"instance": instance}),
                   self.run(Item(-1, "ring", {"instance": instance, "path": str(path)})))

    def run(self, item, rec=UNTRACED):
        buf = io.StringIO()
        with redirect_stdout(buf):
            if rec is UNTRACED:
                code = bakermill.cli.main(["solve", item.data["path"]])
            else:
                with traced_cli(rec):
                    code = bakermill.cli.main(["solve", item.data["path"]])
        return code, buf.getvalue()

    def check(self, item, out):
        code, text = out
        if code != 0:
            raise CheckFailed(f"bakermill solve exited with {code}")
        if "nash equilibrium: yes\n" not in text:
            raise CheckFailed("solver output is not reported as a Nash equilibrium")
        instance = item.data["instance"]
        index = {name: i for i, name in enumerate(instance.locations)}
        line = next((l for l in text.splitlines() if l.startswith("bakers: ")), None)
        if line is None:
            raise CheckFailed("solver output has no profile line")
        bakers, millers = line[len("bakers: "):].split(" | millers: ")
        try:
            b_locs = [index[name] for name in bakers.split()]
            m_locs = [index[name] for name in millers.split()]
        except KeyError as exc:
            raise CheckFailed(f"profile names an unknown location {exc}") from None
        if len(b_locs) != instance.num_bakers or len(m_locs) != instance.num_millers:
            raise CheckFailed("profile has the wrong number of agents")
        if not is_stable(instance.bakers, instance.num_locations, b_locs, m_locs):
            raise CheckFailed("printed profile is not a Nash equilibrium")

    def fingerprint(self, item, out):
        return digest_text(out[1])

    def work(self, item, out):
        return item.data["instance"].num_bakers


# --------------------------------------------------------------------------
# coverage_greedy: reduction + phase 1, phase 3 never runs


def random_coverage_problem(rng: random.Random, num_items: int, num_sets: int) -> CoverageProblem:
    """Each ground item joins 1-3 random sets; k = sets/5."""
    members: list[list[int]] = [[] for _ in range(num_sets)]
    for item in range(num_items):
        for j in rng.sample(range(num_sets), rng.randint(1, 3)):
            members[j].append(item)
    for j in range(num_sets):
        if not members[j]:
            members[j].append(rng.randrange(num_items))
    return CoverageProblem(tuple(tuple(s) for s in members), num_sets // 5)


class CoverageGreedy(Workload):
    name = "coverage_greedy"
    # Shapes run from set-heavy to item-heavy at about the same cost per op
    # (0.6-0.8 s on a 2-core x86 VM), so a 25 s run holds ~40 ops.
    ROUND = ((2000, 120), (2500, 110), (3000, 100))
    POOL_ROUNDS = 4

    def build(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        items, rounds = [], []
        for r in range(self.POOL_ROUNDS):
            rounds.append([])
            for num_items, num_sets in self.ROUND:
                problem = random_coverage_problem(rng, num_items, num_sets)
                rounds[-1].append(len(items))
                items.append(Item(len(items), f"{num_items}x{num_sets}", {"problem": problem}))
        return Pool(items, rounds)

    def warm_up(self, workdir):
        item = Item(-1, "warm", {"problem": random_coverage_problem(random.Random(self.name), 300, 20)})
        self.check(item, self.run(item))

    def run(self, item, rec=UNTRACED):
        problem = item.data["problem"]
        reduction = rec.call("reductions.reduce", reduce_to_optimum_instance, problem)
        instance = reduction.instance
        text = rec.call("serialization.serialize", serialize_instance, instance)
        order = rec.call("solver.phase1", greedy_k_coverage, instance, problem.k)
        covered = rec.call("solver.covered", covered_bakers, instance, order)
        rec.count("reductions.bakers_out", instance.num_bakers)
        rec.count("serialization.bytes", len(text))
        rec.count("solver.calls")
        rec.count("solver.bakers", instance.num_bakers)
        return text, order, covered

    def check(self, item, out):
        """The order must be the greedy max-coverage order (ties to the lowest
        set index) and covered_bakers its exact union size, recomputed here
        from the sets themselves."""
        _, order, covered = out
        problem = item.data["problem"]
        sets = [set(s) for s in problem.sets]
        if len(order) != problem.k:
            raise CheckFailed(f"greedy returned {len(order)} sets, expected {problem.k}")
        seen: set[int] = set()
        counts = []
        remaining = list(range(len(sets)))
        for pick in order:
            gains = [len(sets[j] - seen) for j in remaining]
            best = remaining[gains.index(max(gains))]
            if pick != best:
                raise CheckFailed(f"greedy picked set {pick}, the best next set is {best}")
            counts.append(max(gains))
            seen |= sets[pick]
            remaining.remove(pick)
        if covered != sum(counts):
            raise CheckFailed(f"covered_bakers says {covered}, the picks cover {sum(counts)}")

    def fingerprint(self, item, out):
        text, order, covered = out
        return digest_text(f"{digest_text(text)} {list(order)} {covered}")

    def work(self, item, out):
        return len(item.data["problem"].ground)


# --------------------------------------------------------------------------
# oracle_corpus: exhaustive oracle plus the solver, tiny and near-budget


def random_tiny_instance(rng: random.Random) -> Instance:
    """Shaped like the acceptance corpus: <=6 bakers, <=4 locations, <=3 millers."""
    num_locations = rng.randint(1, 4)
    bakers = tuple(
        tuple(rng.sample(range(num_locations), rng.randint(1, num_locations)))
        for _ in range(rng.randint(1, 6))
    )
    return Instance(tuple("abcd"[:num_locations]), rng.randint(1, 3), bakers)


def oracle_examined(instance: Instance) -> int:
    """The documented ``profiles_examined``: every baker profile times every
    miller multiset."""
    return math.prod(len(r) for r in instance.bakers) * math.comb(
        instance.num_locations + instance.num_millers - 1, instance.num_millers)


def tail_shape(low: int, high: int) -> tuple[int, int, tuple[int, ...]]:
    """Locations, millers and range sizes of a tail instance: search_space in
    [10^5, 10^7] and profiles_examined, which sets the oracle's cost, in
    [low, high).

    The shape depends on the band alone, so every seed's tail examines the
    same number of profiles and costs about the same.
    """
    rng = random.Random(f"tail:{low}:{high}")
    while True:
        q, m = rng.randint(3, 6), rng.randint(2, 4)
        sizes = tuple(rng.randint(1, min(3, q)) for _ in range(rng.randint(5, 12)))
        profiles = math.prod(sizes)
        if 10**5 <= profiles * q**m <= 10**7 and low <= profiles * math.comb(q + m - 1, m) < high:
            return q, m, sizes


def random_tail_instance(rng: random.Random, shape) -> Instance:
    """An instance of the given shape with seeded ranges."""
    q, m, sizes = shape
    ranges = tuple(tuple(rng.sample(range(q), size)) for size in sizes)
    return Instance(tuple(f"l{i}" for i in range(q)), m, ranges)


class OracleCorpus(Workload):
    name = "oracle_corpus"
    TINY_PER_ROUND = 100
    # profiles_examined bands, each twice the last: the near-budget tail
    TAIL_BANDS = tuple((20_000 * 2**i, 40_000 * 2**i) for i in range(5))
    POOL_ROUNDS = 10

    def build(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        items: list[Item] = []

        def add(kind, **data):
            items.append(Item(len(items), kind, data))
            return len(items) - 1

        families = [add("poa", instance=gen_poa_family(m)[0], M=m) for m in (10, 12)]
        n, q, m = 1, 5, 7
        families.append(add("pos", instance=gen_pos_family(n, q, m)[0], n=n, q=q, M=m))
        shapes = [tail_shape(lo, hi) for lo, hi in self.TAIL_BANDS]
        rounds = []
        for r in range(self.POOL_ROUNDS):
            tiny = [add("tiny", instance=random_tiny_instance(rng)) for _ in range(self.TINY_PER_ROUND)]
            tails = [add("tail", instance=random_tail_instance(rng, shape)) for shape in shapes]
            chunk = self.TINY_PER_ROUND // len(tails)
            rounds.append([])
            for i, tail in enumerate(tails):
                rounds[-1].extend(tiny[i * chunk:(i + 1) * chunk])
                rounds[-1].append(tail)
            rounds[-1].extend(families)
        return Pool(items, rounds)

    def warm_up(self, workdir):
        item = Item(-1, "tiny", {"instance": random_tiny_instance(random.Random(self.name))})
        self.check(item, self.run(item))

    def run(self, item, rec=UNTRACED):
        instance = item.data["instance"]
        if rec is UNTRACED:
            report = oracle_report(instance)
            return {
                "digest": report.digest, "examined": report.profiles_examined,
                "equilibria": report.equilibria,
                "opt": (report.opt_coverage, report.opt_witness),
                "best": (report.best_ne_coverage, report.best_ne_witness),
                "worst": (report.worst_ne_coverage, report.worst_ne_witness),
                "poa": report.poa, "pos": report.pos,
                "solve": compute_equilibrium(instance),
            }
        # oracle_report, piece by piece, then compute_equilibrium
        equilibria = tuple(rec.call("oracle.scan", enumerate_all_ne, instance))
        opt = rec.call("oracle.optimum", optimal_coverage, instance)
        digest = rec.call("serialization.digest", instance_digest, instance)
        best = worst = None
        for ne in equilibria:
            cov = rec.call("model.score", coverage, instance, ne)
            if best is None or cov > best[0]:
                best = (cov, ne)
            if worst is None or cov < worst[0]:
                worst = (cov, ne)
        examined = oracle_examined(instance)
        rec.count("oracle.profiles_examined", examined)
        rec.count("oracle.equilibria", len(equilibria))
        return {
            "digest": digest, "examined": examined, "equilibria": equilibria,
            "opt": opt, "best": best, "worst": worst,
            "poa": Fraction(opt[0], worst[0]), "pos": Fraction(opt[0], best[0]),
            "solve": _solve_pieces(rec, instance),
        }

    def check(self, item, out):
        solved = out["solve"].profile
        canonical = StrategyProfile(solved.baker_locations, tuple(sorted(solved.miller_locations)))
        if not out["solve"].is_ne or canonical not in out["equilibria"]:
            raise CheckFailed("the solver's equilibrium is missing from the oracle's list")
        if item.kind == "poa" and out["poa"] != item.data["M"]:
            raise CheckFailed(f"poa is {out['poa']}, expected {item.data['M']}")
        if item.kind == "pos":
            n, q, m = item.data["n"], min(item.data["q"], item.data["M"]), item.data["M"]
            expected = 1 + Fraction(n * (q - 1), n * m + 1)
            if out["pos"] != expected:
                raise CheckFailed(f"pos is {out['pos']}, expected {expected}")

    def fingerprint(self, item, out):
        def prof(p):
            return f"{list(p.baker_locations)}/{list(p.miller_locations)}"

        s = out["solve"]
        fields = [
            out["digest"], str(out["examined"]),
            ";".join(prof(p) for p in out["equilibria"]),
            *(f"{cov}@{prof(p)}" for cov, p in (out["opt"], out["best"], out["worst"])),
            format_fraction(out["poa"]), format_fraction(out["pos"]),
            prof(s.profile), f"{list(s.greedy.order)}{list(s.greedy.counts)}{list(s.phase1_bakers)}",
            format_fraction(s.potential_before), format_fraction(s.potential_after),
            str(s.coverage), str(s.is_ne),
        ]
        return digest_text("\n".join(fields))

    def work(self, item, out):
        return out["examined"]


# --------------------------------------------------------------------------
# dynamics: improving-response runs and the scripted fig7 cycle


def random_dynamics_instance(rng: random.Random, weighted: bool) -> WeightedInstance:
    """400 bakers, 30 locations, 60 millers; weights 1-5 when ``weighted``."""
    n, q, m = 400, 30, 60
    bakers = tuple(tuple(rng.sample(range(q), rng.randint(1, 5))) for _ in range(n))
    instance = Instance(tuple(f"L{i}" for i in range(q)), m, bakers)
    if not weighted:
        return WeightedInstance.uniform(instance)
    return WeightedInstance(instance, tuple(rng.randint(1, 5) for _ in range(n)),
                            tuple(rng.randint(1, 5) for _ in range(m)))


def lowest_index_start(winstance: WeightedInstance) -> StrategyProfile:
    """Every baker at her lowest permissible location, every miller at 0."""
    instance = winstance.instance
    return StrategyProfile(tuple(r[0] for r in instance.bakers), (0,) * instance.num_millers)


class Dynamics(Workload):
    name = "dynamics"
    POOL_ROUNDS = 3
    # Both "best" runs converge well within this budget, both "first" runs
    # stop at it (they take 150-340 moves), so their cost hardly varies
    # from instance to instance.
    STEP_BUDGET = 120

    def build(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        fig7 = example_instance("fig7")
        items = [Item(0, "fig7", {"winstance": fig7.instance, "start": fig7.profiles["start"],
                                  "policy": "scripted", "script": fig7_cycle_script()})]
        rounds = []
        for r in range(self.POOL_ROUNDS):
            large = []
            for weighted in (False, True):
                winstance = random_dynamics_instance(rng, weighted)
                for policy in ("first", "best"):
                    items.append(Item(len(items), f"{policy}-{'weighted' if weighted else 'unit'}", {
                        "winstance": winstance, "start": lowest_index_start(winstance),
                        "policy": policy}))
                    large.append(len(items) - 1)
            # two fig7 cycles (item 0) after each of the first three large runs
            rounds.append([large[0], 0, 0, large[1], 0, 0, large[2], 0, 0, large[3]])
        return Pool(items, rounds)

    def warm_up(self, workdir):
        fig7 = example_instance("fig7")
        item = Item(-1, "fig7", {"winstance": fig7.instance, "start": fig7.profiles["start"],
                                 "policy": "scripted", "script": fig7_cycle_script()})
        self.check(item, self.run(item))

    def run(self, item, rec=UNTRACED):
        d = item.data
        if d["policy"] == "scripted":
            trace = rec.call("dynamics.run", run_dynamics, d["winstance"], d["start"],
                             policy="scripted", step_budget=len(d["script"]), script=d["script"])
        else:
            trace = rec.call("dynamics.run", run_dynamics, d["winstance"], d["start"],
                             policy=d["policy"], step_budget=self.STEP_BUDGET)
        rec.count("dynamics.moves", len(trace.moves))
        rec.count("dynamics.cycles", trace.status == "cycle-detected")
        rec.count("dynamics.converged", trace.status == "converged-to-NE")
        return trace

    def check(self, item, trace):
        if trace.status not in TERMINAL_STATUSES:
            raise CheckFailed(f"unknown terminal status {trace.status!r}")
        for k, move in enumerate(trace.moves):
            if not move.utility_after > move.utility_before:
                raise CheckFailed(f"move {k + 1} is not improving")
        if item.kind == "fig7":
            if (trace.status, trace.revisit_index, len(trace.moves)) != ("cycle-detected", 0, 21):
                raise CheckFailed("the fig7 script must revisit the start state after 21 moves")
        if trace.status == "converged-to-NE":
            w = item.data["winstance"]
            final = trace.states[-1]
            if not is_stable(w.instance.bakers, w.instance.num_locations, final.baker_locations,
                             final.miller_locations, w.baker_weights, w.miller_weights):
                raise CheckFailed("dynamics converged to a state with an improving move")

    def fingerprint(self, item, trace):
        moves = ";".join(
            f"{m.kind} {m.agent} {m.origin} {m.target} "
            f"{format_fraction(m.utility_before)} {format_fraction(m.utility_after)}"
            for m in trace.moves
        )
        return digest_text(f"{trace.status} {trace.revisit_index}\n{moves}")

    def work(self, item, trace):
        return len(trace.moves)


WORKLOADS = {w.name: w for w in (SolveMixed(), CoverageGreedy(), OracleCorpus(), Dynamics())}
