"""File formats and the command-line surface.

CLI tests drive cli.main() in-process with tmp files and captured stdout;
exit codes follow the convention 0 ok, 1 error, 2 oracle refusal.
"""

import json
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bakermill import (
    EXAMPLE_TAGS,
    CoverageProblem,
    GameError,
    Instance,
    InvalidInstanceError,
    ParseError,
    ScriptedMove,
    StrategyProfile,
    WeightedInstance,
    example_instance,
    gen_poa_family,
    gen_pos_family,
    instance_digest,
    parse_instance,
    parse_profile,
    parse_script,
    reduce_to_optimum_instance,
    serialize_instance,
    serialize_profile,
    serialize_script,
)
from bakermill.cli import main
from conftest import IO_SEED, fresh_rng, random_instance, random_profile
from reference_serialization import (
    reference_serialize_instance,
    reference_serialize_profile,
)


def base_of(obj):
    return obj.instance if isinstance(obj, WeightedInstance) else obj


# -------------------------------------------------------------- serialization


def test_round_trip_examples_and_families():
    gallery = [example_instance(tag).instance for tag in EXAMPLE_TAGS]
    gallery.append(gen_poa_family(4)[0])
    gallery.append(gen_pos_family(2, 3, 3)[0])
    for obj in gallery:
        assert parse_instance(serialize_instance(obj)) == obj


def test_round_trip_random_instances():
    rng = fresh_rng(IO_SEED)
    for _ in range(100):
        inst = random_instance(rng)
        assert parse_instance(serialize_instance(inst)) == inst


def test_all_unit_weights_parse_as_unweighted():
    ex = example_instance("fig2")
    w = WeightedInstance.uniform(ex.instance)
    text = serialize_instance(w)
    back = parse_instance(text)
    assert isinstance(back, Instance)
    assert back == ex.instance


def test_weighted_instances_keep_their_weights():
    w = example_instance("fig7").instance
    back = parse_instance(serialize_instance(w))
    assert isinstance(back, WeightedInstance)
    assert back.baker_weights == w.baker_weights
    assert back.miller_weights == w.miller_weights


def test_digest_is_stable_and_discriminating():
    a = example_instance("fig2").instance
    assert instance_digest(a) == instance_digest(parse_instance(serialize_instance(a)))
    b = Instance(a.locations, a.num_millers + 1, a.bakers)
    assert instance_digest(a) != instance_digest(b)
    assert len(instance_digest(a)) == 16


# Names a script line can hold: no whitespace (lines split on it) and no "#"
# (it starts a comment). Instance refuses any other name.
NAMES = st.text(st.characters(exclude_characters="#"), min_size=1, max_size=3).filter(
    lambda name: not any(c.isspace() for c in name)
)


@st.composite
def instances(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    location = st.integers(0, len(names) - 1)
    ranges = draw(st.lists(st.lists(location, min_size=1, max_size=5), min_size=1, max_size=5))
    return Instance(tuple(names), draw(st.integers(1, 4)), tuple(map(tuple, ranges)))


@st.composite
def weighted_instances(draw):
    inst = draw(instances())
    weights = st.integers(1, 3)
    return WeightedInstance(
        inst,
        draw(st.lists(weights, min_size=inst.num_bakers, max_size=inst.num_bakers)),
        draw(st.lists(weights, min_size=inst.num_millers, max_size=inst.num_millers)),
    )


@st.composite
def scripts(draw, inst):
    location = st.integers(0, inst.num_locations - 1)
    move = st.builds(ScriptedMove, st.sampled_from(("baker", "miller")), location, location,
                     st.none() | st.integers(1, 9))
    return tuple(draw(st.lists(move, max_size=4)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(instances(), weighted_instances()), st.data())
def test_round_trip_property(obj, data):
    # all-unit weights parse back as the plain instance, by design
    expected = obj.instance if isinstance(obj, WeightedInstance) and obj.is_uniform else obj
    assert parse_instance(serialize_instance(obj)) == expected
    script = data.draw(scripts(base_of(obj)))
    assert parse_script(serialize_script(script, obj), obj) == script


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_digest_ignores_range_order_and_repeats(data):
    inst = data.draw(instances())
    shuffled = []
    for rng in inst.bakers:
        repeats = data.draw(st.lists(st.sampled_from(rng), max_size=3))
        shuffled.append(tuple(data.draw(st.permutations(rng + tuple(repeats)))))
    same = Instance(inst.locations, inst.num_millers, tuple(shuffled))
    assert same == inst
    assert instance_digest(same) == instance_digest(inst)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(instances(), weighted_instances(), instances().map(WeightedInstance.uniform)))
@example(WeightedInstance(Instance(('"', "\\", "é", "\x00", "☃"), 2, ((0, 1), (2, 3, 4))),
                          (1, 2), (3, 1)))
def test_serialization_matches_the_json_reference(obj):
    # NAMES draw control and non-ASCII characters, the example adds quotes and
    # backslashes; weights of 1-3 give all-unit games, weighted bakers and
    # miller weight lists
    assert serialize_instance(obj) == reference_serialize_instance(obj)
    inst = base_of(obj)
    profile = StrategyProfile(tuple(rng[-1] for rng in inst.bakers),
                              tuple(m % inst.num_locations for m in range(inst.num_millers)))
    for prof in (profile, StrategyProfile((), ())):
        assert serialize_profile(prof, obj) == reference_serialize_profile(prof, obj)


def test_instance_digests_are_pinned():
    pinned = {"fig1": "7fcb85e8c59080cf", "fig2": "d855ace557bf2888", "fig3": "742eef7cd479deeb",
              "fig6": "3d7cdf31752b09c6", "fig7": "904ffa343ee042fe"}
    assert {tag: instance_digest(example_instance(tag).instance) for tag in EXAMPLE_TAGS} == pinned
    rng = fresh_rng(IO_SEED)
    sets = tuple(tuple(rng.sample(range(300), rng.randint(5, 40))) for _ in range(20))
    reduction = reduce_to_optimum_instance(CoverageProblem(sets, 4))
    assert reduction.instance.num_bakers == 239
    assert instance_digest(reduction.instance) == "77979663e8afe9d2"


def test_a_miller_count_builds_no_weight_tuple():
    text = _doc(millers=10**7)
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.num_millers == 10**7
    assert peak < 2**20  # a weight tuple of that count would take 80 MB


@pytest.mark.parametrize(
    "text,needle",
    [
        ("{", "line 1"),
        ('{"version": 2, "locations": ["x"], "millers": 1, "bakers": []}', "version"),
        (
            '{"version": 1, "locations": ["x", "x"], "millers": 1,'
            ' "bakers": [{"range": ["x"]}]}',
            "duplicate",
        ),
        (
            '{"version": 1, "locations": ["x"], "millers": 1,'
            ' "bakers": [{"range": ["q"]}]}',
            "unknown location 'q'",
        ),
        (
            '{"version": 1, "locations": ["x"], "millers": 1,'
            ' "bakers": [{"range": []}]}',
            "range",
        ),
        (
            '{"version": 1, "locations": ["x"], "millers": 1,'
            ' "bakers": [{"range": ["x"], "weight": 0}]}',
            "weight",
        ),
        (
            '{"version": 1, "locations": ["x"], "millers": 0, "bakers":'
            ' [{"range": ["x"]}]}',
            "millers",
        ),
        # counts that could not index a tuple fail before any allocation
        pytest.param(
            '{"version": 1, "locations": ["x"], "millers": %d, "bakers":'
            ' [{"range": ["x"]}]}' % 10**30,
            "millers: a count above", id="millers-1e30",
        ),
        pytest.param(
            '{"version": 1, "locations": ["x"], "millers": %d, "bakers":'
            ' [{"range": ["x"]}]}' % (sys.maxsize + 1),
            "millers: a count above", id="millers-maxsize+1",
        ),
        # past Python's default limit of 4300 digits for reading an integer
        pytest.param("1" * 5000, "too many digits", id="integer-literal-too-long"),
        pytest.param("[" * 100_000, "nested too deeply", id="nested-too-deeply"),
    ],
)
def test_parse_instance_error_context(text, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert needle in str(err.value)


def test_a_pos_family_whose_baker_count_could_not_index_a_tuple_is_refused():
    # every parameter fits, but the baker count they make does not
    with pytest.raises(GameError, match="more than"):
        gen_pos_family(2**32, 2**32, 1)


# Values that replace a node of a parsed document: the integers are far
# beyond any count the library can allocate.
HUGE_INTS = st.sampled_from((10**30, -(10**30), sys.maxsize + 1, 2**64, 10**4000))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | HUGE_INTS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, node):
    """``node`` with one nested node replaced by a huge integer, another
    JSON value or itself wrapped in a list or an object, or dropped."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        copy = dict(node) if isinstance(node, dict) else list(node)
        if draw(st.integers(0, 4)) == 0:
            del copy[key]
        else:
            copy[key] = draw(mutated(node[key]))
        return copy
    return draw(st.one_of(HUGE_INTS, JSON_VALUES, st.just([node]), st.just({"x": node})))


def _script_text(lines) -> str:
    """One line per entry of a list, its tokens joined by spaces."""
    if not isinstance(lines, list):
        return str(lines)
    return "\n".join(" ".join(map(str, line)) if isinstance(line, list) else str(line)
                     for line in lines)


FIG2 = example_instance("fig2").instance
FIG2_PROFILE = '{"bakers": ["x", "x", "x", "y"], "millers": ["x", "x"]}'
FIG7 = example_instance("fig7").instance
FIG7_SCRIPT = serialize_script(example_instance("fig7").script, FIG7)
# (document as parsed JSON or as token lines, its rendering, its parser)
FUZZ_TARGETS = {
    "instance": (json.loads(serialize_instance(FIG2)), json.dumps, parse_instance),
    "profile": (json.loads(FIG2_PROFILE), json.dumps, lambda text: parse_profile(text, FIG2)),
    "script": ([line.split() for line in FIG7_SCRIPT.splitlines()], _script_text,
               lambda text: parse_script(text, FIG7)),
}


@pytest.mark.parametrize("target", FUZZ_TARGETS)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_fail_only_with_game_errors(target, data):
    document, render, parse = FUZZ_TARGETS[target]
    for _ in range(data.draw(st.integers(1, 3))):
        document = data.draw(mutated(document))
    text = render(document)
    try:
        parse(text)
    except GameError:
        pass


@pytest.mark.parametrize("name", ["a b", "a#b", "a\tb", "a\u2028b"])
def test_location_names_a_script_cannot_hold_are_refused(name):
    text = ('{"version": 1, "locations": [%s, "c"], "millers": 1, "bakers": [{"range": ["c"]}]}'
            % json.dumps(name))
    with pytest.raises(ParseError, match="holds whitespace or '#'"):
        parse_instance(text)
    with pytest.raises(InvalidInstanceError):
        Instance((name, "c"), 1, ((0, 1),))


def test_profile_round_trip_and_validation():
    rng = fresh_rng(IO_SEED + 1)
    for _ in range(50):
        inst = random_instance(rng)
        prof = random_profile(rng, inst)
        assert parse_profile(serialize_profile(prof, inst), inst) == prof
    inst = example_instance("fig2").instance
    with pytest.raises(ParseError):
        parse_profile('{"bakers": ["x"], "millers": ["x", "x"]}', inst)
    with pytest.raises(ParseError):
        parse_profile(
            '{"bakers": ["q", "x", "x", "y"], "millers": ["x", "x"]}', inst
        )
    with pytest.raises(ParseError):
        # baker 3 is pinned to y
        parse_profile(
            '{"bakers": ["x", "x", "x", "x"], "millers": ["x", "x"]}', inst
        )


def test_script_round_trip_and_comments():
    w = example_instance("fig7").instance
    script = example_instance("fig7").script
    text = serialize_script(script, w)
    assert tuple(parse_script(text, w)) == tuple(script)
    commented = "# warmup\n\n" + text
    assert tuple(parse_script(commented, w)) == tuple(script)
    with pytest.raises(ParseError):
        parse_script("farmer x y", w)
    with pytest.raises(ParseError):
        parse_script("miller x q", w)
    with pytest.raises(ParseError):
        parse_script("miller x y notanumber", w)


def test_script_weight_column_is_optional():
    inst = example_instance("fig2").instance
    w = WeightedInstance.uniform(inst)
    moves = parse_script("baker x y\nmiller y x 1", w)
    assert moves == (
        ScriptedMove("baker", 0, 1, None),
        ScriptedMove("miller", 1, 0, 1),
    )


# ------------------------------------------------------------------------ cli


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(serialize_instance(example_instance("fig2").instance))
    return str(path)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(serialize_instance(example_instance("fig7").instance))
    return str(path)


def test_cli_solve_then_verify_pipeline(fig2_file, tmp_path, capsys):
    assert main(["solve", fig2_file]) == 0
    out = capsys.readouterr().out
    assert "coverage: 3" in out
    assert "nash equilibrium: yes" in out
    assert "potential after: 11/3" in out

    ex = example_instance("fig2")
    prof_file = tmp_path / "left.profile.json"
    prof_file.write_text(serialize_profile(ex.profiles["left"], ex.instance))
    assert main(["verify", fig2_file, str(prof_file)]) == 0
    out = capsys.readouterr().out
    assert "baker equilibrium: yes" in out
    assert "miller equilibrium: yes" in out
    assert "nash equilibrium: yes" in out


def test_cli_verify_reports_witness(fig2_file, tmp_path, capsys):
    ex = example_instance("fig1")
    inst_file = tmp_path / "fig1.json"
    inst_file.write_text(serialize_instance(ex.instance))
    prof_file = tmp_path / "left.profile.json"
    prof_file.write_text(serialize_profile(ex.profiles["left"], ex.instance))
    code = main(["verify", str(inst_file), str(prof_file)])
    out = capsys.readouterr().out
    assert code == 0  # verification ran fine, the state is just unstable
    assert "nash equilibrium: no" in out
    assert "baker 0" in out  # witness names the improving agent


def test_cli_oracle_is_deterministic(fig2_file, capsys):
    assert main(["oracle", fig2_file]) == 0
    first = capsys.readouterr().out
    assert "nash equilibria: 2" in first
    assert "poa: 4/3" in first
    assert main(["oracle", fig2_file]) == 0
    assert capsys.readouterr().out == first


def test_cli_oracle_refuses_over_budget(fig2_file, capsys, monkeypatch):
    monkeypatch.setenv("ORACLE_BUDGET", "5")
    assert main(["oracle", fig2_file]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    monkeypatch.setenv("ORACLE_BUDGET", "100")
    assert main(["oracle", fig2_file]) == 0


def test_cli_dynamics_detects_the_cycle(fig7_file, tmp_path, capsys):
    ex = example_instance("fig7")
    start = tmp_path / "start.profile.json"
    start.write_text(serialize_profile(ex.profiles["start"], ex.instance))
    cycle = tmp_path / "cycle.script"
    from bakermill import fig7_cycle_script

    cycle.write_text(serialize_script(fig7_cycle_script(), ex.instance))
    code = main(
        ["dynamics", fig7_file, "--start", str(start), "--script", str(cycle)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status: cycle-detected" in out
    assert "revisited state: 0" in out
    assert "moves: 21" in out


def test_cli_dynamics_default_start_converges(fig2_file, capsys):
    assert main(["dynamics", fig2_file, "--policy", "best"]) == 0
    out = capsys.readouterr().out
    assert "status: converged-to-NE" in out


def test_cli_generate_output_parses(tmp_path, capsys):
    for argv in (
        ["generate", "poa", "--bakers", "3"],
        ["generate", "pos", "--n", "1", "--locations", "2", "--millers", "2"],
        ["generate", "coverage-opt", "--sets", "[[1, 2], [2]]", "--k", "1"],
        ["generate", "coverage-ne", "--sets", "[[1, 2], [2]]", "--k", "1"],
        ["generate", "fig3"],
    ):
        assert main(argv) == 0
        parse_instance(capsys.readouterr().out)


def test_cli_generate_writes_profiles_and_scripts(tmp_path, capsys):
    out = tmp_path / "fig7.json"
    profdir = tmp_path / "profs"
    assert (
        main(
            [
                "generate",
                "fig7",
                "-o",
                str(out),
                "--profiles-dir",
                str(profdir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    w = parse_instance(out.read_text())
    start = parse_profile((profdir / "fig7_start.profile.json").read_text(), w)
    assert start == example_instance("fig7").profiles["start"]
    moves = parse_script((profdir / "fig7_moves.script").read_text(), w)
    assert len(moves) == 7
    cycle = parse_script((profdir / "fig7_cycle.script").read_text(), w)
    assert len(cycle) == 21


def test_cli_welfare_fig2(fig2_file, tmp_path, capsys):
    ex = example_instance("fig2")
    prof = tmp_path / "left.profile.json"
    prof.write_text(serialize_profile(ex.profiles["left"], ex.instance))
    assert main(["welfare", fig2_file, str(prof)]) == 0
    out = capsys.readouterr().out
    assert "coverage: 3" in out
    assert "baker utility sum: 2/1" in out
    assert "miller utility sum: 3/1" in out
    assert "total welfare: 5/1" in out
    assert "bakers at millered locations: 3" in out


def test_cli_rejects_weighted_instances_outside_dynamics(fig7_file, capsys):
    for argv in (["solve", fig7_file], ["oracle", fig7_file]):
        assert main(argv) == 1
        assert "unweighted" in capsys.readouterr().err


def test_cli_missing_file_is_an_error(capsys):
    assert main(["solve", "no-such-file.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
def test_cli_unreadable_input_is_a_one_line_error(bad, fig2_file, tmp_path, capsys):
    if bad == "directory":
        path = tmp_path / "a-directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"version": 1, "locations": ["\xe9t\xe9"]}')
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["verify", fig2_file, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("sets", ['[[1,"a"]]', '[[{"a":1}]]', "[[1.5, 2]]", "[[true, 2]]"])
def test_cli_coverage_sets_need_integer_items(sets, tmp_path, capsys):
    out = tmp_path / "cov.json"
    assert main(["generate", "coverage-opt", "--sets", sets, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: coverage items must be integers\n"
    assert not out.exists()


NESTED_NAME_INSTANCE = '{"version": 1, "locations": ["x"], "millers": 1, "bakers": [{"range": [["x"]]}]}'
NESTED_NAME_PROFILE = '{"bakers": [["x"], "x", "x", "y"], "millers": ["x", "x"]}'


def _doc(**fields) -> str:
    """A valid one-location instance document with some fields replaced."""
    data = {"version": 1, "locations": ["x"], "millers": 1, "bakers": [{"range": ["x"]}]}
    data.update(fields)
    return json.dumps(data)


# (argv, files, text the error line holds). The files are written to a tmp
# directory next to fig2.json and fig2.profile.json, which they may replace,
# and every argv entry naming one becomes its path.
BAD_INPUTS = {
    "no-version": (["solve", "bad.json"], {"bad.json": "{}"}, "missing field 'version'"),
    "top-level-list": (["solve", "bad.json"], {"bad.json": "[]"},
                       "document: expected an object at the top level"),
    "no-locations": (["solve", "bad.json"], {"bad.json": _doc(locations=[])},
                     "locations: expected a nonempty list of names"),
    "no-miller-weights": (["solve", "bad.json"], {"bad.json": _doc(millers=[])},
                          "millers: weight list must be nonempty"),
    "no-bakers": (["solve", "bad.json"], {"bad.json": _doc(bakers=[])},
                  "bakers: expected a nonempty list"),
    "baker-not-object": (["solve", "bad.json"], {"bad.json": _doc(bakers=[1])},
                         "bakers[0]: expected an object"),
    **{
        f"nested-range-name-{cmd}": ([cmd, "bad.json", *extra], {"bad.json": NESTED_NAME_INSTANCE},
                                     "bakers[0].range: unknown location ['x']")
        for cmd, extra in (("solve", []), ("oracle", []), ("verify", ["fig2.profile.json"]),
                           ("welfare", ["fig2.profile.json"]))
    },
    "profile-not-json": (["verify", "fig2.json", "fig2.profile.json"],
                         {"fig2.profile.json": "{"}, "line 1, column 2"),
    "profile-not-object": (["verify", "fig2.json", "fig2.profile.json"],
                           {"fig2.profile.json": "[]"},
                           "profile: expected an object at the top level"),
    "profile-bakers-not-list": (["verify", "fig2.json", "fig2.profile.json"],
                                {"fig2.profile.json": '{"bakers": "x", "millers": ["x", "x"]}'},
                                "bakers: expected a list of location names"),
    **{
        f"nested-profile-name-{cmd}": ([cmd, "fig2.json", "fig2.profile.json"],
                                       {"fig2.profile.json": NESTED_NAME_PROFILE},
                                       "bakers[0]: unknown location ['x']")
        for cmd in ("verify", "welfare")
    },
    "script-short-line": (["dynamics", "fig2.json", "--script", "bad.script"],
                          {"bad.script": "miller x"}, "line 1: expected 'kind origin target [weight]'"),
    "script-zero-weight": (["dynamics", "fig2.json", "--script", "bad.script"],
                           {"bad.script": "miller x y 0"}, "line 1: weight must be positive"),
    "script-stays-put": (["dynamics", "fig2.json", "--script", "bad.script"],
                         {"bad.script": "miller x x"}, "a move must change location"),
    **{
        f"millers-{label}": (["solve", "bad.json"], {"bad.json": _doc(millers=count)},
                             "millers: a count above")
        for label, count in (("1e30", 10**30), ("maxsize+1", sys.maxsize + 1))
    },
    **{
        f"generate-{family}-{flag.lstrip('-')}-{label}": (["generate", family, flag, str(size)], {},
                                              "the family cannot hold more than")
        for family, flag in (("poa", "--bakers"), ("pos", "--n"), ("pos", "--locations"),
                             ("pos", "--millers"))
        for label, size in (("1e30", 10**30), ("maxsize+1", sys.maxsize + 1))
    },
    "sets-not-json": (["generate", "coverage-opt", "--sets", "["], {}, "--sets: Expecting value"),
    "sets-not-nested": (["generate", "coverage-opt", "--sets", "[1]"], {},
                        "--sets: expected a list of lists of integers"),
}


@pytest.mark.parametrize("argv, files, needle", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_cli_bad_input_is_one_error_line(argv, files, needle, tmp_path, capsys):
    texts = {
        "fig2.json": serialize_instance(example_instance("fig2").instance),
        "fig2.profile.json": FIG2_PROFILE,
        **files,
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / a) if a in texts else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and "Traceback" not in err


def test_cli_parser_keeps_no_state_between_calls(fig2_file, capsys, monkeypatch):
    # the parser is built once per process; each call must still start
    # from the declared defaults, whatever an earlier call parsed or refused
    monkeypatch.delenv("ORACLE_BUDGET", raising=False)
    assert main(["oracle", fig2_file, "--budget", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", fig2_file, "--budget", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["oracle", fig2_file]) == 0
    out, err = capsys.readouterr()
    assert "nash equilibria:" in out and err == ""
    assert main(["solve", fig2_file]) == 0
    assert "nash equilibrium: yes" in capsys.readouterr().out


def test_cli_unknown_command_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_family_exits_2_with_usage(capsys):
    # argparse refuses the family before generate runs
    with pytest.raises(SystemExit) as exc:
        main(["generate", "fig99"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "invalid choice: 'fig99'" in err
