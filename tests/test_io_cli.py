"""File formats and the command-line surface.

CLI tests drive cli.main() in-process with tmp files and captured stdout;
exit codes follow the convention 0 ok, 1 error, 2 oracle refusal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakermill import (
    EXAMPLE_TAGS,
    Instance,
    ParseError,
    ScriptedMove,
    WeightedInstance,
    example_instance,
    gen_poa_family,
    gen_pos_family,
    instance_digest,
    parse_instance,
    parse_profile,
    parse_script,
    serialize_instance,
    serialize_profile,
    serialize_script,
)
from bakermill.cli import main
from conftest import IO_SEED, fresh_rng, random_instance, random_profile


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


@st.composite
def instances(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(instances(), weighted_instances()))
def test_round_trip_property(obj):
    # all-unit weights parse back as the plain instance, by design
    expected = obj.instance if isinstance(obj, WeightedInstance) and obj.is_uniform else obj
    assert parse_instance(serialize_instance(obj)) == expected


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
    ],
)
def test_parse_instance_error_context(text, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert needle in str(err.value)


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


def test_cli_unknown_command_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert "usage" in capsys.readouterr().err
