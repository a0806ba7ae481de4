import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpsurf
from lpsurf.cli import main

EXAMPLE_SEED = {
    "schema": 1,
    "cluster": ["a", "b", "c"],
    "frozen": [],
    "polys": ["b + 1", "a*c + 1", "a^2*b + b^2 + 2*b + 1"],
}
HEXAGON = {"schema": 1, "genus": 0, "cross_caps": 0, "boundary": [6], "boundary_variables": True}
M2 = {**HEXAGON, "cross_caps": 1, "boundary": [2]}
# The initial seeds of the hexagon and M2, as seed-from-surface writes them.
HEXAGON_SEED = {
    "schema": 1,
    "cluster": ["x6", "x7", "x8"],
    "frozen": ["b1", "b2", "b3", "b4", "b5", "b6"],
    "polys": ["x7*b2 + b1*b3", "x6*b4 + x8*b3", "x7*b5 + b4*b6"],
}
M2_SEED = {"schema": 1, "cluster": ["x2", "x3"], "frozen": ["b1", "b2"],
           "polys": ["b1 + b2", "x2^2 + b1*b2"]}
# A valid seed whose exchange polynomial F_x is the frozen variable t.
FROZEN_VARIABLE_SEED = {"schema": 1, "cluster": ["x", "y"], "frozen": ["t"],
                        "polys": ["t", "x + 1"]}
# EXAMPLE_SEED with b renamed a', the default name for a mutated a.
PRIMED_SEED = {**EXAMPLE_SEED, "cluster": ["a", "a'", "c"],
               "polys": ["a' + 1", "a*c + 1", "a^2*a' + a'^2 + 2*a' + 1"]}


@pytest.fixture
def example_seed_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_SEED))
    return str(path)


@pytest.fixture
def bad_seed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": 1,
        "cluster": ["a", "x", "y"],
        "frozen": ["b"],
        "polys": ["b*x + b*y", "y + 1", "x + 1"],
    }))
    return str(path)


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON))
    return str(path)


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(M2))
    return str(path)


class TestMutate:
    def test_mutation_golden(self, runner, example_seed_file):
        result = runner.invoke(
            main, ["mutate", "--seed", example_seed_file, "--at", "a", "--name", "d"]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["schema"] == 1
        assert data["cluster"] == ["d", "b", "c"]
        assert data["polys"] == ["b + 1", "d + c", "d^2 + b"]
        assert data["new_variable"]["value"] == "(b + 1) / (a)"

    def test_round_trip_up_to_canonical_form(self, runner, example_seed_file, tmp_path):
        out1 = str(tmp_path / "m1.json")
        r1 = runner.invoke(
            main, ["mutate", "--seed", example_seed_file, "--at", "a", "--out", out1]
        )
        assert r1.exit_code == 0
        out2 = str(tmp_path / "m2.json")
        r2 = runner.invoke(main, ["mutate", "--seed", out1, "--at", "a'", "--out", out2])
        assert r2.exit_code == 0
        original = json.loads(open(example_seed_file).read())
        twice = json.loads(open(out2).read())
        assert twice["polys"] == [
            p.replace("a", "a''") for p in original["polys"]
        ]

    def test_unknown_variable_is_domain_error(self, runner, example_seed_file):
        result = runner.invoke(main, ["mutate", "--seed", example_seed_file, "--at", "zz"])
        assert result.exit_code == 1


class TestValidate:
    def test_good_seed(self, runner, example_seed_file):
        result = runner.invoke(main, ["validate", "--seed", example_seed_file])
        assert result.exit_code == 0 and "seed ok" in result.output

    def test_reducible_diagnostic(self, runner, bad_seed_file):
        result = runner.invoke(main, ["validate", "--seed", bad_seed_file])
        assert result.exit_code == 1
        assert "reducible" in result.output

    def test_usage_error(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 2

    def test_surface(self, runner, hexagon_file):
        result = runner.invoke(main, ["validate", "--surface", hexagon_file])
        assert result.exit_code == 0 and "rank 3" in result.output


class TestNormalize:
    def test_normalized_polys(self, runner, example_seed_file):
        result = runner.invoke(main, ["normalize", "--seed", example_seed_file, "--at", "c"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        entry = data["normalized"][0]
        assert entry["exponents"] == {"a": 2}


class TestSurfaceCommands:
    def test_seed_from_surface(self, runner, m2_file, tmp_path):
        tri_out = str(tmp_path / "tri.json")
        result = runner.invoke(
            main, ["seed-from-surface", "--surface", m2_file, "--triangulation-out", tri_out]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert sorted(data["polys"]) == ["b1 + b2", "x2^2 + b1*b2"]
        tri = json.loads(open(tri_out).read())
        assert tri["schema"] == 1 and len(tri["quasi_arcs"]) == 2

    def test_compare_graphs_output(self, runner, hexagon_file):
        result = runner.invoke(main, ["compare-graphs", "--surface", hexagon_file])
        assert result.exit_code == 0
        assert result.output.strip() == "isomorphic: true, nodes=14, edges=21"

    def test_compare_graphs_witness(self, runner):
        """On ``isomorphic: false`` stdout keeps its one line; stderr names the failed check."""
        result = _run(runner, {**HEXAGON, "boundary_variables": False},
                      "compare-graphs --surface FILE", {})
        assert (result.exit_code, result.output) == (1, (
            "isomorphic: false, nodes=10, edges=15\n"
            "witness: node x6',x7,x8 slot 2: forward check failed\n"))

    def test_compare_graphs_cut_by_the_node_cap_gives_no_verdict(self, runner):
        """On the capped 8-gon: one ``Error:`` line and exit 1, no ``isomorphic:`` line."""
        octagon, capped = {**HEXAGON, "boundary": [8]}, {"LP_SURFACE_SEED_CAP": "20"}
        result = _run(runner, octagon, "compare-graphs --surface FILE", capped)
        assert (result.exit_code, result.output) == (1, (
            "Error: the seed graph passed the node cap of 20; "
            "pass --depth or raise LP_SURFACE_SEED_CAP\n"))
        # a depth bound cuts the graph before the cap does; a cap it fits in cuts nothing
        for command, env in (("compare-graphs --surface FILE --depth 1", capped),
                             ("compare-graphs --surface FILE", {"LP_SURFACE_SEED_CAP": "132"})):
            result = _run(runner, octagon, command, env)
            assert (result.exit_code, result.output) == (
                0, _run(runner, octagon, command, {}).output), command
        assert result.output == "isomorphic: true, nodes=132, edges=330\n"

    def test_compare_graphs_refuses_a_polygon_above_the_cap_before_any_work(
            self, runner, monkeypatch):
        """The n-gon has C_{n-2} seeds: the 14-gon's 208,012 pass the default cap."""
        mutations, mutate = [], lpsurf.explorer.mutate
        monkeypatch.setattr(lpsurf.explorer, "mutate",
                            lambda *a, **k: mutations.append(a) or mutate(*a, **k))
        refused = ("Error: the seed graph passed the node cap of {}; "
                   "pass --depth or raise LP_SURFACE_SEED_CAP\n")
        start = time.perf_counter()
        result = _run(runner, {**HEXAGON, "boundary": [14]}, "compare-graphs --surface FILE", {})
        assert time.perf_counter() - start < 1.0
        assert (result.exit_code, result.output) == (1, refused.format(100000))
        nonagon = {**HEXAGON, "boundary": [9]}
        result = _run(runner, nonagon, "compare-graphs --surface FILE",
                      {"LP_SURFACE_SEED_CAP": "429"})
        assert (result.exit_code, result.output) == (
            0, "isomorphic: true, nodes=429, edges=1287\n")
        assert mutations
        mutations.clear()
        result = _run(runner, nonagon, "compare-graphs --surface FILE",
                      {"LP_SURFACE_SEED_CAP": "428"})
        assert (result.exit_code, result.output, len(mutations)) == (1, refused.format(428), 0)
        # M_n's size is measured, not derived: its cap is met at run time
        result = _run(runner, {**M2, "boundary": [4]}, "compare-graphs --surface FILE",
                      {"LP_SURFACE_SEED_CAP": "20"})
        assert (result.exit_code, result.output) == (1, refused.format(20)) and mutations

    @pytest.mark.parametrize("surface, depth, verdict", [
        ((0, 0, (5,)), None, "true, nodes=5, edges=5"),
        ((0, 0, (6,)), None, "false, nodes=10, edges=15"),
        ((0, 0, (7,)), None, "true, nodes=42, edges=84"),
        ((0, 1, (2,)), None, "true, nodes=4, edges=4"),
        ((0, 1, (3,)), None, "true, nodes=16, edges=24"),
        ((0, 1, (4,)), None, "false, nodes=32, edges=64"),
        ((0, 0, (2, 2)), 2, "false, nodes=13, edges=14"),
        ((0, 0, (1, 2)), 2, "true, nodes=10, edges=9"),
        ((0, 0, (1, 1)), 3, "true, nodes=7, edges=6"),
        ((1, 0, (1,)), 2, "true, nodes=17, edges=16"),
        ((0, 2, (2,)), 3, "false, nodes=45, edges=63"),
        # Weaker than it looks: 10 of these 184 nodes carry a seed other than
        # their state's (ROADMAP, "Measured at this re-anchor"), yet every
        # check passes.
        ((1, 0, (2,)), 4, "true, nodes=184, edges=253"),
    ], ids=str)
    def test_compare_graphs_without_boundary_variables(self, runner, surface, depth, verdict):
        """The measured scope of the check with every boundary segment weighted 1.

        These verdicts pin what the engine gives; none is asserted as correct.
        """
        genus, cross_caps, boundary = surface
        doc = {**HEXAGON, "genus": genus, "cross_caps": cross_caps, "boundary": list(boundary),
               "boundary_variables": False}
        depth_option = "" if depth is None else f" --depth {depth}"
        result = _run(runner, doc, "compare-graphs --surface FILE" + depth_option, {})
        assert result.exit_code == (0 if verdict.startswith("true") else 1)
        assert result.output.splitlines()[0] == f"isomorphic: {verdict}"

    @pytest.mark.parametrize("mode", ["seeds", "flips"])
    def test_explore_dot_marks_a_cut_by_the_node_cap(self, runner, mode):
        octagon = {**HEXAGON, "boundary": [8]}
        dot = f"explore --surface FILE --mode {mode} --format dot"
        result = _run(runner, octagon, dot, {"LP_SURFACE_SEED_CAP": "20"})
        lines = result.output.splitlines()
        assert result.exit_code == 0
        assert lines[:2] == [f"graph {mode} {{", "  // truncated by the node cap"]
        assert sum(1 for line in lines if line.startswith("  n") and " -- " not in line) == 20
        # complete graphs and depth-bounded ones carry no mark
        for command in (dot, dot + " --depth 2"):
            assert "//" not in _run(runner, octagon, command, {}).output

    def test_explore_dot(self, runner, m2_file):
        result = runner.invoke(
            main, ["explore", "--surface", m2_file, "--mode", "flips", "--format", "dot"]
        )
        assert result.exit_code == 0
        assert result.output.count(" -- ") == 4

    def test_explore_seeds_json(self, runner, m2_file):
        result = runner.invoke(
            main, ["explore", "--surface", m2_file, "--mode", "seeds", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert len(data["nodes"]) == 4 and len(data["edges"]) == 4

    def test_verify_laurent(self, runner, m2_file):
        result = runner.invoke(
            main,
            ["verify-laurent", "--surface", m2_file, "--sequences", "25",
             "--max-length", "6", "--rng-seed", "3"],
        )
        assert result.exit_code == 0
        assert "violations: 0" in result.output

    def test_explore_from_seed_file(self, runner, example_seed_file):
        result = runner.invoke(
            main,
            ["explore", "--seed", example_seed_file, "--depth", "2", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["truncated"] and len(data["nodes"]) >= 1 + 3

    def test_jobs_flag_deterministic(self, runner, m2_file):
        r1 = runner.invoke(main, ["explore", "--surface", m2_file, "--format", "json"])
        r2 = runner.invoke(
            main, ["explore", "--surface", m2_file, "--format", "json", "--jobs", "2"]
        )
        assert r1.output == r2.output


@pytest.mark.parametrize("surface, normalizations, divisions, irreducible, variables", [
    (M2, 8, 10, 3, 1794), ({**HEXAGON, "boundary": [2, 2]}, 209, 111, 104, 3588),
], ids=["M2", "annulus22"])
def test_verify_laurent_computes_each_distinct_exchange_once(
        runner, tmp_path, monkeypatch, surface, normalizations, divisions, irreducible, variables):
    """Every step still calls mutate; only a memo miss normalizes and computes.

    The exact divisions and the polynomials whose irreducibility is decided
    (the growth of a fresh ``_IRR_CACHE``) are pinned too, so that a faster
    ``poly`` shows as cheaper operations, not fewer.
    """
    calls = {"mutate": 0, "normalize": 0, "divide_exact": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lpsurf.explorer, "mutate", counted("mutate", lpsurf.explorer.mutate))
    monkeypatch.setattr(lpsurf.lp_core, "normalize", counted("normalize", lpsurf.lp_core.normalize))
    monkeypatch.setattr(lpsurf.lp_core, "divide_exact",
                        counted("divide_exact", lpsurf.lp_core.divide_exact))
    monkeypatch.setattr(lpsurf.poly, "_IRR_CACHE", {})
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    result = runner.invoke(main, ["verify-laurent", "--surface", str(path), "--sequences", "200",
                                  "--max-length", "8", "--rng-seed", "0"])
    assert result.exit_code == 0, result.output
    assert result.output == f"sequences: 200, variables: {variables}, violations: 0\n"
    assert calls == {"mutate": 897, "normalize": normalizations, "divide_exact": divisions}
    assert len(lpsurf.poly._IRR_CACHE) == irreducible


def test_verify_laurent_validates_once_per_computed_exchange(runner, tmp_path, monkeypatch):
    """A whole-seed memo hit takes its stored verdict: only the initial seed and the
    result of each computed exchange are validated, not every ``mutate`` call's."""
    calls = {"mutate": 0, "_exchange": 0, "validate_seed": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(lpsurf.explorer, "mutate")
    counted(lpsurf.lp_core, "_exchange")
    counted(lpsurf.lp_core, "validate_seed")
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(M2))
    result = runner.invoke(main, ["verify-laurent", "--surface", str(path), "--sequences", "200",
                                  "--rng-seed", "0"])
    assert result.output.endswith("violations: 0\n") and result.exit_code == 0
    assert calls["validate_seed"] == calls["_exchange"] + 1
    assert calls == {"mutate": 897, "_exchange": 8, "validate_seed": 9}


@pytest.mark.parametrize("command", ["explore --seed FILE", "verify-laurent --seed FILE"])
def test_zero_exchange_polynomial_is_an_invalid_seed(runner, command):
    """The seed key is total: a zero polynomial reaches the validity check, not a traceback."""
    seed = _edit(EXAMPLE_SEED, cluster=["a", "b"], polys=["0", "a + 1"])
    result = _run(runner, seed, command, {})
    assert (result.exit_code, result.output) == (1, "Error: invalid LP seed: F_a is zero\n")


@pytest.mark.parametrize("boundary, cross_caps, depth, powers, positive", [
    ([6], 0, None, 0, 0), ([7], 0, None, 0, 0), ([8], 0, None, 0, 0),
    ([3], 1, None, 6, 3), ([4], 1, None, 20, 10), ([2, 2], 0, 3, 0, 0),
], ids=["hexagon", "7-gon", "8-gon", "M3", "M4", "annulus22-depth3"])
def test_compare_graphs_divides_only_where_supports_leave_the_power_open(
        runner, tmp_path, monkeypatch, boundary, cross_caps, depth, powers, positive):
    """On the benchmark's ladder, ``normalize`` divides for 26 powers ``a_k``, 13 of them positive.

    Every other power has an ``F_k`` that involves a variable ``F_j`` does
    not, which decides it without a division.
    """
    found = []  # (whether F_j involves every variable of F_k, a_k) per division

    def power_of(fk, f, k):
        found.append((set(fk.involved_indices()) <= set(f.involved_indices()), power(fk, f, k)))
        return found[-1][1]

    power = lpsurf.lp_core._power_of
    monkeypatch.setattr(lpsurf.lp_core, "_power_of", power_of)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**HEXAGON, "cross_caps": cross_caps, "boundary": boundary}))
    args = ["compare-graphs", "--surface", str(path)] + (["--depth", str(depth)] if depth else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 0 and result.output.startswith("isomorphic: true"), result.output
    assert all(open_ for open_, _ in found)
    assert (len(found), sum(a > 0 for _, a in found)) == (powers, positive)


# Runs in a fresh interpreter: import the CLI, then one command of each
# benchmark workload's shape, and report after each step which of sympy,
# networkx and click are loaded.
_SYMPY_PROBE = """
import sys
from lpsurf.cli import main
def heavy():
    return [m for m in ("sympy", "networkx", "click", "dataclasses", "inspect")
            if m in sys.modules]
loaded = [heavy()]
for args in (["compare-graphs", "--surface", sys.argv[1]],
             ["verify-laurent", "--surface", sys.argv[2]],
             ["explore", "--surface", sys.argv[3], "--mode", "flips", "--format", "dot"]):
    main(args)
    loaded.append(heavy())
print(loaded)
"""


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(lpsurf.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_workload_commands_do_not_import_sympy(tmp_path):
    """sympy costs about 0.35 s to import, networkx 0.2 s, click 14 ms and
    dataclasses, with inspect, about 10 ms.

    No benchmarked command may need any of them.
    """
    paths = []
    for name, cross_caps, boundary in (("M4", 1, [4]), ("M2", 1, [2]), ("7-gon", 0, [7])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**HEXAGON, "cross_caps": cross_caps, "boundary": boundary}))
        paths.append(str(path))
    result = subprocess.run([sys.executable, "-c", _SYMPY_PROBE, *paths], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "isomorphic: true, nodes=64, edges=128"
    assert lines[1].endswith("violations: 0") and lines[2] == "graph flips {"
    assert lines[-1] == "[[], [], [], []]"


def test_cli_import_loads_only_what_commands_reach():
    """No command needs click, the quiver module, sympy, networkx or dataclasses at start-up.

    ``dataclasses`` costs about 10 ms to import, with the ``inspect`` it loads.
    """
    probe = ("import sys, lpsurf.cli; print([m for m in ('click', 'lpsurf.quiver', 'sympy', "
             "'networkx', 'dataclasses', 'inspect') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_package_names_resolve():
    assert all(getattr(lpsurf, name) for name in lpsurf.__all__)
    with pytest.raises(AttributeError):
        lpsurf.no_such_name


COMMAND_OPTIONS = {
    "validate": ["--seed", "--surface"],
    "normalize": ["--seed", "--at"],
    "mutate": ["--seed", "--at", "--name", "--out"],
    "seed-from-surface": ["--surface", "--out", "--triangulation-out"],
    "explore": ["--seed", "--surface", "--mode", "--depth", "--format", "--jobs", "--out"],
    "compare-graphs": ["--surface", "--depth", "--jobs"],
    "verify-laurent": ["--seed", "--surface", "--sequences", "--max-length", "--rng-seed"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_help_names_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert (result.exit_code, result.exception) == (0, None), result.output
    assert result.output.startswith(f"usage: lpsurf {command} ")
    for option in COMMAND_OPTIONS[command]:
        assert option in result.output


def test_top_level_help_lists_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert all(command in result.output for command in COMMAND_OPTIONS)


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: COMMAND"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    (["compare-graphs"], "the following arguments are required: --surface"),
    (["validate", "--surf", "x.json"], "unrecognized arguments: --surf"),
    (["compare-graphs", "--surface", "does-not-exist.json"],
     "argument --surface: path 'does-not-exist.json' does not exist"),
    (["explore", "--seed", "does-not-exist.json"], "path 'does-not-exist.json' does not exist"),
    (["verify-laurent", "--sequences", "many"], "argument --sequences: 'many' is not an integer"),
])
def test_usage_error_is_usage_then_one_error_line(runner, args, message):
    result = runner.invoke(main, args)
    _assert_clean_exit(result, (2,))
    lines = result.output.splitlines()
    assert lines[0].startswith("usage: lpsurf")
    assert lines[-1].startswith("Error: ") and message in lines[-1]
    assert sum(line.startswith("Error: ") for line in lines) == 1


def test_click_style_entry_point(runner, hexagon_file):
    """``main.main`` keeps the former click entry point's signature."""
    args = ["compare-graphs", "--surface", hexagon_file]
    result = runner.invoke(lambda a: main.main(args=a, prog_name="lpsurf"), args)
    assert (result.exit_code, result.output) == (0, "isomorphic: true, nodes=14, edges=21\n")
    assert result.exception is None
    with pytest.raises(SystemExit) as exc:
        main.main(["validate"])
    assert exc.value.code == 2
    assert main.main(["validate"], standalone_mode=False) == 2


def test_module_entry_point(tmp_path):
    """``python -m lpsurf.cli`` runs a command in a fresh interpreter."""
    (tmp_path / "hexagon.json").write_text(json.dumps(HEXAGON))
    result = subprocess.run(
        [sys.executable, "-m", "lpsurf.cli", "compare-graphs", "--surface", "hexagon.json"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "isomorphic: true, nodes=14, edges=21\n", "")


ANNULUS11 = {**HEXAGON, "boundary": [1, 1]}
TORUS1 = {**HEXAGON, "genus": 1, "boundary": [1]}


@pytest.mark.parametrize("surface", [ANNULUS11, TORUS1], ids=["annulus11", "torus1"])
@pytest.mark.parametrize("command", ["compare-graphs --surface FILE",
                                     "explore --surface FILE", "explore --mode seeds --surface FILE"])
def test_infinite_seed_graph_needs_depth(runner, surface, command, time_limit):
    """Without --depth, a seed BFS on a surface of infinite type would never end."""
    result = _run(runner, surface, command, {})
    _assert_clean_exit(result, (2,))
    lines = result.output.splitlines()
    assert lines[0].startswith(f"usage: lpsurf {command.split()[0]}")
    assert lines[-1] == "Error: the seed graph of this surface is infinite; pass --depth"
    assert sum(line.startswith("Error: ") for line in lines) == 1


@pytest.mark.parametrize("surface", [ANNULUS11, TORUS1], ids=["annulus11", "torus1"])
@pytest.mark.parametrize("command", ["explore --mode flips --surface FILE",
                                     "explore --surface FILE --depth 2",
                                     "compare-graphs --surface FILE --depth 2"])
def test_infinite_seed_graph_runs_bounded(runner, surface, command, time_limit):
    """The flip graph up to relabelling is finite, and --depth bounds the seed BFS."""
    result = _run(runner, surface, command, {})
    _assert_clean_exit(result, (0,))
    if command.startswith("compare-graphs"):  # the lockstep checks the seed ball
        counts = "nodes=5, edges=4" if surface is ANNULUS11 else "nodes=17, edges=16"
        assert result.output == f"isomorphic: true, {counts}\n"
    else:
        assert json.loads(result.output)["nodes"]


@pytest.mark.parametrize("surface", [HEXAGON, M2, {**M2, "boundary": [3]}],
                         ids=["hexagon", "M2", "M3"])
@pytest.mark.parametrize("command", ["compare-graphs --surface FILE", "explore --surface FILE"])
def test_finite_seed_graph_needs_no_depth(runner, surface, command, time_limit):
    result = _run(runner, surface, command, {})
    _assert_clean_exit(result, (0,))


def _edit(doc, **changes):
    """``doc`` with fields replaced; a field set to ``...`` is removed."""
    out = {**doc, **changes}
    return {k: v for k, v in out.items() if v is not ...}


# (input file content, command with FILE for its path, environment, exit code,
# part of the output)
MALFORMED = [
    pytest.param(_edit(EXAMPLE_SEED, polys=["b + 1", 5, "a + 1"]), "validate --seed FILE", {},
                 1, "seed field 'polys' must be a JSON list of strings", id="non-string-poly"),
    pytest.param(_edit(EXAMPLE_SEED, polys=["b + 1", "a*c + 1", "b^\u00b2"]),
                 "validate --seed FILE", {}, 1, "parse error", id="superscript-exponent"),
    pytest.param(_edit(EXAMPLE_SEED, cluster="ab", polys=["b + 1", "a + 1"]),
                 "validate --seed FILE", {}, 1, "seed field 'cluster'", id="cluster-string"),
    pytest.param(_edit(EXAMPLE_SEED, frozen="t"), "normalize --seed FILE", {}, 1,
                 "seed field 'frozen'", id="frozen-string"),
    pytest.param(["a", "b"], "explore --seed FILE", {}, 1, "seed JSON must be an object",
                 id="seed-list"),
    pytest.param(_edit(EXAMPLE_SEED, schema=...), "validate --seed FILE", {}, 1,
                 'seed JSON needs "schema": 1', id="seed-no-schema"),
    pytest.param(_edit(EXAMPLE_SEED, cluster=[], polys=[]), "verify-laurent --seed FILE", {},
                 1, "empty cluster", id="empty-seed"),
    pytest.param(_edit(HEXAGON, genus="x"), "validate --surface FILE", {}, 1,
                 "surface field 'genus' must be a JSON integer", id="genus-string"),
    pytest.param(_edit(HEXAGON, genus=True), "validate --surface FILE", {}, 1,
                 "surface field 'genus'", id="genus-bool"),
    pytest.param(_edit(HEXAGON, cross_caps="1"), "validate --surface FILE", {}, 1,
                 "surface field 'cross_caps'", id="cross-caps-string"),
    pytest.param([6], "validate --surface FILE", {}, 1, "surface JSON must be an object",
                 id="surface-list"),
    pytest.param(_edit(HEXAGON, boundary=6), "compare-graphs --surface FILE", {}, 1,
                 "surface field 'boundary' must be a JSON list of integers", id="boundary-int"),
    pytest.param(_edit(HEXAGON, boundary=["6"]), "validate --surface FILE", {}, 1,
                 "surface field 'boundary'", id="boundary-strings"),
    pytest.param(_edit(HEXAGON, boundary=...), "validate --surface FILE", {}, 1,
                 "surface JSON needs field 'boundary'", id="boundary-missing"),
    pytest.param(_edit(HEXAGON, boundary_variables="no"), "validate --surface FILE", {}, 1,
                 "surface field 'boundary_variables'", id="boundary-variables-string"),
    pytest.param(_edit(HEXAGON, schema=7), "validate --surface FILE", {}, 1,
                 'surface JSON needs "schema": 1', id="schema-7"),
    pytest.param(HEXAGON, "explore --surface FILE", {"LP_SURFACE_SEED_CAP": "lots"}, 1,
                 "LP_SURFACE_SEED_CAP must be a positive integer", id="cap-lots"),
    pytest.param(HEXAGON, "explore --surface FILE", {"LP_SURFACE_SEED_CAP": "0"}, 1,
                 "LP_SURFACE_SEED_CAP must be a positive integer", id="cap-zero"),
    pytest.param(M2, "verify-laurent --surface FILE --max-length 0", {}, 2, "--max-length",
                 id="max-length-0"),
    pytest.param(M2, "verify-laurent --surface FILE --sequences -1", {}, 2, "--sequences",
                 id="sequences-negative"),
    pytest.param(HEXAGON, "compare-graphs --surface FILE --depth -1", {}, 2, "--depth",
                 id="depth-negative"),
    pytest.param(M2, "explore --surface FILE --jobs 0", {}, 2, "--jobs", id="jobs-0"),
    pytest.param(M2, "explore --surface FILE --out FILE/graph.json", {}, 1, "Error: ",
                 id="out-not-writable"),
    pytest.param(b"\xff\xfe{}", "validate --surface FILE", {}, 1, "cannot read",
                 id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "validate --seed FILE", {}, 1,
                 "cannot read", id="nested-too-deep"),
    pytest.param(EXAMPLE_SEED, "mutate --seed FILE --at a --name 1x", {}, 1,
                 "bad variable name '1x'", id="new-name-digit"),
    pytest.param(EXAMPLE_SEED, "mutate --seed FILE --at a --name 'a b'", {}, 1,
                 "bad variable name 'a b'", id="new-name-space"),
    pytest.param(HEXAGON_SEED, "mutate --seed FILE --at x6 --name b1", {}, 1,
                 "new variable name 'b1' is already in use", id="new-name-frozen"),
    pytest.param(EXAMPLE_SEED, "mutate --seed FILE --at a --name c", {}, 1,
                 "new variable name 'c' is already in use", id="new-name-other-slot"),
    pytest.param(PRIMED_SEED, "mutate --seed FILE --at a", {}, 1,
                 "new variable name \"a'\" is already in use", id="default-name-taken"),
    pytest.param(M2, "explore --mode flips --surface FILE --seed FILE", {}, 2,
                 "--mode flips takes no --seed", id="flips-with-seed"),
    pytest.param(M2, "explore --surface FILE --seed FILE", {}, 2,
                 "pass --seed or --surface, not both", id="explore-seed-and-surface"),
    pytest.param(M2, "verify-laurent --surface FILE --seed FILE", {}, 2,
                 "pass --seed or --surface, not both", id="laurent-seed-and-surface"),
]


def _run(runner, content, command, env):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        args = [a.replace("FILE", str(path)) for a in shlex.split(command)]
        return runner.invoke(main, args, env=env)


@pytest.mark.parametrize("command", [
    "normalize --seed FILE", "mutate --seed FILE --at y", "explore --seed FILE",
    "verify-laurent --seed FILE",
])
def test_frozen_variable_exchange_polynomial_terminates(runner, command, time_limit):
    result = _run(runner, FROZEN_VARIABLE_SEED, command, {})
    assert result.exit_code == 0, result.output


def _assert_clean_exit(result, codes=(0, 1, 2)):
    assert result.exit_code in codes, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output


@pytest.mark.parametrize("content, command, env, code, message", MALFORMED)
def test_malformed_input_is_a_one_line_error(runner, content, command, env, code, message):
    result = _run(runner, content, command, env)
    _assert_clean_exit(result, (code,))
    assert "Error: " in result.output and message in result.output


def _with_poly(text):
    return _edit(EXAMPLE_SEED, polys=["b + 1", "a*c + 1", text])


# (input file content, command with FILE for its path, part of the message)
OVERSIZED = [
    pytest.param(_edit(HEXAGON, boundary=[2000]), "seed-from-surface --surface FILE",
                 "surface rank 1997 is above the limit of 200", id="2000-gon"),
    pytest.param(_edit(HEXAGON, boundary=[100000]), "validate --surface FILE",
                 "surface rank 99997 is above the limit of 200", id="100000-gon"),
    pytest.param(_edit(HEXAGON, genus=10**9), "compare-graphs --surface FILE",
                 "is above the limit of 200", id="genus"),
    pytest.param({"schema": 1, "cluster": [f"x{i}" for i in range(5000)],
                  "polys": [f"x{(i + 1) % 5000} + 1" for i in range(5000)]},
                 "validate --seed FILE",
                 "seed has 5000 cluster variables, above the limit of 200", id="5000-cluster"),
    pytest.param(_edit(EXAMPLE_SEED, frozen=[f"f{i}" for i in range(5000)]),
                 "normalize --seed FILE",
                 "seed has 5000 frozen variables, above the limit of 203", id="5000-frozen"),
    pytest.param(_with_poly("(b+1)^1000"), "validate --seed FILE",
                 "degree above the limit of 100", id="degree"),
    pytest.param(_with_poly("(a+b+c+1)^60"), "normalize --seed FILE",
                 "more than the limit of 500 terms", id="power-terms"),
    pytest.param(_with_poly(" + ".join(f"a^{i % 50}*b^{i // 50}" for i in range(600))),
                 "explore --seed FILE", "more than the limit of 500 terms", id="sum-terms"),
    pytest.param(_with_poly("9" * 5000), "mutate --seed FILE --at a", "integer too long",
                 id="long-integer"),
    pytest.param(_with_poly("(" * 5000 + "b" + ")" * 5000), "verify-laurent --seed FILE",
                 "nested too deeply", id="deep-nesting"),
]


@pytest.mark.parametrize("content, command, message", OVERSIZED)
def test_oversized_input_is_refused_at_once(runner, content, command, message):
    start = time.perf_counter()
    result = _run(runner, content, command, {})
    elapsed = time.perf_counter() - start
    _assert_clean_exit(result, (1,))
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert message in result.output
    assert elapsed < 1.0


def test_surface_at_the_rank_limit_is_accepted(runner):
    result = _run(runner, _edit(HEXAGON, boundary=[203]), "validate --surface FILE", {})
    assert (result.exit_code, result.output) == (0, "surface ok (rank 200)\n")


def test_seed_of_a_surface_at_the_rank_limit_loads(runner, tmp_path):
    """The 203-gon's seed has 200 cluster and 203 frozen variables, both at the limit."""
    surface, seed = tmp_path / "surface.json", tmp_path / "seed.json"
    surface.write_text(json.dumps(_edit(HEXAGON, boundary=[203])))
    result = runner.invoke(main, ["seed-from-surface", "--surface", str(surface),
                                  "--out", str(seed)])
    assert (result.exit_code, result.output) == (0, "")
    data = json.loads(seed.read_text())
    assert (len(data["cluster"]), len(data["frozen"])) == (200, 203)
    result = runner.invoke(main, ["validate", "--seed", str(seed)])
    assert (result.exit_code, result.output) == (0, "seed ok\n")


# Integers stay small: a large genus or boundary is a valid surface whose
# exploration is slow by nature, not malformed input.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                   max_size=2),
    max_leaves=6,
)
_env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=4)

SEED_COMMANDS = ["validate --seed FILE", "normalize --seed FILE", "explore --seed FILE --depth 1",
                 "verify-laurent --seed FILE --sequences 2", "mutate --seed FILE --at x7"]
SURFACE_COMMANDS = ["validate --surface FILE", "explore --surface FILE --depth 1",
                    "compare-graphs --surface FILE --depth 1",
                    "verify-laurent --surface FILE --sequences 2"]


@st.composite
def _corrupted_inputs(draw):
    """A valid hexagon or M2 seed or surface file with one field set to a random
    JSON value or removed, or replaced whole by a random JSON value; or the valid
    file with a random LP_SURFACE_SEED_CAP."""
    doc = draw(st.sampled_from([HEXAGON_SEED, M2_SEED, HEXAGON, M2]))
    commands = SEED_COMMANDS if "polys" in doc else SURFACE_COMMANDS
    how = draw(st.sampled_from(["field", "drop", "document", "env"]))
    if how == "env":
        return doc, commands, {"LP_SURFACE_SEED_CAP": draw(_env_text)}
    if how == "document":
        return draw(_json_values), commands, {}
    key = draw(st.sampled_from(sorted(doc)))
    return _edit(doc, **{key: ... if how == "drop" else draw(_json_values)}), commands, {}


@settings(max_examples=30, deadline=None)
@given(_corrupted_inputs())
def test_no_input_ends_in_a_traceback(runner, case):
    content, commands, env = case
    for command in commands:
        _assert_clean_exit(_run(runner, content, command, env))
