import gc
import hashlib
import json
import random
import tracemalloc

import pytest

import lpsurf.cli
import lpsurf.explorer
import lpsurf.lp_core

from lpsurf.build import initial_quasi_triangulation
from lpsurf.explorer import (
    ExchangeGraph,
    explore_flips,
    explore_seeds,
    export,
    LaurentReport,
    verify_laurent,
)
from lpsurf.lp_core import LaurentViolation, LPSeed, mutate, seed_key
from lpsurf.poly import PolyError, cached_attribute, parse_polynomial
from lpsurf.surface import (
    MarkedSurface,
    QuasiTriangulation,
    canonical_code,
    flip,
    seed_from_quasi_triangulation,
)

from conftest import mixed_sign_seeds, random_valid_seed
from oracles import (
    catalan,
    degrees,
    dfs_count,
    edge_depths,
    flip_graph_json,
    polygon_flip_graph,
    seed_graph_json,
    vf2_isomorphic,
)


@pytest.fixture
def hexagon_state(hexagon):
    return initial_quasi_triangulation(hexagon)


@pytest.fixture
def hexagon_seed(hexagon_state):
    return seed_from_quasi_triangulation(hexagon_state)


class TestExploreSeeds:
    def test_depth_zero(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=0)
        assert g.node_count == 1 and g.edge_count == 0 and g.truncated

    def test_hexagon_counts(self, hexagon_seed):
        g = explore_seeds(hexagon_seed)
        assert (g.node_count, g.edge_count) == (14, 21)
        assert not g.truncated
        assert all(d == 3 for d in degrees(g))

    def test_matches_independent_dfs(self, hexagon_seed):
        def neighbors(s):
            for i in range(s.n):
                t = mutate(s, i)
                yield seed_key(t), t

        nodes, edges = dfs_count(seed_key(hexagon_seed), hexagon_seed, neighbors)
        g = explore_seeds(hexagon_seed)
        assert (nodes, edges) == (g.node_count, g.edge_count)

    def test_node_cap_truncates(self, hexagon_state, monkeypatch):
        monkeypatch.setenv("LP_SURFACE_SEED_CAP", "5")
        g = explore_flips(hexagon_state)
        assert g.truncated and g.node_count <= 5

    def test_node_cap_env_override(self, hexagon_seed, monkeypatch):
        monkeypatch.setenv("LP_SURFACE_SEED_CAP", "6")
        g = explore_seeds(hexagon_seed)
        assert g.truncated and g.node_count <= 6

    def test_depth_one_ball(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=1)
        assert g.node_count == 1 + hexagon_seed.n


class TestGraphSizes:
    """Node and edge counts of complete graphs against closed forms, on both explorers.

    A state of rank r has r quasi-arcs, each flipped to one neighbour, so a
    complete graph without loops or multiple edges has r * nodes / 2 edges.
    The rank of a surface of genus g with c cross-caps, b boundary
    components and m marked points is 6g + 3c + 3b + m - 6.
    """

    @staticmethod
    def graphs(genus, cross_caps, boundary):
        t = initial_quasi_triangulation(MarkedSurface(genus, cross_caps, boundary))
        return explore_seeds(seed_from_quasi_triangulation(t)), explore_flips(t)

    @staticmethod
    def values(g):
        """The distinct cluster values over every seed of ``g``."""
        return len({v for s in g.payloads for v in s.values})

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_polygon_has_catalan_many_triangulations(self, n):
        seeds, flips = self.graphs(0, 0, (n,))
        for g in seeds, flips:
            assert not g.truncated
            assert g.node_count == catalan(n - 2)
            assert 2 * g.edge_count == (n - 3) * g.node_count
        # one cluster variable per diagonal (Fomin-Shapiro-Thurston)
        assert self.values(seeds) == n * (n - 3) // 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_moebius_strip_has_rank_edges_per_two_nodes(self, n):
        rank = 3 + 3 + n - 6
        seeds, flips = self.graphs(0, 1, (n,))
        assert not seeds.truncated and not flips.truncated
        assert seeds.node_count == flips.node_count
        assert 2 * seeds.edge_count == 2 * flips.edge_count == rank * seeds.node_count
        assert self.values(seeds) == {2: 4, 3: 10, 4: 19, 5: 31, 6: 46}[n]  # measured

    def test_values_without_boundary_variables(self):
        """Measured: fewer values than arcs, 7 for the hexagon's 9 diagonals and 12 for M4's 19."""
        for surface, values in (((0, 0, (6,), False), 7), ((0, 1, (4,), False), 12)):
            t = initial_quasi_triangulation(MarkedSurface(*surface))
            g = explore_seeds(seed_from_quasi_triangulation(t))
            assert not g.truncated and self.values(g) == values

    def test_m7_flip_graph(self):
        """One rung above M6, on the flip BFS alone: 4^6 nodes and 7 * 4^6 / 2 edges."""
        g = explore_flips(initial_quasi_triangulation(MarkedSurface(0, 1, (7,))))
        assert (g.truncated, g.node_count, g.edge_count) == (False, 4096, 14336)

    def test_11gon_flip_graph(self):
        """Two rungs above the 9-gon, on the flip BFS alone: C_9 nodes and 8 * C_9 / 2 edges."""
        g = explore_flips(initial_quasi_triangulation(MarkedSurface(0, 0, (11,))))
        assert (g.truncated, g.node_count, g.edge_count) == (False, catalan(9), 19448)


class TestSkipMatchesUnprunedSearch:
    """Skipping the mutation back changes no node, order, edge label or truncation."""

    @pytest.mark.parametrize("surface, depth", [
        ((0, 0, (6,)), None), ((0, 0, (6,), False), None), ((0, 0, (7,)), None),
        ((0, 0, (8,)), None), ((0, 1, (3,)), None), ((0, 1, (4,)), None),
        ((0, 0, (2, 2)), 3), ((0, 0, (2, 2)), 4), ((0, 0, (1, 2)), 3),
        ((1, 0, (1,)), 3), ((0, 2, (2,)), 3), ((0, 1, (5,)), None),
    ], ids=["hexagon", "hexagon-no-boundary-variables", "7-gon", "8-gon", "M3", "M4",
            "annulus22-depth3", "annulus22-depth4", "annulus12-depth3", "torus-depth3",
            "klein2-depth3", "M5"])
    def test_surfaces(self, surface, depth):
        seed = seed_from_quasi_triangulation(initial_quasi_triangulation(MarkedSurface(*surface)))
        assert export(explore_seeds(seed, depth=depth), "json") == seed_graph_json(seed, depth)

    def test_octagon_computes_each_distinct_value_once(self, monkeypatch):
        """Every edge calls mutate; the BFS memo computes 70 distinct new values."""
        calls = {"mutate": 0, "_new_value": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lpsurf.explorer, "mutate", counted("mutate", lpsurf.explorer.mutate))
        monkeypatch.setattr(lpsurf.lp_core, "_new_value",
                            counted("_new_value", lpsurf.lp_core._new_value))
        g = explore_seeds(seed_from_quasi_triangulation(
            initial_quasi_triangulation(MarkedSurface(0, 0, (8,)))))
        assert (g.node_count, g.edge_count) == (132, 330)
        assert calls == {"mutate": 330, "_new_value": 70}

    def test_random_mixed_sign_seeds(self):
        """Three of these graphs change if the token leaves out the polynomial's sign."""
        for seed in mixed_sign_seeds():
            assert export(explore_seeds(seed, depth=3), "json") == seed_graph_json(seed, 3), seed

    def test_stored_seed_of_opposite_sign_is_mutated(self):
        """A node's stored seed here differs in sign from a seed that reaches it."""
        rng = random.Random(5)
        for _ in range(51):
            seed = random_valid_seed(rng)
        assert export(explore_seeds(seed, depth=4), "json") == seed_graph_json(seed, 4)


class TestExploreFlips:
    def test_hexagon_counts(self, hexagon_state):
        g = explore_flips(hexagon_state)
        assert (g.node_count, g.edge_count) == (14, 21)

    def test_polygon_oracle(self, hexagon_state):
        """Brute-force enumeration of 6-gon triangulations by diagonal sets."""
        nodes, edges = polygon_flip_graph(6)
        assert (nodes, edges) == (14, 21)
        g = explore_flips(hexagon_state)
        assert (g.node_count, g.edge_count) == (nodes, edges)

    def test_depth_one_is_rank_plus_one(self, mobius3):
        t = initial_quasi_triangulation(mobius3)
        g = explore_flips(t, depth=1)
        assert g.node_count == 1 + len(t.quasi_arcs)

    def test_annulus_depth_balls_deterministic(self, annulus22):
        t = initial_quasi_triangulation(annulus22)
        g1 = explore_flips(t, depth=4)
        g2 = explore_flips(t, depth=4)
        assert g1.labels == g2.labels and g1.edges == g2.edges

    def test_matches_independent_dfs(self, mobius3):
        t0 = initial_quasi_triangulation(mobius3)

        def neighbors(t):
            for q in t.quasi_arcs:
                t2 = flip(t, q)
                yield canonical_code(t2), t2

        nodes, edges = dfs_count(canonical_code(t0), t0, neighbors)
        g = explore_flips(t0)
        assert (nodes, edges) == (g.node_count, g.edge_count)

    def test_m4_regression_counts_and_isomorphism(self, mobius4):
        """Frozen after first derivation: the rank-4 Moebius strip gives 64/128."""
        t = initial_quasi_triangulation(mobius4)
        gf = explore_flips(t)
        assert (gf.node_count, gf.edge_count) == (64, 128)
        gs = explore_seeds(seed_from_quasi_triangulation(t))
        assert (gs.node_count, gs.edge_count) == (64, 128)
        assert explore_seeds(seed_from_quasi_triangulation(t), state=t).mismatch is None
        assert vf2_isomorphic(gs, gf)[0]

    @pytest.mark.parametrize("surface,depth", [
        ((0, 0, (6,)), None), ((0, 0, (7,)), None), ((0, 1, (1,)), None), ((0, 1, (2,)), None),
        ((0, 1, (3,)), None), ((0, 1, (5,)), None), ((0, 0, (2, 2)), 4), ((0, 0, (1, 2)), 4),
        ((0, 0, (3, 1)), 3), ((0, 0, (1, 1)), 3), ((1, 0, (1,)), 3), ((1, 0, (2,)), 3),
        ((0, 1, (2, 2)), 3), ((0, 2, (2,)), 3),
    ], ids=str)
    def test_back_tokens_change_no_output(self, surface, depth):
        """The export equals an unpruned search's, with and without back tokens."""
        t = initial_quasi_triangulation(MarkedSurface(*surface))
        assert export(explore_flips(t, depth), "json") == flip_graph_json(t, depth)

    @pytest.mark.parametrize("surface,depth,flips", [
        ((0, 0, (9,)), None, "edges"), ((0, 1, (4,)), None, "edges"),
        ((0, 1, (6,)), None, "edges"),
        # no back tokens: every quasi-arc of each of the 20 expanded nodes
        ((0, 2, (2,)), 3, 100),
    ], ids=str)
    def test_each_edge_is_flipped_once(self, surface, depth, flips, monkeypatch):
        calls = 0
        real_flip = lpsurf.explorer.flip

        def counted(t, q):
            nonlocal calls
            calls += 1
            return real_flip(t, q)

        monkeypatch.setattr(lpsurf.explorer, "flip", counted)
        g = explore_flips(initial_quasi_triangulation(MarkedSurface(*surface)), depth=depth)
        assert calls == (g.edge_count if flips == "edges" else flips)

    @pytest.mark.parametrize("boundary,cross_caps,depth,digest", [
        ([2], 2, 3, "2417e26a7ce1d638f8d1a5dad774286299831f99ef34fa278fd7c2922940db26"),
        ([2, 2], 1, 3, "398ac2fd8c10b44136c255f28a13718e024b6e75aaca48a6efc71fdbf7fbaf43"),
        ([2, 2], 0, 4, "143ce058cb144f5ef6b92a0f63a7684d1fea183660135160d2ed0ec467aa12ca"),
    ], ids=["klein2-depth3", "M22-depth3", "annulus22-depth4"])
    def test_json_export_frozen(self, boundary, cross_caps, depth, digest, tmp_path, capsys):
        """sha256 of ``explore --mode flips --format json``, frozen before back tokens."""
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"schema": 1, "cross_caps": cross_caps, "boundary": boundary}))
        assert lpsurf.cli.main(["explore", "--surface", str(path), "--mode", "flips",
                                "--depth", str(depth), "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


M5 = MarkedSurface(0, 1, (5,))


def cached_values(obj) -> set:
    """The names of the cached_attribute values ``obj`` holds."""
    cls = type(obj)
    return {name for name in vars(obj) if isinstance(vars(cls).get(name), cached_attribute)}


class TestReleaseAfterExpansion:
    """An expanded node keeps no derived structure; the graph stays the same."""

    def test_complete_flip_graph_keeps_none(self):
        g = explore_flips(initial_quasi_triangulation(M5))
        assert g.node_count == 256
        assert not any(cached_values(t) for t in g.payloads)

    def test_complete_seed_graph_keeps_none(self, hexagon_seed):
        g = explore_seeds(hexagon_seed)
        assert not any(cached_values(s) for s in g.payloads)

    def test_depth_bound_keeps_it_on_unexpanded_nodes_only(self):
        g = explore_flips(initial_quasi_triangulation(M5), depth=2)
        depths = edge_depths(g)
        keeping = [v for v, t in enumerate(g.payloads) if cached_values(t)]
        assert keeping == [v for v, d in enumerate(depths) if d == 2] and len(keeping) == 14
        fresh = [QuasiTriangulation(t.surface, t.regions, t.boundary, t.next_id)
                 for t in g.payloads]
        assert g.labels == [",".join(map(str, t.quasi_arcs)) for t in fresh]

    def test_lockstep_releases_seeds_and_states(self, mobius4):
        t = initial_quasi_triangulation(mobius4)
        g = explore_seeds(seed_from_quasi_triangulation(t), state=t)
        assert g.node_count == 64
        assert not any(cached_values(node.seed) or cached_values(node.state) for node in g.payloads)

    def test_retained_bytes_per_node(self):
        """About 1,700 B per node on CPython 3.11; keeping every state's index took 4,973 B."""
        t0 = initial_quasi_triangulation(M5)
        canonical_code(t0)  # the shared tables already hold M5's tokens
        gc.collect()
        tracemalloc.start()
        try:
            g = explore_flips(t0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / g.node_count <= 2500


def _surface_file(tmp_path, surface) -> str:
    genus, cross_caps, boundary = surface
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"schema": 1, "genus": genus, "cross_caps": cross_caps,
                                "boundary": list(boundary), "boundary_variables": True}))
    return str(path)


def _lockstep(surface, depth=None):
    t = initial_quasi_triangulation(MarkedSurface(*surface))
    seed = seed_from_quasi_triangulation(t)
    return t, seed, explore_seeds(seed, depth, t)


COMPLETE = [
    pytest.param((0, 0, (6,)), True, id="hexagon"),
    pytest.param((0, 0, (6,), False), False, id="hexagon-no-boundary-variables"),
    pytest.param((0, 0, (7,)), True, id="7-gon"),
    pytest.param((0, 0, (8,)), True, id="8-gon"),
    pytest.param((0, 1, (1,), False), True, id="M1-no-boundary-variables"),
    pytest.param((0, 1, (2,)), True, id="M2"),
    pytest.param((0, 1, (3,)), True, id="M3"),
    pytest.param((0, 1, (4,)), True, id="M4"),
]

BALLS = [
    pytest.param(surface, depth, id=f"{name}-depth{depth}")
    for name, surface, depths in [
        ("8-gon", (0, 0, (8,)), (2,)), ("M5", (0, 1, (5,)), (3,)),
        ("annulus22", (0, 0, (2, 2)), (2, 3, 4)), ("annulus12", (0, 0, (1, 2)), (2, 3, 4)),
        ("annulus31", (0, 0, (3, 1)), (2, 3, 4)), ("torus1", (1, 0, (1,)), (2, 3, 4)),
        ("klein2", (0, 2, (2,)), (2, 3, 4)), ("annulus11", (0, 0, (1, 1)), (2,)),
    ]
    for depth in depths
]

class TestLockstepCompare:
    """``explore_seeds(seed, depth, state)``: mutation at slot i is the flip of slot i's arc."""

    @pytest.mark.parametrize("surface, iso", COMPLETE)
    def test_complete_verdicts(self, surface, iso):
        """The lockstep adds checks, not nodes, edges or labels."""
        _, seed, g = _lockstep(surface)
        assert not g.truncated and (g.mismatch is None) == iso
        assert export(g, "json") == export(explore_seeds(seed), "json")

    @pytest.mark.parametrize("surface, iso", COMPLETE)
    def test_vf2_agrees_on_complete_graphs(self, surface, iso):
        """An isomorphism check that shares no code with the lockstep."""
        t, seed, _ = _lockstep(surface)
        assert vf2_isomorphic(explore_seeds(seed), explore_flips(t))[0] == iso

    def test_vf2_tells_path_from_cycle(self):
        path = ExchangeGraph("seeds", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0"}, False)
        cycle = ExchangeGraph(
            "flips", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0", (0, 2): "1"}, False
        )
        assert vf2_isomorphic(path, cycle) == (False, None)

    @pytest.mark.parametrize("surface, depth", BALLS)
    def test_depth_bounded_balls_pass(self, surface, depth):
        _, seed, g = _lockstep(surface, depth)
        assert g.truncated and g.mismatch is None
        assert export(g, "json") == export(explore_seeds(seed, depth), "json")

    def test_witness_names_node_slot_and_check(self):
        _, _, g = _lockstep((0, 0, (6,), False))
        assert (g.node_count, g.edge_count) == (10, 15)
        assert g.mismatch == "node x6',x7,x8 slot 2: forward check failed"

    @pytest.mark.parametrize("surface, flips, mutations", [
        ((0, 0, (6,)), 42, 21), ((0, 1, (4,)), 256, 128),
    ], ids=["hexagon", "M4"])
    def test_each_slot_flips_once_and_each_edge_mutates_once(
            self, monkeypatch, surface, flips, mutations):
        """2E flips close the image under flips; back tokens keep mutations at E."""
        calls = {"flip": 0, "mutate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(lpsurf.explorer, name)
            monkeypatch.setattr(lpsurf.explorer, name, counted(name, fn))
        _, _, g = _lockstep(surface)
        assert g.mismatch is None and calls == {"flip": 2 * g.edge_count, "mutate": g.edge_count}
        assert calls == {"flip": flips, "mutate": mutations}

    @pytest.mark.parametrize("surface, witness", [
        ((0, 0, (6,)), "node x6',x7,x8 slot 0: back check failed"),
        ((0, 1, (4,)), "node x4',x5,x6,x7 slot 0: back check failed"),
    ], ids=["hexagon", "M4"])
    def test_back_check_witness(self, monkeypatch, tmp_path, capsys, surface, witness):
        """Only back checks code the root state again; a wrong second code fails one."""
        t, seed, _ = _lockstep(surface)
        code, root, calls = canonical_code, canonical_code(t), []

        def recoding_the_root_goes_wrong(state):
            c = code(state)
            if c == root:
                calls.append(state)
                return () if len(calls) > 1 else c
            return c

        monkeypatch.setattr(lpsurf.explorer, "canonical_code", recoding_the_root_goes_wrong)
        assert explore_seeds(seed, None, t).mismatch == witness
        calls.clear()
        path = _surface_file(tmp_path, surface)
        assert lpsurf.cli.main(["compare-graphs", "--surface", path]) == 1
        assert capsys.readouterr().err == f"witness: {witness}\n"

    def test_shared_codes_fail_a_complete_graph_only(self, monkeypatch):
        """With one code for every state only the distinct-code check can fail."""
        monkeypatch.setattr(lpsurf.explorer, "canonical_code", lambda t: ())
        assert _lockstep((0, 0, (6,)))[2].mismatch == (
            "nodes x6,x7,x8 and x6',x7,x8: distinct-code check failed")
        assert _lockstep((0, 0, (2, 2)), 2)[2].mismatch is None

    @pytest.mark.parametrize("surface, depth", [
        ((0, 0, (6,)), None), ((0, 1, (4,)), None), ((0, 0, (2, 2)), 2),
    ], ids=["hexagon", "M4", "annulus22-depth2"])
    def test_wrong_slot_mutant_fails(self, monkeypatch, tmp_path, surface, depth):
        """A step giving the new arc slot (i + 1) mod n, and slot i the arc it displaces, fails."""
        step = lpsurf.explorer._step

        def wrong_slot(node, i, memo):
            child = step(node, i, memo)
            arcs, j = list(child.arcs), (i + 1) % len(child.arcs)
            arcs[i], arcs[j] = arcs[j], arcs[i]
            return child._replace(arcs=tuple(arcs))

        monkeypatch.setattr(lpsurf.explorer, "_step", wrong_slot)
        assert _lockstep(surface, depth)[2].mismatch is not None
        args = ["compare-graphs", "--surface", _surface_file(tmp_path, surface)]
        assert lpsurf.cli.main(args + (["--depth", str(depth)] if depth else [])) == 1


class TestVerifyLaurent:
    def test_empty_sequence(self, hexagon_seed):
        report = verify_laurent(hexagon_seed, [[]])
        assert report.ok and report.sequences_checked == 1

    def test_example_seed_denominator(self, mutation_example_seed):
        report = verify_laurent(mutation_example_seed, [[0]])
        assert report.ok

    def test_non_laurent_value_is_reported(self):
        """(b+1)/(a+1) is not Laurent: one violation, at [0], for a'."""
        s = LPSeed.initial(("a", "b"), (), ("b+1", "a+1"))
        s = s.with_values([parse_polynomial("a+1", s.ctx), parse_polynomial("b", s.ctx)])
        report = verify_laurent(s, [[0]])
        assert report.violations == [((0,), "a'", "(b + 1) / (a + 1)")]
        assert report.sequences_checked == 1 and not report.ok

    def test_negative_frozen_exponent_is_reported(self):
        """(t+1)/(t*x) has t in its denominator: not Laurent over Z[t]."""
        s = LPSeed.initial(("x",), ("t",), ("t+1",))
        s = s.with_values([parse_polynomial("t*x", s.ctx)])
        report = verify_laurent(s, [[0, 0], [0]])
        assert [(seq, name) for seq, name, _ in report.violations] == [((0,), "x'"), ((0,), "x'")]
        assert report.sequences_checked == 2 and report.variables_checked == 0

    def test_mutate_raises_laurent_violation(self):
        s = LPSeed.initial(("x",), ("t",), ("t+1",))
        with pytest.raises(LaurentViolation, match="not a Laurent polynomial"):
            mutate(s.with_values([parse_polynomial("t*x", s.ctx)]), 0)

    def test_random_sequences_stay_laurent(self, mobius2):
        s = seed_from_quasi_triangulation(initial_quasi_triangulation(mobius2))
        rng = random.Random(5)
        seqs = [[rng.randrange(s.n) for _ in range(6)] for _ in range(30)]
        report = verify_laurent(s, seqs)
        assert report.ok
        assert report.variables_checked == sum(len(q) * s.n for q in seqs)


def unmemoized_report(seed, sequences):
    """verify_laurent as a plain loop of ``mutate`` without a memo."""
    variables, violations = 0, []
    for seq in sequences:
        s = seed
        for step, i in enumerate(seq):
            try:
                s = mutate(s, i)
            except LaurentViolation as exc:
                violations.append((tuple(seq[: step + 1]), exc.name, f"({exc.num}) / ({exc.den})"))
                break
            variables += s.n
    return LaurentReport(len(sequences), variables, violations)


def cli_sequences(seed, count=200, max_length=8, rng_seed=0):
    """The mutation sequences ``verify-laurent`` draws for ``--rng-seed``."""
    rng = random.Random(rng_seed)
    return [[rng.randrange(seed.n) for _ in range(rng.randint(1, max_length))]
            for _ in range(count)]


def repeating_sequences(rng, n, count):
    """Sequences that keep returning to earlier seeds: [i, i, j, i, ...]."""
    out = []
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        out.append([i, i, j, i, j, j, i][: rng.randint(2, 7)])
    return out


class TestVerifyLaurentMemo:
    """verify_laurent's memo changes no report and no seed along any chain."""

    @staticmethod
    def assert_same(seed, sequences):
        assert repr(verify_laurent(seed, sequences)) == repr(unmemoized_report(seed, sequences))
        memo: dict = {}
        for seq in sequences:
            a = b = seed
            for i in seq:
                try:
                    b = mutate(b, i)
                except LaurentViolation as exc:
                    with pytest.raises(LaurentViolation) as again:
                        mutate(a, i, memo=memo)
                    assert (again.value.name, again.value.num, again.value.den) == (
                        exc.name, exc.num, exc.den)
                    break
                a = mutate(a, i, memo=memo)
                assert a == b

    @pytest.mark.parametrize("surface", [(0, 1, (2,)), (0, 0, (2, 2))], ids=["M2", "annulus22"])
    def test_cli_sequences_on_surfaces(self, surface):
        seed = seed_from_quasi_triangulation(initial_quasi_triangulation(MarkedSurface(*surface)))
        self.assert_same(seed, cli_sequences(seed))

    def test_repeating_sequences_on_random_seeds(self, time_limit):
        rng = random.Random(11)
        for _ in range(20):
            seed = random_valid_seed(rng, n=rng.randint(2, 3), n_frozen=rng.randint(0, 2))
            self.assert_same(seed, repeating_sequences(rng, seed.n, 6))

    def test_non_laurent_seeds(self):
        s = LPSeed.initial(("a", "b"), (), ("b+1", "a+1"))
        s = s.with_values([parse_polynomial("a+1", s.ctx), parse_polynomial("b", s.ctx)])
        t = LPSeed.initial(("x",), ("t",), ("t+1",))
        t = t.with_values([parse_polynomial("t*x", t.ctx)])
        for seed, seqs in ((s, [[0], [1, 0], [0, 1], [1, 1, 0], [0], [1, 0]]),
                           (t, [[0, 0], [0], [0]])):
            assert verify_laurent(seed, seqs).violations
            self.assert_same(seed, seqs)


class TestWholeSeedMemoLevel:
    """Only chains, which revisit seeds, keep whole seeds in their memo."""

    @staticmethod
    def spy(monkeypatch):
        """The memos that explorer's mutate calls get, and a count of computed exchanges."""
        memos, exchanges = [], [0]
        mutate_fn, exchange_fn = lpsurf.explorer.mutate, lpsurf.lp_core._exchange

        def mutate_spy(*args, memo=None, **kwargs):
            memos.append(memo)
            return mutate_fn(*args, memo=memo, **kwargs)

        def exchange_spy(*args):
            exchanges[0] += 1
            return exchange_fn(*args)

        monkeypatch.setattr(lpsurf.explorer, "mutate", mutate_spy)
        monkeypatch.setattr(lpsurf.lp_core, "_exchange", exchange_spy)
        return memos, exchanges

    def test_seed_bfs_keeps_only_parts(self, monkeypatch, mobius4):
        memos, _ = self.spy(monkeypatch)
        g = explore_seeds(seed_from_quasi_triangulation(initial_quasi_triangulation(mobius4)))
        memo = memos[0]
        assert len(memos) == g.edge_count and all(m is memo for m in memos)
        assert {key[0] for key in memo} == {"value", "step"}

    def test_repeated_chain_hits_the_whole_seed_level(self, monkeypatch, mobius2):
        memos, exchanges = self.spy(monkeypatch)
        seed = seed_from_quasi_triangulation(initial_quasi_triangulation(mobius2))
        chain = [0, 1, 0, 1]
        once = verify_laurent(seed, [chain])
        computed = exchanges[0]
        twice = verify_laurent(seed, [chain, chain])
        assert exchanges[0] == 2 * computed and twice.variables_checked == 2 * once.variables_checked
        assert {key[0] for key in memos[-1]} >= {"seed"}


def _surface_state(*surface):
    return initial_quasi_triangulation(MarkedSurface(*surface))


# Graphs of each kind, whole and cut by depth, including a single node.
EXPORTED_GRAPHS = [
    lambda: explore_flips(_surface_state(0, 0, (6,))),
    lambda: explore_seeds(seed_from_quasi_triangulation(_surface_state(0, 0, (6,)))),
    lambda: explore_seeds(seed_from_quasi_triangulation(_surface_state(0, 0, (6,))), depth=1),
    lambda: explore_seeds(seed_from_quasi_triangulation(_surface_state(0, 0, (6,))), depth=0),
    lambda: explore_flips(_surface_state(0, 1, (3,))),
    lambda: explore_seeds(seed_from_quasi_triangulation(_surface_state(0, 1, (2,)))),
    lambda: explore_flips(_surface_state(0, 0, (2, 2)), 2),
]
EXPORTED_IDS = ["hexagon-flips", "hexagon-seeds", "hexagon-seeds-depth1",
                "hexagon-seeds-depth0", "m3-flips", "m2-seeds", "annulus22-flips-depth2"]


class TestExport:
    def test_single_node_dot(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=0)
        dot = export(g, "dot")
        assert dot.count(" -- ") == 0
        assert dot.splitlines()[0].startswith("graph")

    def test_hexagon_dot_line_counts(self, hexagon_state):
        g = explore_flips(hexagon_state)
        dot = export(g, "dot")
        lines = dot.splitlines()
        assert sum(1 for l in lines if "[label=" in l and "--" not in l) == 14
        assert sum(1 for l in lines if " -- " in l) == 21

    def test_json_round_trip(self, hexagon_state):
        g = explore_flips(hexagon_state)
        back = json.loads(export(g, "json"))
        assert len(back["nodes"]) == g.node_count
        assert {(u, v): d for u, v, d in back["edges"]} == g.edges
        assert back["kind"] == g.kind and back["truncated"] == g.truncated

    @pytest.mark.parametrize("graph", EXPORTED_GRAPHS, ids=EXPORTED_IDS)
    def test_json_holds_the_graph_in_one_shape(self, graph):
        """Nodes are numbered 0..n-1 in order, each edge joins two of them once,
        smaller end first, and no label holds a quote DOT would end on."""
        g = graph()
        data = json.loads(export(g, "json"))
        assert sorted(data) == ["edges", "kind", "nodes", "schema", "truncated"]
        assert (data["schema"], data["kind"], data["truncated"]) == (1, g.kind, g.truncated)
        assert data["nodes"] == [{"id": i, "label": lbl} for i, lbl in enumerate(g.labels)]
        pairs = [(u, v) for u, v, _ in data["edges"]]
        assert all(0 <= u < v < g.node_count for u, v in pairs)
        assert pairs == sorted(set(pairs)) and {(u, v): d for u, v, d in data["edges"]} == g.edges
        labels = g.labels + [e for _, _, e in data["edges"]]
        assert all(isinstance(lbl, str) and '"' not in lbl for lbl in labels)

    @pytest.mark.parametrize("graph", EXPORTED_GRAPHS, ids=EXPORTED_IDS)
    def test_dot_has_a_line_per_node_and_edge(self, graph):
        g = graph()
        lines = export(g, "dot").splitlines()
        assert lines[0] == f"graph {g.kind} {{" and lines[-1] == "}"
        assert [l for l in lines if "[label=" in l and " -- " not in l] == [
            f'  n{i} [label="{lbl}"];' for i, lbl in enumerate(g.labels)]
        assert sum(1 for l in lines if " -- " in l) == g.edge_count
        assert ("  // truncated by the node cap" in lines) == g.capped

    def test_unknown_format(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=0)
        with pytest.raises(PolyError):
            export(g, "svg")
