import json
import random

import pytest

from lpsurf.explorer import (
    ExchangeGraph,
    explore_flips,
    explore_seeds,
    export,
    graph_from_json,
    graphs_isomorphic,
    verify_laurent,
)
from lpsurf.lp_core import LaurentViolation, LPSeed, mutate, seed_key
from lpsurf.poly import PolyError, parse_polynomial
from lpsurf.surface import (
    canonical_code,
    flip,
    initial_quasi_triangulation,
    seed_from_quasi_triangulation,
)

from oracles import dfs_count, polygon_flip_graph


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
        assert all(d == 3 for d in g.degrees())

    def test_matches_independent_dfs(self, hexagon_seed):
        def neighbors(s):
            for i in range(s.n):
                t = mutate(s, i)
                yield seed_key(t), t

        nodes, edges = dfs_count(seed_key(hexagon_seed), hexagon_seed, neighbors)
        g = explore_seeds(hexagon_seed)
        assert (nodes, edges) == (g.node_count, g.edge_count)

    def test_node_cap_truncates(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, max_nodes=5)
        assert g.truncated and g.node_count <= 5

    def test_node_cap_env_override(self, hexagon_seed, monkeypatch):
        monkeypatch.setenv("LP_SURFACE_SEED_CAP", "6")
        g = explore_seeds(hexagon_seed)
        assert g.truncated and g.node_count <= 6

    def test_depth_one_ball(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=1)
        assert g.node_count == 1 + hexagon_seed.n


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
        assert g.node_count == 1 + len(t.quasi_arcs())

    def test_annulus_depth_balls_deterministic(self, annulus22):
        t = initial_quasi_triangulation(annulus22)
        g1 = explore_flips(t, depth=4)
        g2 = explore_flips(t, depth=4)
        assert g1.labels == g2.labels and g1.edges == g2.edges

    def test_matches_independent_dfs(self, mobius3):
        t0 = initial_quasi_triangulation(mobius3)

        def neighbors(t):
            for q in t.quasi_arcs():
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
        ok, _ = graphs_isomorphic(gs, gf)
        assert ok


class TestIsomorphism:
    def test_self_isomorphic(self, hexagon_state):
        g = explore_flips(hexagon_state)
        ok, witness = graphs_isomorphic(g, g)
        assert ok and witness is not None and len(witness) == g.node_count

    def test_path_vs_cycle(self):
        path = ExchangeGraph("seeds", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0"}, False)
        cycle = ExchangeGraph(
            "seeds", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0", (0, 2): "1"}, False
        )
        ok, witness = graphs_isomorphic(path, cycle)
        assert not ok and witness is None

    def test_seed_vs_flip_graphs(self, hexagon_state, hexagon_seed):
        gs = explore_seeds(hexagon_seed)
        gf = explore_flips(hexagon_state)
        ok, witness = graphs_isomorphic(gs, gf)
        assert ok
        # witness maps nodes bijectively preserving adjacency
        mapped = {(min(witness[u], witness[v]), max(witness[u], witness[v]))
                  for u, v in gs.edges}
        assert mapped == set(gf.edges)

    def test_truncation_mismatch(self, hexagon_seed):
        g1 = explore_seeds(hexagon_seed)
        g2 = explore_seeds(hexagon_seed, depth=1)
        with pytest.raises(PolyError):
            graphs_isomorphic(g1, g2)


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
        back = graph_from_json(export(g, "json"))
        assert back.node_count == g.node_count
        assert back.edges == g.edges
        assert back.kind == g.kind and back.truncated == g.truncated

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: {**d, "schema": 2},
        lambda d: {k: v for k, v in d.items() if k != "edges"},
        lambda d: {**d, "truncated": "no"},
        lambda d: {**d, "edges": [[str(u), str(v), e] for u, v, e in d["edges"]]},
        lambda d: {**d, "nodes": [{"id": n["id"]} for n in d["nodes"]]},
    ], ids=["list", "schema", "no-edges", "truncated-string", "edge-strings", "no-labels"])
    def test_json_rejects_malformed(self, hexagon_seed, edit):
        data = json.loads(export(explore_seeds(hexagon_seed, depth=1), "json"))
        with pytest.raises(PolyError):
            graph_from_json(json.dumps(edit(data)))

    @pytest.mark.parametrize("nodes, edges", [
        ([0, 2], [[0, 1, "0"]]),
        ([0, 0], [[0, 1, "0"]]),
        ([1, 2], [[0, 1, "0"]]),
        ([-1, 0], [[0, 1, "0"]]),
        ([0], [[0, 5, "0"]]),
        ([0, 1], [[-1, 1, "0"]]),
    ], ids=["id-gap", "duplicate-id", "not-from-zero", "negative-id", "dangling-edge",
            "negative-endpoint"])
    def test_json_rejects_bad_node_ids(self, nodes, edges):
        data = {"schema": 1, "kind": "seeds", "truncated": False,
                "nodes": [{"id": i, "label": "a"} for i in nodes], "edges": edges}
        with pytest.raises(PolyError) as info:
            graph_from_json(json.dumps(data))
        assert "\n" not in str(info.value)

    def test_json_rejects_unparsable_text(self, hexagon_seed):
        with pytest.raises(PolyError):
            graph_from_json(export(explore_seeds(hexagon_seed, depth=1), "json")[:-3])

    def test_unknown_format(self, hexagon_seed):
        g = explore_seeds(hexagon_seed, depth=0)
        with pytest.raises(PolyError):
            export(g, "svg")
