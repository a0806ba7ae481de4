import gc
import json
import random
import tracemalloc

import pytest

import lpsurf.explorer
import lpsurf.lp_core

from lpsurf.build import initial_quasi_triangulation
from lpsurf.explorer import (
    ExchangeGraph,
    explore_flips,
    explore_seeds,
    export,
    flip_correspondence,
    graph_from_json,
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

from conftest import random_frozen_variable_seed, random_valid_seed
from oracles import degrees, dfs_count, polygon_flip_graph, seed_graph_json, vf2_isomorphic


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
        rng = random.Random(5)
        for k in range(100):
            n = rng.randint(2, 4)
            if k % 3 == 0:
                seed = random_frozen_variable_seed(rng, n=n, n_frozen=rng.randint(1, 2))
            else:
                seed = random_valid_seed(rng, n=n, n_frozen=rng.randint(0, 2))
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
        assert flip_correspondence(gs, gf, t) is not None
        assert vf2_isomorphic(gs, gf)[0]


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
        depths = [0]
        for u, _ in g.parents[1:]:
            depths.append(depths[u] + 1)
        keeping = [v for v, t in enumerate(g.payloads) if cached_values(t)]
        assert keeping == [v for v, d in enumerate(depths) if d == 2] and len(keeping) == 14
        fresh = [QuasiTriangulation(t.surface, t.regions, t.boundary, t.next_id)
                 for t in g.payloads]
        assert g.labels == [",".join(map(str, t.quasi_arcs)) for t in fresh]

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


def _graphs(surface, depth=None):
    t = initial_quasi_triangulation(MarkedSurface(*surface))
    seed = seed_from_quasi_triangulation(t)
    return t, explore_seeds(seed, depth=depth), explore_flips(t, depth=depth)


class TestFlipCorrespondence:
    def test_root_and_first_flips(self, hexagon_state, hexagon_seed):
        """Mutating slot i from the root lands where flipping quasi-arc i does."""
        gs = explore_seeds(hexagon_seed)
        gf = explore_flips(hexagon_state)
        witness = flip_correspondence(gs, gf, hexagon_state)
        assert witness[0] == 0
        for v, parent in enumerate(gs.parents):
            if parent is not None and parent[0] == 0:
                assert gf.parents[witness[v]] == (0, hexagon_state.quasi_arcs[parent[1]])

    def test_path_vs_cycle(self, hexagon_state):
        path = ExchangeGraph("seeds", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0"}, False)
        cycle = ExchangeGraph(
            "flips", ["a", "b", "c"], {(0, 1): "0", (1, 2): "0", (0, 2): "1"}, False
        )
        assert flip_correspondence(path, cycle, hexagon_state) is None
        assert vf2_isomorphic(path, cycle) == (False, None)

    def test_seed_vs_flip_graphs(self, hexagon_state, hexagon_seed):
        gs = explore_seeds(hexagon_seed)
        gf = explore_flips(hexagon_state)
        witness = flip_correspondence(gs, gf, hexagon_state)
        # witness maps nodes bijectively preserving adjacency
        assert sorted(witness) == list(range(gf.node_count))
        mapped = {(min(witness[u], witness[v]), max(witness[u], witness[v]))
                  for u, v in gs.edges}
        assert mapped == set(gf.edges)
        assert vf2_isomorphic(gs, gf)[0]

    @pytest.mark.parametrize("surface, depth, iso", [
        ((0, 0, (6,)), None, True), ((0, 0, (6,), False), None, False),
        ((0, 0, (7,)), None, True), ((0, 0, (8,)), None, True), ((0, 0, (8,)), 2, True),
        ((0, 1, (2,)), None, True), ((0, 1, (3,)), None, True), ((0, 1, (4,)), None, True),
        ((0, 1, (5,)), 3, True), ((0, 0, (2, 2)), 2, False), ((0, 0, (2, 2)), 3, False),
        ((0, 0, (1, 2)), 2, False), ((0, 0, (3, 1)), 3, False), ((0, 2, (2,)), 2, True),
        ((0, 2, (2,)), 3, False),
    ], ids=["hexagon", "hexagon-no-boundary-variables", "7-gon", "8-gon", "8-gon-depth2",
            "M2", "M3", "M4", "M5-depth3", "annulus22-depth2", "annulus22-depth3",
            "annulus12-depth2", "annulus31-depth3", "klein2-depth2", "klein2-depth3"])
    def test_verdict_matches_vf2(self, surface, depth, iso):
        t, gs, gf = _graphs(surface, depth)
        assert (flip_correspondence(gs, gf, t) is not None) == iso
        assert vf2_isomorphic(gs, gf)[0] == iso

    @pytest.mark.parametrize("surface, depth", [
        ((0, 0, (1, 2)), 3), ((1, 0, (1,)), 2),
    ], ids=["annulus12-depth3", "torus-depth2"])
    def test_truncated_against_complete_raises(self, surface, depth):
        """The flip graph, taken up to the mapping class group, is finite; the seed ball is not."""
        t, gs, gf = _graphs(surface, depth)
        assert gs.truncated != gf.truncated
        with pytest.raises(PolyError):
            flip_correspondence(gs, gf, t)

    def test_mutant_keys_break_the_map_not_the_graph(self, hexagon_state, hexagon_seed):
        """Swapping two flip keys keeps some isomorphism, but not mutation = flip."""
        gs = explore_seeds(hexagon_seed)
        gf = explore_flips(hexagon_state)
        gf.keys[0], gf.keys[1] = gf.keys[1], gf.keys[0]
        assert vf2_isomorphic(gs, gf)[0]
        assert flip_correspondence(gs, gf, hexagon_state) is None


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
        assert {key[0] for key in memo} == {"power", "value", "step"}

    def test_repeated_chain_hits_the_whole_seed_level(self, monkeypatch, mobius2):
        memos, exchanges = self.spy(monkeypatch)
        seed = seed_from_quasi_triangulation(initial_quasi_triangulation(mobius2))
        chain = [0, 1, 0, 1]
        once = verify_laurent(seed, [chain])
        computed = exchanges[0]
        twice = verify_laurent(seed, [chain, chain])
        assert exchanges[0] == 2 * computed and twice.variables_checked == 2 * once.variables_checked
        assert {key[0] for key in memos[-1]} >= {"seed"}


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
        ([0, 1], [[0, 1, "0"], [1, 0, "0"]]),
        ([0, 1], [[0, 1, "0"], [0, 1, "1"]]),
    ], ids=["id-gap", "duplicate-id", "not-from-zero", "negative-id", "dangling-edge",
            "negative-endpoint", "reversed-edge", "repeated-edge"])
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
