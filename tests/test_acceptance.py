"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from lpsurf.build import double_cover, initial_quasi_triangulation
from lpsurf.explorer import explore_flips, explore_seeds, flip_correspondence, verify_laurent
from lpsurf.lp_core import (
    LPSeed,
    mutate,
    normalize,
    seed_key,
    seeds_equal,
    validate_seed,
)
from lpsurf.poly import VariableContext, parse_polynomial
from lpsurf.quiver import adjacency_quiver, double_mutate, has_bad_path, lp_seed_from_quiver
from lpsurf.surface import (
    MarkedSurface,
    canonical_code,
    detect_m2,
    flip,
    seed_from_quasi_triangulation,
)

from conftest import random_valid_seed
from oracles import degrees, dfs_count, polygon_flip_graph, vf2_isomorphic
from test_surface import M4_NAMES, m4_digon_state


def _ok(line: str) -> None:
    print(f"PASS {line}")


# regression values: derived once from two independent traversals, then frozen
EXPECTED_COUNTS = {
    "hexagon": (14, 21),
    "M2": (4, 4),
    "M3": (16, 24),
}


def test_criterion_1_normalization_golden():
    started = time.perf_counter()
    seed = LPSeed.initial(("a", "b", "c"), (), ("b+1", "a+c", "(b+1)^2 + a^2*b"))
    fa, ea = normalize(seed, 0)
    fb, eb = normalize(seed, 1)
    fc, ec = normalize(seed, 2)
    assert fa == seed.polys[0] and ea == (0, 0, 0)
    assert fb == seed.polys[1] and eb == (0, 0, 0)
    assert ec == (2, 0, 0)
    assert fc == seed.polys[2].times_monomial((-2, 0, 0))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(f"criterion 1: normalization golden (Fhat_c = F_c/a^2) in {elapsed:.3f}s")


def test_criterion_2_mutation_golden():
    """The worked mutation example; the middle entry is a*c + 1, the reading
    under which the target seed mutates back to this one (involution)."""
    started = time.perf_counter()
    seed = LPSeed.initial(("a", "b", "c"), (), ("b+1", "a*c+1", "(b+1)^2 + a^2*b"))
    m = mutate(seed, 0, new_name="d")
    assert m.names == ("d", "b", "c")
    assert m.poly_strings() == ("b + 1", "d + c", "d^2 + b")
    ctx = m.ctx
    d_value = m.values[0]
    assert d_value.num == parse_polynomial("b+1", ctx)
    assert d_value.den == parse_polynomial("a", ctx)
    expected = LPSeed.initial(("d", "b", "c"), (), ("b+1", "c+d", "d^2+b"))
    assert [p.terms for p in m.polys] == [p.terms for p in expected.polys]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(f"criterion 2: mutation golden ((d,b,c) | b+1, c+d, d^2+b) in {elapsed:.3f}s")


def test_criterion_3_case_a_golden():
    t = m4_digon_state()
    seed = seed_from_quasi_triangulation(t, names=M4_NAMES)
    m = mutate(seed, seed.slot_of("a"), new_name="a'")
    ctx = m.ctx
    want = {
        "a'": "c + d",
        "b": "(c+d)^2 + a^2*c*d",   # slot symbol a denotes a'
        "c": "d*y + a*b*w",
        "d": "c*z + a*b*x",
    }
    for name, text in want.items():
        got = m.polys[m.slot_of(name)]
        assert got == parse_polynomial(text, ctx).canonical_sign(), name
    fhat, exps = normalize(m, m.slot_of("b"))
    assert exps == (2, 0, 0, 0)
    shift = (-2,) + (0,) * (ctx.nvars - 1)
    assert fhat == m.polys[m.slot_of("b")].times_monomial(shift)
    _ok("criterion 3: arc-to-curve golden (F_b' and Fhat_b' = F_b'/a'^2 as listed)")


def test_criterion_4_pocket_mutation_goldens():
    left = LPSeed.initial(
        ("a", "b", "c", "d"), ("w", "x", "y", "z"),
        ("c+d", "(c+d)^2 + a^2*c*d", "d*y + a*b*w", "c*z + a*b*x"),
    )
    mb = mutate(left, left.slot_of("b"), new_name="b'")
    ctx = mb.ctx
    assert mb.polys[mb.slot_of("c")] == parse_polynomial("a*b*y + d*w", ctx).canonical_sign()
    assert mb.polys[mb.slot_of("d")] == parse_polynomial("a*b*z + c*x", ctx).canonical_sign()
    assert mb.polys[mb.slot_of("a")] == left.polys[0]
    assert mb.polys[mb.slot_of("b'")] == left.polys[1]
    mc = mutate(left, left.slot_of("c"), new_name="c'")
    ctx = mc.ctx
    assert mc.polys[mc.slot_of("a")] == parse_polynomial("y + c", ctx).canonical_sign()
    assert mc.polys[mc.slot_of("b")] == parse_polynomial(
        "(y+c)^2 + a^2*y*c", ctx
    ).canonical_sign()
    assert mc.polys[mc.slot_of("d")] == parse_polynomial("w*z + x*c", ctx).canonical_sign()
    _ok("criterion 4: pocket-state goldens (mu_b and mu_c exchange tables match)")


def _acceptance_graphs():
    surfaces = {
        "hexagon": MarkedSurface(0, 0, (6,)),
        "M2": MarkedSurface(0, 1, (2,)),
        "M3": MarkedSurface(0, 1, (3,)),
    }
    out = {}
    for name, s in surfaces.items():
        t = initial_quasi_triangulation(s)
        seed = seed_from_quasi_triangulation(t)
        out[name] = (t, seed, explore_flips(t), explore_seeds(seed))
    return out


def test_criterion_5_exchange_graph_isomorphism():
    started = time.perf_counter()
    graphs = _acceptance_graphs()

    # hexagon against the independent polygon-diagonal oracle (Catalan count)
    nodes, edges = polygon_flip_graph(6)
    assert (nodes, edges) == (14, 21)
    t, seed, gf, gs = graphs["hexagon"]
    assert (gf.node_count, gf.edge_count) == (nodes, edges)
    assert (gs.node_count, gs.edge_count) == (nodes, edges)

    for name, (t, seed, gf, gs) in graphs.items():
        want = EXPECTED_COUNTS[name]
        assert (gf.node_count, gf.edge_count) == want, name
        assert (gs.node_count, gs.edge_count) == want, name
        assert flip_correspondence(gs, gf, t) is not None, name
        assert vf2_isomorphic(gs, gf)[0], name

        # independent second traversal (depth-first, separate code path)
        def nbrs_flip(state):
            for q in state.quasi_arcs:
                t2 = flip(state, q)
                yield canonical_code(t2), t2

        def nbrs_seed(s):
            for i in range(s.n):
                m = mutate(s, i)
                yield seed_key(m), m

        assert dfs_count(canonical_code(t), t, nbrs_flip) == want
        assert dfs_count(seed_key(seed), seed, nbrs_seed) == want

        rk = t.surface.rank
        assert all(d == rk for d in degrees(gf))
        assert all(d == rk for d in degrees(gs))

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(
        "criterion 5: mutation at slot(q) is the flip of q, an exchange/flip graph isomorphism "
        f"(hexagon 14/21, M2 4/4, M3 16/24; VF2 and cross-oracle agreed) in {elapsed:.1f}s"
    )


def test_criterion_6_double_mutation_equivalence():
    graphs = _acceptance_graphs()
    mismatches = 0
    checked = 0
    for name, (t0, _, gf, _) in graphs.items():
        for state in gf.payloads:
            if not state.is_pure_triangulation():
                continue
            lt = double_cover(state)
            q = adjacency_quiver(lt)
            names = {e: f"x{e}" for e in lt.mutable_edges}
            ctx = VariableContext(
                tuple(names[e] for e in lt.mutable_edges),
                tuple(dict(state.boundary)[e] for e in lt.frozen_edges),
            )
            seed = lp_seed_from_quiver(q, ctx)
            # required hypothesis: normalization is vacuous on these seeds
            for j in range(seed.n):
                _, exps = normalize(seed, j)
                assert not any(exps)
            for pair in q.mutable_pairs():
                if has_bad_path(q, pair):
                    continue
                lp = mutate(seed, pair)
                q2 = double_mutate(q, pair)
                seed2 = lp_seed_from_quiver(q2, ctx)
                # the seed is initial, so its new value is F_pair * x_pair^-1
                values = list(seed2.values)
                values[pair] = seed.polys[pair].times_monomial(
                    [-1 if k == pair else 0 for k in range(ctx.nvars)]
                )
                seed2 = seed2.with_values(values)
                checked += 1
                if not seeds_equal(lp, seed2):
                    mismatches += 1
    assert checked > 0
    assert mismatches == 0
    _ok(
        f"criterion 6: LP mutation = double quiver mutation on {checked} "
        "(node, direction) pairs, zero mismatches"
    )


def test_criterion_7_laurent_phenomenon():
    started = time.perf_counter()
    rng = random.Random(20260810)
    m2_seed = seed_from_quasi_triangulation(
        initial_quasi_triangulation(MarkedSurface(0, 1, (2,)))
    )
    ann_seed = seed_from_quasi_triangulation(
        initial_quasi_triangulation(MarkedSurface(0, 0, (2, 2)))
    )
    for seed in (m2_seed, ann_seed):
        seqs = [
            [rng.randrange(seed.n) for _ in range(rng.randint(1, 8))]
            for _ in range(200)
        ]
        report = verify_laurent(seed, seqs)
        assert report.sequences_checked == 200
        assert report.ok, report.violations[:3]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _ok(
        "criterion 7: Laurent phenomenon on 200+200 random sequences "
        f"(M2 and annulus(2,2)) in {elapsed:.1f}s"
    )


def test_criterion_8_involution_and_validity():
    rng = random.Random(881)
    violations = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        seed = random_valid_seed(rng, n=n, n_frozen=rng.randint(0, 2), max_degree=3)
        i = rng.randrange(n)
        m = mutate(seed, i)
        if validate_seed(m):
            violations += 1
        if not seeds_equal(mutate(m, i), seed):
            violations += 1
    assert violations == 0
    _ok("criterion 8: involution and validity on 100 randomized seeds, zero violations")


def test_criterion_9_exceptional_surface_regression():
    # 6-gon without boundary variables: the {(a,1+b),(b,a+c),(c,1+b)} seed
    hexagon_plain = MarkedSurface(0, 0, (6,), boundary_variables=False)
    t = initial_quasi_triangulation(hexagon_plain)
    seed = seed_from_quasi_triangulation(
        t, names=dict(zip(t.quasi_arcs, ("a", "b", "c")))
    )
    expected = LPSeed.initial(("a", "b", "c"), (), ("1+b", "a+c", "1+b"))
    assert sorted(p.terms for p in seed.polys) == sorted(
        p.terms for p in expected.polys
    )
    polys = list(seed.polys)
    assert any(
        polys[i] == polys[j] for i in range(3) for j in range(i + 1, 3)
    ), "expected duplicate exchange polynomials"
    saw_normalization = False
    for j in range(3):
        fhat, exps = normalize(seed, j)
        if any(exps):
            saw_normalization = True
            assert not fhat.is_ordinary
    assert saw_normalization, "expected Fhat != F on the no-boundary 6-gon"

    # with boundary variables on, no enumerated seed has duplicates
    for s, depth in [
        (MarkedSurface(0, 0, (6,)), None),
        (MarkedSurface(0, 1, (2,)), None),
        (MarkedSurface(0, 1, (3,)), None),
        (MarkedSurface(0, 1, (4,)), None),
        (MarkedSurface(0, 0, (2, 2)), 3),
    ]:
        t0 = initial_quasi_triangulation(s)
        seed0 = seed_from_quasi_triangulation(t0)
        g = explore_seeds(seed0, depth=depth)
        for node in g.payloads:
            terms = [p.terms for p in node.polys]
            assert len(set(terms)) == len(terms), (s, node)
    _ok(
        "criterion 9: no-boundary 6-gon shows duplicates and Fhat != F; "
        "with boundary variables every enumerated seed has distinct polynomials"
    )


def test_criterion_10_breakage_equivalence():
    mismatches = 0
    checked = 0
    for s in (MarkedSurface(0, 1, (2,)), MarkedSurface(0, 1, (3,))):
        g = explore_flips(initial_quasi_triangulation(s))
        for state in g.payloads:
            if not state.is_pure_triangulation():
                continue
            lt = double_cover(state)
            q = adjacency_quiver(lt)
            flagged = set(detect_m2(state))
            by_quiver = {
                lt.mutable_edges[p]
                for p in q.mutable_pairs()
                if has_bad_path(q, p)
            }
            checked += 1
            if flagged != by_quiver:
                mismatches += 1
    assert checked >= 10
    assert mismatches == 0
    _ok(
        f"criterion 10: detect_m2 matches bad-path detection on {checked} "
        "M2/M3 triangulations, zero mismatches"
    )
