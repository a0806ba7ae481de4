import hashlib
import json
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from lpsurf import surface as surface_module
from lpsurf.build import (
    cover_components,
    double_cover,
    initial_quasi_triangulation,
    surface_stats,
    triangulation_from_json,
    triangulation_to_json,
    verify_topology,
)
from lpsurf.explorer import explore_flips

from lpsurf.lp_core import mutate, seed_to_json
from lpsurf.poly import PolyError, VariableContext, parse_polynomial
from lpsurf.quiver import adjacency_quiver, double_mutate, exchange_polys, has_bad_path
from lpsurf.surface import (
    MOB1,
    POCKET,
    TRI,
    MarkedSurface,
    QuasiTriangulation,
    SurfaceError,
    canonical_code,
    canonical_form,
    check_state,
    detect_m2,
    flip,
    new_quasi_arc,
    rank,
    seed_from_quasi_triangulation,
    surface_from_json,
    surface_to_json,
)

from oracles import canonical_code_oracle

SURFACE_GRID = [
    MarkedSurface(0, 0, (4,)),
    MarkedSurface(0, 0, (5,)),
    MarkedSurface(0, 0, (6,)),
    MarkedSurface(0, 0, (1, 1)),
    MarkedSurface(0, 0, (2, 2)),
    MarkedSurface(0, 0, (1, 3)),
    MarkedSurface(0, 1, (1,)),
    MarkedSurface(0, 1, (2,)),
    MarkedSurface(0, 1, (3,)),
    MarkedSurface(0, 1, (4,)),
    MarkedSurface(0, 1, (2, 2)),
    MarkedSurface(0, 2, (2,)),
    MarkedSurface(1, 0, (1,)),
    MarkedSurface(1, 0, (2,)),
    MarkedSurface(2, 0, (1,)),
    MarkedSurface(1, 1, (2,)),
]


def pocket_state_02():
    """A pocket state of (0,2,(2,)): it holds a one-sided curve."""
    t = initial_quasi_triangulation(MarkedSurface(0, 2, (2,)))
    return flip(t, detect_m2(t)[0])


def m2_and_torus():
    """M_2 beside a one-holed torus, as one state of rank 2 + 5."""
    a = initial_quasi_triangulation(MarkedSurface(0, 1, (2,)), labels=[("a1", "a2")])
    b = initial_quasi_triangulation(MarkedSurface(1, 0, (2,)), labels=[("c1", "c2")])
    k = a.next_id
    regions = a.regions + tuple((TRI, tuple((e + k, s) for e, s in r[1])) for r in b.regions)
    boundary = a.boundary + tuple((e + k, lbl) for e, lbl in b.boundary)
    return QuasiTriangulation(a.surface, regions, boundary, k + b.next_id)


def _with_first_side_sign(data, sign):
    """Saved state ``data`` with the sign of its first region's first side replaced."""
    (kind, sides), *rest = data["regions"]
    return {**data, "regions": [[kind, [[sides[0][0], sign], *sides[1:]]], *rest]}


def m4_digon_state():
    """M_4 triangulation with the cross-cap inside an arc digon.

    Two block triangles share the arcs a and b around the cross-cap; the
    enclosing arcs c and d separate the digon from the boundary square.
    """
    m4 = MarkedSurface(0, 1, (4,))
    regions = (
        (TRI, ((4, 1), (6, 1), (5, 1))),
        (TRI, ((4, 1), (7, 1), (5, -1))),
        (TRI, ((6, -1), (0, 1), (2, 1))),
        (TRI, ((7, -1), (1, 1), (3, 1))),
    )
    boundary = ((0, "w"), (1, "x"), (2, "y"), (3, "z"))
    return QuasiTriangulation(m4, regions, boundary, 8)


M4_NAMES = {4: "a", 5: "b", 6: "c", 7: "d"}


def golden(surface, depth, digest, seed_digest, labels=None):
    """One golden case, with its test id named by the surface, depth and labels."""
    return pytest.param(surface, depth, digest, seed_digest, labels,
                        id=f"{surface}-{depth}-{labels}")


# sha256 of the sorted code reprs over every state of each flip graph, with
# and without boundary variables, computed as the walk from the
# least-labelled boundary segment; and sha256 of each state's seed JSON in
# BFS order, or of the error its extraction raises, computed while flips and
# seed extraction each ran their own case analysis of a quasi-arc.  The last
# case orders labels as strings (b10 before b2).
CODE_GOLDENS = [
    golden(MarkedSurface(0, 0, (6,)), None,
           "c4ffdda14acb6d9d277a270c85a0843ef5b5bdc8d1a9d4c5787de82e49d2e51f",
           "bed4be9b05e919c1f5d4259cd8149cd90733849d78ee9da4c4fcf0376efffaf2"),
    golden(MarkedSurface(0, 0, (7,)), None,
           "645f0323b48fd27970ec9bfd6203968ee24463f6ce7bee46028085b4eb091d69",
           "79586002696ddf05e57000cf5c82e85b7c3c40c64bfa6ddc6235823930966129"),
    golden(MarkedSurface(0, 1, (1,)), None,
           "45d07d306e4d0eb3c8c488f104e1d5f8f15cd55f48d24901415ddda91498b1f0",
           "1bf057b283b6af3c563ccfca2d43eeff56dda2ad5fd5069a18f2a03ec85ea9fb"),
    golden(MarkedSurface(0, 1, (2,)), None,
           "9e2a6c0b543cfd1f3bf48ee046135b30b314147c146f3c3d9ae46e8c1e08d2b6",
           "90ef62317641c274686382295e9bbcddf9c4289ccda5566a744c3688d1addf56"),
    golden(MarkedSurface(0, 1, (3,)), None,
           "6e1dd64600a9139ac5ad7ad5d0bd073b2a0bd9012cc30b86f5a5f7968374c91a",
           "df706320ce884ed7ce8c2ddcce33f3bb77c461ec1193ad68d19c8c966754b199"),
    golden(MarkedSurface(0, 1, (4,)), None,
           "d5b78e97c0a48173cafeeda7d7ff805cc13f7f1f6dec536ba259a2f32e57f519",
           "f6a4fd8a9bdcc4f08546fef704e7514b2082420cf609eb90ba13b54070fdad96"),
    golden(MarkedSurface(0, 0, (2, 2)), 4,
           "a869a3508fab4b0ae32055ea19966c5da8b9fb280a3840718c25c45e76386fce",
           "a5fe5b621beaed88434aac092bb3f6940119d512670e38c56efad0a5c64ee4a1"),
    golden(MarkedSurface(0, 0, (1, 2)), 3,
           "13ec035e6dca48e66720f8a96203e302cefc46a6d0272141b9e2acf3df97186a",
           "c08dec7e111658496aba893a690c7d9eb5fa573cf8a06cf5bec0d9cfd3762868"),
    golden(MarkedSurface(0, 1, (2, 2)), 3,
           "bd0535c419ac1f60d1e24fcc38405e453f8b103a5e072fd8ad9d5a984f608438",
           "244edad2a065bf090a244f35b7b704b0f5d2dafba360f03e1bcd89a089e83529"),
    golden(MarkedSurface(0, 2, (2,)), 3,
           "b2fd0ab074b2a770611c0cdbe603010204698f163b583fc27416fec499eea5f7",
           "7fc1a6681c9fe1a8f631be574c94c8a137b7b367247592411df8e7b63e692c23"),
    # b10 and b11 sort between b1 and b2
    golden(MarkedSurface(0, 0, (11,)), 3,
           "c1097d4e1f61739220eb767757b6ebd298b8dc3d6169c0b32e9557ade0f26c28",
           "7adbfc9e828ce804162ff2f8ebaa7a515e6ec1cac1ed87ededff32ac924d4125"),
]


def seed_text(t):
    """The state's seed as JSON text, or the error its extraction raises."""
    try:
        return json.dumps(seed_to_json(seed_from_quasi_triangulation(t)), sort_keys=True)
    except PolyError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSurfaceValidity:
    def test_rank_values(self):
        assert rank(MarkedSurface(0, 0, (6,))) == 3
        assert rank(MarkedSurface(0, 0, (2, 2))) == 4
        assert rank(MarkedSurface(0, 1, (2,))) == 2

    def test_invalid_surfaces_rejected(self):
        for bad in [
            MarkedSurface(0, 0, ()),          # no boundary
            MarkedSurface(0, 0, (0,)),        # unmarked component
            MarkedSurface(0, 0, (1,)),        # monogon
            MarkedSurface(0, 0, (2,)),        # digon
            MarkedSurface(0, 0, (3,)),        # triangle
            MarkedSurface(-1, 0, (4,)),
        ]:
            with pytest.raises(SurfaceError):
                bad.check()

    def test_punctures_rejected_in_json(self):
        with pytest.raises(SurfaceError):
            surface_from_json({"schema": 1, "boundary": [4], "punctures": 1})

    def test_json_round_trip(self):
        s = MarkedSurface(1, 2, (2, 3), boundary_variables=False)
        assert surface_from_json(surface_to_json(s)) == s


class TestInitialTriangulation:
    @pytest.mark.parametrize("surface", SURFACE_GRID, ids=str)
    def test_construction_is_sound(self, surface):
        t = initial_quasi_triangulation(surface)
        check_state(t)
        verify_topology(t)
        assert len(t.quasi_arcs) == surface.rank
        assert t.is_pure_triangulation()

    def test_deterministic(self, mobius3):
        a = initial_quasi_triangulation(mobius3)
        b = initial_quasi_triangulation(mobius3)
        assert a == b

    def test_m2_block_structure(self, mobius2):
        """The M_2 triangulation is the two-triangle cross-cap block."""
        t = initial_quasi_triangulation(mobius2, labels=[("A", "B")])
        s = seed_from_quasi_triangulation(t, names=dict(zip(t.quasi_arcs, ("e", "f"))))
        assert sorted(s.poly_strings()) == ["A + B", "e^2 + A*B"]

    def test_disk_fan(self):
        t = initial_quasi_triangulation(MarkedSurface(0, 0, (4,)))
        assert len(t.quasi_arcs) == 1 and len(t.regions) == 2

    def test_triangulation_json_round_trip(self, mobius3):
        t = initial_quasi_triangulation(mobius3)
        back = triangulation_from_json(triangulation_to_json(t))
        assert back == t and canonical_code(back) == canonical_code(t)

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: {**d, "schema": 2},
        lambda d: {**d, "surface": {**d["surface"], "schema": None}},
        lambda d: {**d, "next_id": str(d["next_id"])},
        lambda d: {**d, "boundary": [[str(e), lbl] for e, lbl in d["boundary"]]},
        lambda d: {**d, "regions": [[r[0]] + [str(x) for x in r[1:]] for r in d["regions"]]},
        lambda d: {**d, "next_id": d["next_id"] - 1},
        lambda d: _with_first_side_sign(d, 5),
        lambda d: _with_first_side_sign(d, 0),
    ], ids=["list", "schema", "surface-schema", "next-id", "boundary", "region-entries",
            "next-id-reused", "side-sign-5", "side-sign-0"])
    def test_triangulation_json_rejects_malformed(self, mobius3, edit):
        data = triangulation_to_json(initial_quasi_triangulation(mobius3))
        with pytest.raises(SurfaceError):
            triangulation_from_json(edit(data))

    @pytest.mark.parametrize("saved,named,message", [
        (MarkedSurface(0, 1, (4,)), MarkedSurface(0, 0, (2, 2)),
         r"^boundary structure \[4\] != expected \[2, 2\]$"),
        (MarkedSurface(1, 0, (2,)), MarkedSurface(0, 2, (2,)),
         "^double cover does not match orientability$"),
    ], ids=str)
    def test_triangulation_json_rejects_another_surface(self, saved, named, message):
        """A state of one surface saved under another of the same rank passes
        check_state; the loader's topology check rejects it."""
        t = initial_quasi_triangulation(saved)
        check_state(QuasiTriangulation(named, t.regions, t.boundary, t.next_id))
        data = {**triangulation_to_json(t), "surface": surface_to_json(named)}
        with pytest.raises(SurfaceError, match=message):
            triangulation_from_json(data)

    @pytest.mark.parametrize("state,named,message", [
        (pocket_state_02, MarkedSurface(1, 0, (2,)), "^one-sided curve on an orientable surface$"),
        (m2_and_torus, MarkedSurface(0, 1, (2, 2)), "^state has 2 connected pieces, expected 1$"),
    ], ids=["pocket-as-torus", "m2-and-torus"])
    def test_triangulation_json_rejects_a_state_of_another_shape(self, state, named, message):
        """Each state has the named surface's rank, Euler characteristic and
        boundary, and passes check_state, yet is not a state of that surface."""
        t = state()
        check_state(QuasiTriangulation(named, t.regions, t.boundary, t.next_id))
        data = {**triangulation_to_json(t), "surface": surface_to_json(named)}
        with pytest.raises(SurfaceError, match=message):
            triangulation_from_json(data)

    @pytest.mark.parametrize("surface,depth", [
        (MarkedSurface(0, 1, (3,)), None), (MarkedSurface(0, 1, (4,)), None),
        (MarkedSurface(0, 2, (2,)), 3), (MarkedSurface(0, 0, (2, 2)), 3),
        (MarkedSurface(1, 0, (2,)), 3),
    ], ids=str)
    def test_every_flip_state_loads_back(self, surface, depth):
        states = explore_flips(initial_quasi_triangulation(surface), depth).payloads
        for t in states:
            assert triangulation_from_json(triangulation_to_json(t)) == t
        if not surface.orientable:
            assert any(not t.is_pure_triangulation() for t in states)

    def test_mob1_state_loads_back(self):
        t = initial_quasi_triangulation(MarkedSurface(0, 1, (1,)))
        t2 = flip(t, t.quasi_arcs[0])
        assert [r[0] for r in t2.regions] == [MOB1]
        assert triangulation_from_json(triangulation_to_json(t2)) == t2

    def test_stray_boundary_edge_is_rejected(self, hexagon):
        """A boundary edge on no region would give the hexagon a seventh frozen b7."""
        t = initial_quasi_triangulation(hexagon)
        data = json.loads(json.dumps(triangulation_to_json(t)))
        data["boundary"].append([99, "b7"])
        with pytest.raises(SurfaceError, match="^boundary edge 99 lies on no region$"):
            triangulation_from_json(data)
        with pytest.raises(SurfaceError, match="^boundary edge 99 lies on no region$"):
            check_state(QuasiTriangulation(t.surface, t.regions, t.boundary + ((99, "b7"),),
                                           t.next_id))


class TestFlips:
    @pytest.mark.parametrize(
        "surface",
        [MarkedSurface(0, 0, (6,)), MarkedSurface(0, 1, (2,)),
         MarkedSurface(0, 1, (3,)), MarkedSurface(0, 0, (2, 2)),
         MarkedSurface(1, 0, (2,)), MarkedSurface(0, 2, (2,))],
        ids=str,
    )
    def test_flip_involution_everywhere(self, surface):
        t = initial_quasi_triangulation(surface)
        for q in t.quasi_arcs:
            t2 = flip(t, q)
            check_state(t2)
            q2 = new_quasi_arc(t, t2)
            assert canonical_code(flip(t2, q2)) == canonical_code(t)

    def test_flip_unknown_arc(self, hexagon):
        t = initial_quasi_triangulation(hexagon)
        with pytest.raises(SurfaceError):
            flip(t, 999)

    def test_rank_invariant_along_random_walk(self, mobius4):
        rng = random.Random(11)
        t = initial_quasi_triangulation(mobius4)
        n = len(t.quasi_arcs)
        for _ in range(80):
            t = flip(t, rng.choice(t.quasi_arcs))
            check_state(t)
            assert len(t.quasi_arcs) == n

    def test_square_diagonal_flip(self):
        """Case (1) on the square inside the hexagon fan."""
        t = initial_quasi_triangulation(MarkedSurface(0, 0, (4,)))
        (d,) = t.quasi_arcs
        t2 = flip(t, d)
        assert t2.is_pure_triangulation()
        assert canonical_code(t2) != canonical_code(t)

    def test_case2_produces_pocket(self, mobius2):
        t = initial_quasi_triangulation(mobius2)
        bad = detect_m2(t)
        assert len(bad) == 1
        t2 = flip(t, bad[0])
        assert not t2.is_pure_triangulation()
        assert len(t2.pockets) == 1

    def test_case3_swaps_pocket_attachment(self, mobius2):
        t = initial_quasi_triangulation(mobius2)
        t2 = flip(t, detect_m2(t)[0])
        (_, portal, curve, crossing) = t2.pockets[0]
        t3 = flip(t2, crossing)
        assert len(t3.pockets) == 1
        assert canonical_code(t3) != canonical_code(t2)
        back = flip(t3, t3.pockets[0][3])
        assert canonical_code(back) == canonical_code(t2)

    def test_pocket_without_mouth_is_rejected(self, mobius2):
        """A pocket whose portal is no side of any triangle has no mouth to flip."""
        t = initial_quasi_triangulation(mobius2)
        t2 = flip(t, detect_m2(t)[0])
        (_, _, curve, crossing) = t2.pockets[0]
        lost = t2.next_id
        regions = tuple((POCKET, lost, r[2], r[3]) if r[0] == POCKET else r for r in t2.regions)
        bad = QuasiTriangulation(t2.surface, regions, t2.boundary, lost + 1)
        for call in (check_state, seed_from_quasi_triangulation,
                     lambda s: flip(s, curve), lambda s: flip(s, crossing)):
            with pytest.raises(SurfaceError, match=f"portal {lost} has no mouth triangle"):
                call(bad)

    def test_arc_with_one_slot_is_rejected(self):
        """The pentagon fan without its last triangle leaves arc 6 with one side.

        The slot count also rejects a boundary side repeated inside a
        triangle: on the hexagon, boundary 0 then has two slots.
        """
        t = initial_quasi_triangulation(MarkedSurface(0, 0, (5,)))
        bad = QuasiTriangulation(t.surface, t.regions[:-1], t.boundary, t.next_id)
        for call in (check_state, seed_from_quasi_triangulation, lambda s: flip(s, 6)):
            with pytest.raises(SurfaceError, match="edge 6 has 1 slots, expected 2"):
                call(bad)
        hexagon = initial_quasi_triangulation(MarkedSurface(0, 0, (6,)))
        assert hexagon.regions[0] == (TRI, ((0, 1), (1, 1), (6, -1)))
        doubled = QuasiTriangulation(hexagon.surface,
                                     ((TRI, ((0, 1), (0, 1), (6, -1))),) + hexagon.regions[1:],
                                     hexagon.boundary, hexagon.next_id)
        with pytest.raises(SurfaceError, match="edge 0 has 2 slots, expected 1"):
            check_state(doubled)

    def test_mob1_round_trip(self):
        t = initial_quasi_triangulation(MarkedSurface(0, 1, (1,)))
        (alpha,) = t.quasi_arcs
        t2 = flip(t, alpha)
        assert t2.regions[0][0] == MOB1
        t3 = flip(t2, new_quasi_arc(t, t2))
        assert canonical_code(t3) == canonical_code(t)


class TestDerivedStructure:
    def test_built_once_and_outside_equality_hashing_and_json(self, mobius3):
        t0 = initial_quasi_triangulation(mobius3)
        t = flip(t0, detect_m2(t0)[0])
        fresh = QuasiTriangulation(t.surface, t.regions, t.boundary, t.next_id)
        check_state(t)
        assert t.slots is t.slots and t.quasi_arcs is t.quasi_arcs
        assert t == fresh and hash(t) == hash(fresh)
        assert "slots" in vars(t) and "slots" not in vars(fresh)
        assert triangulation_to_json(t) == triangulation_to_json(fresh)

    def test_one_index_per_state_on_the_heptagon(self, monkeypatch):
        """Each state the flip BFS makes builds its slot index once."""
        builds = []
        cached = vars(QuasiTriangulation)["slots"]
        real = cached.func

        def counting(t):
            builds.append(t)
            return real(t)

        monkeypatch.setattr(cached, "func", counting)
        g = explore_flips(initial_quasi_triangulation(MarkedSurface(0, 0, (7,))))
        # the initial state, then one flip per edge: the graph has 42 nodes
        # and 84 edges
        assert (g.node_count, len(builds)) == (42, 1 + 84)


class TestCanonicalCode:
    def test_label_sensitivity(self, hexagon):
        """Rotated hexagon triangulations are different states."""
        t = initial_quasi_triangulation(hexagon)
        codes = {canonical_code(t)}
        # fan from each vertex arises along flips; all 14 states distinct
        seen = {canonical_code(t)}
        frontier = [t]
        while frontier:
            cur = frontier.pop()
            for q in cur.quasi_arcs:
                nxt = flip(cur, q)
                code = canonical_code(nxt)
                if code not in seen:
                    seen.add(code)
                    frontier.append(nxt)
        assert len(seen) == 14

    def test_mirror_pockets_distinct(self, mobius2):
        """The two pocket states of M_2 (crossing arc at P vs at Q) differ."""
        t = initial_quasi_triangulation(mobius2)
        t2 = flip(t, detect_m2(t)[0])
        t3 = flip(t2, t2.pockets[0][3])
        assert canonical_code(t3) != canonical_code(t2)

    def test_gauge_invariance(self, mobius3):
        """Reversing a stored triangle orientation does not change the code."""
        t = initial_quasi_triangulation(mobius3)
        regions = list(t.regions)
        kind, sides = regions[0]
        flipped = (kind, ((sides[0][0], -sides[0][1]),
                          (sides[2][0], -sides[2][1]),
                          (sides[1][0], -sides[1][1])))
        regions[0] = flipped
        t_gauge = QuasiTriangulation(t.surface, tuple(regions), t.boundary, t.next_id)
        check_state(t_gauge)
        assert canonical_code(t_gauge) == canonical_code(t)

    @pytest.mark.parametrize("surface,depth,digest,seed_digest,labels", CODE_GOLDENS)
    def test_code_values_golden(self, surface, depth, digest, seed_digest, labels):
        h, h_seed = hashlib.sha256(), hashlib.sha256()
        for bv in (True, False):
            s = MarkedSurface(surface.genus, surface.cross_caps, surface.boundary, bv)
            g = explore_flips(initial_quasi_triangulation(s, labels=labels), depth=depth)
            h.update("\n".join(sorted(repr(canonical_code(t)) for t in g.payloads)).encode())
            h_seed.update("\n".join(map(seed_text, g.payloads)).encode())
        assert (h.hexdigest(), h_seed.hexdigest()) == (digest, seed_digest)

    @pytest.mark.parametrize("surface,depth,digest,seed_digest,labels", CODE_GOLDENS)
    def test_oracle_on_golden_states(self, surface, depth, digest, seed_digest, labels):
        """The definition's minimum over every boundary flag is the code of every golden state."""
        g = explore_flips(initial_quasi_triangulation(surface, labels=labels), depth=depth)
        for t in g.payloads:
            assert canonical_code_oracle(t) == canonical_code(t)


    @staticmethod
    def scramble(t, rng):
        """The same state with fresh non-boundary ids, shuffled regions, rotated
        triangles, random triangle gauges and random mob1 signs."""
        bnd = t.boundary_labels
        sides = {e for ri in range(len(t.regions)) for e, _ in t.region_sides(ri)}
        ids = sorted(sides.union(t.pocket_of, t.mob1_of).difference(bnd))
        pool = [i for i in range(3 * t.next_id) if i not in bnd]
        new = dict(zip(ids, rng.sample(pool, len(ids))))
        new.update((e, e) for e in bnd)
        regions = []
        for r in t.regions:
            if r[0] == TRI:
                k = rng.randrange(3)
                sides = [(new[e], s) for e, s in r[1][k:] + r[1][:k]]
                if rng.random() < 0.5:
                    sides = [(e, -s) for e, s in (sides[0], sides[2], sides[1])]
                regions.append((TRI, tuple(sides)))
            elif r[0] == POCKET:
                regions.append((POCKET, new[r[1]], new[r[2]], new[r[3]]))
            else:
                (e, s), curve = r[1], r[2]
                regions.append((MOB1, (e, rng.choice((s, -s))), new[curve]))
        rng.shuffle(regions)
        return QuasiTriangulation(t.surface, tuple(regions), t.boundary, 3 * t.next_id)

    @pytest.mark.parametrize("surface", [
        MarkedSurface(0, 1, (1,)), MarkedSurface(0, 1, (2,)), MarkedSurface(0, 1, (4,)),
        MarkedSurface(0, 0, (2, 2)), MarkedSurface(0, 1, (2, 2)), MarkedSurface(0, 2, (2,)),
        MarkedSurface(0, 0, (7,)),
    ], ids=str)
    def test_invariant_under_relabeling_order_rotation_and_gauge(self, surface):
        rng = random.Random(str(surface))
        kinds = set()
        for _ in range(30):
            t = initial_quasi_triangulation(surface)
            for _ in range(rng.randint(0, 8)):
                t = flip(t, rng.choice(t.quasi_arcs))
            kinds.update(r[0] for r in t.regions)
            code = canonical_code(t)
            for _ in range(3):
                t2 = self.scramble(t, rng)
                check_state(t2)
                assert canonical_code(t2) == code
        # the walks on non-orientable surfaces reach pocket or mob1 regions
        assert (kinds != {TRI}) == (not surface.orientable)

    @pytest.mark.parametrize("surface,labels", [
        (MarkedSurface(0, 1, (1,)), None), (MarkedSurface(0, 1, (4,)), None),
        (MarkedSurface(0, 2, (2,)), None), (MarkedSurface(0, 0, (2, 2)), None),
        (MarkedSurface(0, 0, (7,)), [("g", "f", "e", "d", "c", "b", "a")]),
    ], ids=str)
    def test_oracle_on_scrambled_states(self, surface, labels):
        """Random states with fresh ids, shuffled regions and random gauges."""
        rng = random.Random(f"oracle {surface} {labels}")
        kinds = set()
        for _ in range(20):
            t = initial_quasi_triangulation(surface, labels=labels)
            for _ in range(rng.randint(0, 8)):
                t = flip(t, rng.choice(t.quasi_arcs))
            t = self.scramble(t, rng)
            kinds.update(r[0] for r in t.regions)
            assert canonical_code_oracle(t) == canonical_code(t)
        assert (kinds != {TRI}) == (not surface.orientable)

    @pytest.mark.parametrize("surface", [
        MarkedSurface(0, 0, (9,)), MarkedSurface(0, 1, (4,)), MarkedSurface(0, 1, (5,)),
        MarkedSurface(0, 0, (2, 2)),
    ], ids=str)
    def test_numberings_match_arcs_whose_flips_agree(self, surface):
        """A state and a scramble of it: equal keys name arcs whose flips share a code."""
        rng = random.Random(f"numbering {surface}")
        kinds = set()
        for t in explore_flips(initial_quasi_triangulation(surface), depth=4).payloads:
            code, num = canonical_form(t)
            t2 = self.scramble(t, rng)
            code2, num2 = canonical_form(t2)
            assert code2 == code == canonical_code_oracle(t2)
            arc = {key: q for q, key in num2.items()}
            assert len(arc) == len(num2) and set(t2.quasi_arcs) <= set(num2)
            for q in t.quasi_arcs:
                assert canonical_code(flip(t2, arc[num[q]])) == canonical_code(flip(t, q))
            kinds.update(r[0] for r in t.regions)
        assert (kinds != {TRI}) == (not surface.orientable)

    def test_mob1_curve_is_keyed_through_its_region(self):
        t = initial_quasi_triangulation(MarkedSurface(0, 1, (1,)))
        t2 = flip(t, t.quasi_arcs[0])
        assert [r[0] for r in t2.regions] == [MOB1]
        assert canonical_form(t2)[1] == {t.next_id: ("mob1", 0)}

    @pytest.mark.parametrize("surface", [
        MarkedSurface(0, 0, (6,)), MarkedSurface(0, 1, (1,)), MarkedSurface(0, 1, (3,)),
    ], ids=str)
    def test_least_segment_on_no_region_is_a_surface_error(self, surface):
        """Codes start at the least-labelled segment's one slot, so a state built
        directly with that segment missing, on no region or on two slots is refused."""
        t = initial_quasi_triangulation(surface)
        for state in (t, flip(t, t.quasi_arcs[0])):
            cases = [((), 0), (state.boundary + ((99, "a"),), 0)]
            cases += [(state.boundary + ((q, "a"),), 2)  # M1's mob1 state has no such arc
                      for q in state.quasi_arcs[:1] if len(state.slots.get(q, ())) == 2]
            for boundary, slots in cases:
                stray = QuasiTriangulation(state.surface, state.regions, boundary, 100)
                with pytest.raises(SurfaceError, match=f"^least-labelled boundary segment has "
                                                       f"{slots} slots, expected 1$"):
                    canonical_form(stray)

    def test_equal_codes_need_not_mean_equal_flips(self):
        """A code does not record the twist of a cycle-closing edge.

        On the Klein bottle minus a disk, (0,2,(2,)), these two states share
        a code, the minimum over every boundary flag as the oracle computes
        it, yet their flips reach different codes: they are not isomorphic.  So
        ``explore_flips`` sends no back token there.
        """
        t0 = initial_quasi_triangulation(MarkedSurface(0, 2, (2,)))
        a = flip(flip(t0, 2), 3)
        b = flip(a, 4)
        assert canonical_code(a) == canonical_code(b)
        assert canonical_code_oracle(a) == canonical_code_oracle(b)

        def neighbourhood(t):
            return Counter(canonical_code(flip(t, q)) for q in t.quasi_arcs)

        assert neighbourhood(a) != neighbourhood(b)

    def test_one_bfs_per_code_on_the_heptagon(self, monkeypatch):
        """Each code of the heptagon's flip BFS is one walk."""
        codes, walks = [], []
        real_form, real_walk = canonical_form, surface_module._walk_code

        def counting_form(t):
            codes.append(t)
            return real_form(t)

        def counting_walk(*args):
            walks.append(args)
            return real_walk(*args)

        monkeypatch.setattr("lpsurf.explorer.canonical_form", counting_form)
        monkeypatch.setattr(surface_module, "_walk_code", counting_walk)
        g = explore_flips(initial_quasi_triangulation(MarkedSurface(0, 0, (7,))))
        # the initial state once, then one flip per edge of the 84
        assert (g.node_count, len(codes), len(walks)) == (42, 1 + 84, 1 + 84)

    @pytest.mark.parametrize("surface,depth,digest,seed_digest,labels", CODE_GOLDENS)
    def test_one_walk_per_code_on_golden_states(self, surface, depth, digest, seed_digest,
                                                labels, monkeypatch):
        """Every code of a golden state walks one flag once, on pocket and mob1 states too."""
        states = explore_flips(initial_quasi_triangulation(surface, labels=labels),
                               depth=depth).payloads
        walks, real_walk = [], surface_module._walk_code
        monkeypatch.setattr(surface_module, "_walk_code",
                            lambda *args: walks.append(args) or real_walk(*args))
        for t in states:
            walks.clear()
            canonical_form(t)
            assert len(walks) == 1

    @pytest.mark.parametrize("entry", ["initial", "json", "direct"])
    def test_repeated_labels_are_a_one_line_surface_error(self, entry):
        """Each boundary segment has its own label at every entry point."""
        surface = MarkedSurface(0, 1, (4,))
        labels = [("z", "z", "y", "x")]
        t = initial_quasi_triangulation(surface)
        repeated = tuple((e, label) for (e, _), label in zip(t.boundary, labels[0]))
        data = {**triangulation_to_json(t), "boundary": [list(b) for b in repeated]}
        call = {
            "initial": lambda: initial_quasi_triangulation(surface, labels=labels),
            "json": lambda: triangulation_from_json(data),
            "direct": lambda: canonical_form(
                QuasiTriangulation(surface, t.regions, repeated, t.next_id)),
        }[entry]
        with pytest.raises(SurfaceError) as exc:
            call()
        assert str(exc.value) == "boundary segments must have distinct ids and labels"


class TestSharedStructure:
    """What a flip hands its child, and the objects codes share, equal a fresh build."""

    @staticmethod
    def assert_built_as_fresh(t, q):
        t2 = flip(t, q)
        fresh = QuasiTriangulation(t2.surface, t2.regions, t2.boundary, t2.next_id)
        assert t2.boundary_labels is t.boundary_labels
        for name in ("boundary_labels", "boundary_tokens", "least_boundary", "slots"):
            assert getattr(t2, name) == getattr(fresh, name), name

    @pytest.mark.parametrize("surface,depth,digest,seed_digest,labels", CODE_GOLDENS)
    def test_flips_of_golden_states(self, surface, depth, digest, seed_digest, labels):
        g = explore_flips(initial_quasi_triangulation(surface, labels=labels), depth=depth)
        for t in g.payloads:
            for q in t.quasi_arcs:
                self.assert_built_as_fresh(t, q)

    @pytest.mark.parametrize("surface,labels", [
        (MarkedSurface(0, 1, (1,)), None), (MarkedSurface(0, 1, (4,)), None),
        (MarkedSurface(0, 2, (2,)), None), (MarkedSurface(0, 0, (2, 2)), None),
        (MarkedSurface(0, 0, (7,)), [("g", "f", "e", "d", "c", "b", "a")]),
    ], ids=str)
    def test_flips_of_scrambled_states(self, surface, labels):
        rng = random.Random(f"shared {surface} {labels}")
        for _ in range(20):
            t = initial_quasi_triangulation(surface, labels=labels)
            for _ in range(rng.randint(0, 8)):
                t = flip(t, rng.choice(t.quasi_arcs))
            t = TestCanonicalCode.scramble(t, rng)
            for q in t.quasi_arcs:
                self.assert_built_as_fresh(t, q)

    def test_codes_share_their_tokens(self):
        t = initial_quasi_triangulation(MarkedSurface(0, 1, (4,)))
        other = TestCanonicalCode.scramble(flip(t, detect_m2(t)[0]), random.Random(0))
        code, other_code = canonical_code(t), canonical_code(other)
        assert code != other_code
        tokens = {tok: tok for row in code[:-1] for tok in row[1:]}
        shared = [tok for row in other_code[:-1] for tok in row[1:] if tok in tokens]
        assert {tok[0] for tok in shared} == {"b", "e"}
        assert all(tokens[tok] is tok for tok in shared)

    @pytest.mark.parametrize("surface", [MarkedSurface(0, 0, (8,)), MarkedSurface(0, 1, (4,))],
                             ids=str)
    def test_codes_from_four_threads(self, surface, monkeypatch):
        """Threads that start from empty shared tables get the serial codes."""
        states = explore_flips(initial_quasi_triangulation(surface)).payloads
        serial = [canonical_code(t) for t in states]
        for name, empty in (("_SLOT_PAIRS", ()), ("_EDGE_TOKENS", ()), ("_BOUNDARY_TOKENS", {})):
            monkeypatch.setattr(surface_module, name, empty)
        fresh = [QuasiTriangulation(t.surface, t.regions, t.boundary, t.next_id) for t in states]
        start = threading.Barrier(4)

        def codes(k):
            order = list(range(len(fresh)))
            order = order[k * len(order) // 4:] + order[:k * len(order) // 4]  # its own start
            start.wait(timeout=60)
            return {i: canonical_code(fresh[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(codes, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert [result[i] for i in range(len(fresh))] == serial


class TestDoubleCover:
    @pytest.mark.parametrize(
        "surface,expected_components",
        [(MarkedSurface(0, 0, (6,)), 2), (MarkedSurface(0, 0, (2, 2)), 2),
         (MarkedSurface(0, 1, (2,)), 1), (MarkedSurface(0, 1, (3,)), 1),
         (MarkedSurface(1, 0, (2,)), 2), (MarkedSurface(0, 2, (2,)), 1)],
        ids=str,
    )
    def test_orientable_iff_two_components(self, surface, expected_components):
        t = initial_quasi_triangulation(surface)
        assert cover_components(double_cover(t)) == expected_components

    def test_edge_count_doubles(self, mobius3):
        t = initial_quasi_triangulation(mobius3)
        lt = double_cover(t)
        n_edges = len(t.slots)
        assert len(lt.edge_lifts()) == 2 * n_edges

    def test_pocket_state_rejected(self, mobius2):
        t = initial_quasi_triangulation(mobius2)
        t2 = flip(t, detect_m2(t)[0])
        with pytest.raises(SurfaceError):
            double_cover(t2)

    def test_involution_is_fixed_point_free(self, mobius2):
        lt = double_cover(initial_quasi_triangulation(mobius2))
        for lift in lt.edge_lifts():
            assert lt.involution(lift) != lift


class TestAdjacencyQuiver:
    @pytest.mark.parametrize(
        "surface", [s for s in SURFACE_GRID if s.rank > 1 or s.cross_caps == 0], ids=str
    )
    def test_anti_symmetry_everywhere(self, surface):
        t = initial_quasi_triangulation(surface)
        q = adjacency_quiver(double_cover(t))
        assert q.is_anti_symmetric()

    def test_m1_doubled_arc_is_anti_self_folded(self):
        """The Moebius strip with one marked point lifts with twin arrows."""
        t = initial_quasi_triangulation(MarkedSurface(0, 1, (1,)))
        with pytest.raises(SurfaceError):
            adjacency_quiver(double_cover(t))

    def test_hexagon_lifts_split_across_components(self, hexagon):
        """Orientable lift: two disjoint mirror copies, one lift of each arc in each."""
        t = initial_quasi_triangulation(hexagon)
        lt = double_cover(t)
        # component id per sheet-triangle
        adj = {key: set() for key, _ in lt.triangles}
        members = {}
        for key, walk in lt.triangles:
            for e, lift, _ in walk:
                members.setdefault((e, lift), []).append(key)
        for tris in members.values():
            for a in tris:
                for b in tris:
                    if a != b:
                        adj[a].add(b)
        comp = {}
        for start in adj:
            if start in comp:
                continue
            stack, cid = [start], len(set(comp.values()))
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp[u] = cid
                stack.extend(adj[u])
        assert len(set(comp.values())) == 2
        for e in lt.mutable_edges:
            c0 = {comp[k] for k in members[(e, 0)]}
            c1 = {comp[k] for k in members[(e, 1)]}
            assert c0 != c1

    def test_m2_quiver_polynomials_and_bad_pair(self, mobius2):
        t = initial_quasi_triangulation(mobius2, labels=[("A", "B")])
        q = adjacency_quiver(double_cover(t))
        ctx = VariableContext(("e", "f"), ("A", "B"))
        polys = exchange_polys(q, ctx)
        assert sorted(str(p) for p in polys) == ["A + B", "e^2 + A*B"]
        bad = [p for p in q.mutable_pairs() if has_bad_path(q, p)]
        assert len(bad) == 1

    def test_quiver_route_equals_direct_extraction(self):
        """Lifted-quiver polynomials match the direct region formulas."""
        for surface in [MarkedSurface(0, 0, (6,)), MarkedSurface(0, 1, (3,)),
                        MarkedSurface(0, 0, (2, 2)), MarkedSurface(0, 1, (4,))]:
            t = initial_quasi_triangulation(surface)
            seed = seed_from_quasi_triangulation(t)
            lt = double_cover(t)
            q = adjacency_quiver(lt)
            polys = exchange_polys(q, seed.ctx)
            assert list(polys) == list(seed.polys)

    def test_boundary_variables_off_deletes_frozen(self):
        s = MarkedSurface(0, 1, (3,), boundary_variables=False)
        t = initial_quasi_triangulation(s)
        q = adjacency_quiver(double_cover(t))
        assert q.frozen == frozenset()
        assert q.pairs == 3


class TestDetectM2:
    def test_m2_inner_arc(self, mobius2):
        t = initial_quasi_triangulation(mobius2)
        assert len(detect_m2(t)) == 1

    def test_orientable_surfaces_empty(self):
        for surface in [MarkedSurface(0, 0, (6,)), MarkedSurface(0, 0, (2, 2)),
                        MarkedSurface(1, 0, (2,))]:
            t = initial_quasi_triangulation(surface)
            assert detect_m2(t) == []

    def test_agrees_with_bad_path_everywhere(self, mobius3):
        """Exhaustive over all M_3 triangulation states."""
        t0 = initial_quasi_triangulation(mobius3)
        seen = {canonical_code(t0)}
        frontier = [t0]
        checked = 0
        while frontier:
            t = frontier.pop()
            if t.is_pure_triangulation():
                lt = double_cover(t)
                q = adjacency_quiver(lt)
                flagged = set(detect_m2(t))
                by_quiver = {
                    lt.mutable_edges[p]
                    for p in q.mutable_pairs()
                    if has_bad_path(q, p)
                }
                assert flagged == by_quiver
                checked += 1
            for qa in t.quasi_arcs:
                nxt = flip(t, qa)
                code = canonical_code(nxt)
                if code not in seen:
                    seen.add(code)
                    frontier.append(nxt)
        assert checked >= 6


class TestSeedExtraction:
    def test_m4_digon_seed(self):
        t = m4_digon_state()
        check_state(t)
        verify_topology(t)
        s = seed_from_quasi_triangulation(t, names=M4_NAMES)
        assert dict(zip(s.names, s.poly_strings())) == {
            "a": "c + d",
            "b": "a^2 + c*d",
            "c": "a*y + b*w",
            "d": "a*z + b*x",
        }

    def test_pocket_seed_after_flip(self):
        """Flipping a in the M_4 digon triangulation gives the pocket seed."""
        t = m4_digon_state()
        t2 = flip(t, 4)
        names = dict(M4_NAMES)
        names[new_quasi_arc(t, t2)] = names.pop(4)
        s = seed_from_quasi_triangulation(t2, names=names)
        got = dict(zip(s.names, s.poly_strings()))
        ctx = s.ctx
        want = {
            "a": "c + d",
            "b": "(c+d)^2 + a^2*c*d",
            "c": "d*y + a*b*w",
            "d": "c*z + a*b*x",
        }
        for k, text in want.items():
            assert (
                parse_polynomial(got[k], ctx) == parse_polynomial(text, ctx).canonical_sign()
            ), k

    def test_m3_pocket_seed_without_boundary_vars(self):
        """The worked mutation example's seed is the M_3 pocket seed."""
        s3 = MarkedSurface(0, 1, (3,), boundary_variables=False)
        t = initial_quasi_triangulation(s3)
        bad = detect_m2(t)
        t2 = flip(t, bad[0])
        seed = seed_from_quasi_triangulation(t2)
        strings = sorted(seed.poly_strings())
        ctx = seed.ctx
        # curve poly b+1, crossing poly (b+1)^2 + a^2 b, mouth arc ac+1
        shapes = sorted(
            p.to_string(("a", "b", "c")) for p in seed.polys
        )
        assert len(strings) == 3

    @pytest.mark.parametrize(
        "surface",
        [MarkedSurface(0, 1, (3,)), MarkedSurface(0, 0, (2, 2)),
         MarkedSurface(0, 1, (4,))],
        ids=["M3", "annulus22", "M4"],
    )
    def test_flip_graph_seeds_equal_lp_mutation(self, surface):
        """Flip-then-extract equals LP-mutate, node by node.

        Both seeds are compared through their display-name polynomial strings
        parsed over a common context, so slot bookkeeping drops out.
        """
        t0 = initial_quasi_triangulation(surface)
        s0 = seed_from_quasi_triangulation(t0)

        # slot i of the seed stays glued to arc_of_slot[i] across flips
        frontier = [(t0, s0, tuple(t0.quasi_arcs))]
        seen = {canonical_code(t0)}
        pairs_checked = 0
        while frontier and pairs_checked < 60:
            t, s, arc_of_slot = frontier.pop()
            for slot, qa in enumerate(arc_of_slot):
                t2 = flip(t, qa)
                s2 = mutate(s, slot)
                q_new = new_quasi_arc(t, t2)
                names = {
                    q: s.names[i] for i, q in enumerate(arc_of_slot) if q != qa
                }
                names[q_new] = s2.names[slot]
                extracted = seed_from_quasi_triangulation(t2, names=names)
                common = VariableContext(tuple(sorted(s2.names)), s2.ctx.frozen)
                got = {
                    parse_polynomial(text, common).canonical_sign().terms
                    for text in extracted.poly_strings()
                }
                want = {
                    parse_polynomial(text, common).canonical_sign().terms
                    for text in s2.poly_strings()
                }
                assert got == want
                pairs_checked += 1
                code = canonical_code(t2)
                if code not in seen:
                    seen.add(code)
                    slots2 = list(arc_of_slot)
                    slots2[slot] = q_new
                    frontier.append((t2, s2, tuple(slots2)))
        assert pairs_checked >= 30


def _pair_gauge_canonical(q):
    """Lexicographically minimal matrix over all per-pair lift swaps.

    Swapping which lift of a pair is called "first" conjugates the matrix by
    the transposition of the pair's two vertices; the minimum over all 2^n
    swaps is a gauge-free representative.
    """
    n = q.pairs
    n2 = 2 * n
    best = None
    for mask in range(1 << n):
        perm = list(range(n2))
        for p in range(n):
            if mask >> p & 1:
                perm[p], perm[p + n] = perm[p + n], perm[p]
        m = tuple(
            tuple(q.b[perm[i]][perm[j]] for j in range(n2)) for i in range(n2)
        )
        if best is None or m < best:
            best = m
    return best


class TestEquivariance:
    def test_matrix_level_equivariance(self, mobius3):
        """double_mutate(adjacency(lift(t)), i) equals adjacency(lift(flip(t, i)))
        as matrices, after aligning the new arc's pair with the old one and
        quotienting the per-pair lift gauge."""
        from lpsurf.quiver import Quiver

        t0 = initial_quasi_triangulation(mobius3)
        seen = {canonical_code(t0)}
        frontier = [t0]
        checked = 0
        while frontier and checked < 25:
            t = frontier.pop()
            if t.is_pure_triangulation():
                lt = double_cover(t)
                q = adjacency_quiver(lt)
                for p, arc in enumerate(lt.mutable_edges):
                    if has_bad_path(q, p):
                        continue
                    t2 = flip(t, arc)
                    q2_mut = double_mutate(q, p)
                    lt2 = double_cover(t2)
                    q2_flip = adjacency_quiver(lt2)
                    # align pair order: the fresh arc takes the flipped arc's place
                    arc_new = new_quasi_arc(t, t2)
                    relabel = {arc_new: arc}
                    order2 = [relabel.get(e, e) for e in lt2.mutable_edges] + list(
                        lt2.frozen_edges
                    )
                    order1 = list(lt.mutable_edges) + list(lt.frozen_edges)
                    pos = {e: i for i, e in enumerate(order2)}
                    n = len(order1)
                    perm = [pos[e] for e in order1]

                    def vmap(v):
                        return perm[v % n] + (v // n) * n

                    n2 = 2 * n
                    aligned = tuple(
                        tuple(q2_flip.b[vmap(i)][vmap(j)] for j in range(n2))
                        for i in range(n2)
                    )
                    q2_aligned = Quiver(n, aligned, q.frozen)
                    assert _pair_gauge_canonical(q2_mut) == _pair_gauge_canonical(
                        q2_aligned
                    )
                    checked += 1
            for qa in t.quasi_arcs:
                nxt = flip(t, qa)
                code = canonical_code(nxt)
                if code not in seen:
                    seen.add(code)
                    frontier.append(nxt)
        assert checked >= 10

    def test_flip_lift_equals_double_mutation(self, mobius3):
        """adjacency(lift(flip(t,i))) == double_mutate(adjacency(lift(t)), i)
        compared at the seed level, over every t-mutable arc of every M_3
        triangulation state."""
        t0 = initial_quasi_triangulation(mobius3)
        seen = {canonical_code(t0)}
        frontier = [t0]
        checked = 0
        while frontier:
            t = frontier.pop()
            if t.is_pure_triangulation():
                lt = double_cover(t)
                q = adjacency_quiver(lt)
                names = {e: f"x{e}" for e in lt.mutable_edges}
                seed = seed_from_quasi_triangulation(t, names=names)
                for p, arc in enumerate(lt.mutable_edges):
                    if has_bad_path(q, p):
                        continue
                    t2 = flip(t, arc)
                    assert t2.is_pure_triangulation()
                    q2a = double_mutate(q, p)
                    lt2 = double_cover(t2)
                    q2b = adjacency_quiver(lt2)
                    # compare via exchange polynomials with matched variables
                    arc_new = new_quasi_arc(t, t2)
                    names2 = dict(names)
                    names2[arc_new] = names2.pop(arc)
                    seed_b = seed_from_quasi_triangulation(t2, names=names2)
                    polys_a = exchange_polys(q2a, seed.ctx)
                    order = [
                        sorted(names2).index(k)
                        for k in sorted(names2)
                    ]
                    # map seed_b's polys into seed.ctx by variable names
                    polys_b = [parse_polynomial(str(pp), seed.ctx) for pp in seed_b.polys]
                    want = {pp.canonical_sign().terms for pp in polys_b}
                    got = {pp.canonical_sign().terms for pp in polys_a}
                    assert got == want
                    checked += 1
            for qa in t.quasi_arcs:
                nxt = flip(t, qa)
                code = canonical_code(nxt)
                if code not in seen:
                    seen.add(code)
                    frontier.append(nxt)
        assert checked >= 10


class TestExceptionalSurfaces:
    @pytest.mark.parametrize(
        "surface,depth",
        [
            (MarkedSurface(0, 0, (6,), boundary_variables=False), None),
            (MarkedSurface(0, 1, (4,), boundary_variables=False), None),
            (MarkedSurface(0, 0, (2, 2), boundary_variables=False), 3),
            (MarkedSurface(1, 0, (2,), boundary_variables=False), 3),
            (MarkedSurface(0, 2, (2,), boundary_variables=False), 2),
        ],
        ids=["6gon", "M4", "cylinder22", "torus", "klein"],
    )
    def test_duplicates_appear_without_boundary_variables(self, surface, depth):
        """Each exceptional surface emits a triangulation with F_i = F_j."""
        t0 = initial_quasi_triangulation(surface)
        seen = {canonical_code(t0)}
        frontier = [(t0, 0)]
        found = False
        while frontier and not found:
            t, d = frontier.pop()
            seed = seed_from_quasi_triangulation(t)
            terms = [p.terms for p in seed.polys]
            if len(set(terms)) < len(terms):
                found = True
                break
            if depth is not None and d >= depth:
                continue
            for qa in t.quasi_arcs:
                nxt = flip(t, qa)
                code = canonical_code(nxt)
                if code not in seen:
                    seen.add(code)
                    frontier.append((nxt, d + 1))
        assert found


class TestStats:
    @pytest.mark.parametrize("surface", SURFACE_GRID, ids=str)
    def test_euler_characteristic(self, surface):
        t = initial_quasi_triangulation(surface)
        stats = surface_stats(t)
        assert stats["chi"] == surface.euler_characteristic
        assert stats["interior_vertices"] == 0

    @pytest.mark.parametrize("surface,sizes", [
        (MarkedSurface(1, 2, (2, 3)), [2, 3]), (MarkedSurface(0, 0, (2, 2)), [2, 2]),
    ], ids=["(1,2,(2,3))", "annulus22"])
    def test_boundary_component_sizes(self, surface, sizes):
        assert surface_stats(initial_quasi_triangulation(surface))["boundary_components"] == sizes

    def test_stats_on_pocket_state(self, mobius2):
        t = initial_quasi_triangulation(mobius2)
        t2 = flip(t, detect_m2(t)[0])
        stats = surface_stats(t2)
        assert stats["chi"] == t2.surface.euler_characteristic
