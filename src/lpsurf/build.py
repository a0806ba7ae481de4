"""Initial triangulations of marked surfaces, their topology, the double cover and JSON.

:func:`initial_quasi_triangulation` builds a deterministic triangulation of
every surface shape it supports and checks it against the surface: Euler
characteristic, boundary components, no interior vertex, and a double cover
that is connected exactly when the surface is non-orientable.
:func:`triangulation_from_json` makes the same two checks on a loaded state.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .poly import Record
from .schema import REQUIRED, SCHEMA_VERSION, fields, matches
from .surface import (
    MOB1,
    POCKET,
    TRI,
    MarkedSurface,
    QuasiTriangulation,
    Slot,
    SurfaceError,
    check_state,
    surface_from_json,
    surface_to_json,
)

__all__ = [
    "LiftedTriangulation",
    "initial_quasi_triangulation",
    "double_cover",
    "cover_components",
    "surface_stats",
    "verify_topology",
    "triangulation_to_json",
    "triangulation_from_json",
]


# -- initial triangulations -------------------------------------------------------


class _Builder:
    def __init__(self, surface: MarkedSurface, labels: Sequence[Sequence[str]]):
        self.surface = surface
        self.regions: list = []
        self.counter = itertools.count(0)
        self.boundary: list[tuple[int, str]] = []
        self.labels = tuple(tuple(component) for component in labels)

    def fresh(self) -> int:
        return next(self.counter)

    def boundary_edges(self, comp: int) -> list[int]:
        ids = [self.fresh() for _ in range(len(self.labels[comp]))]
        for eid, lbl in zip(ids, self.labels[comp]):
            self.boundary.append((eid, lbl))
        return ids

    def tri(self, a: Slot, b: Slot, c: Slot) -> None:
        self.regions.append((TRI, (a, b, c)))

    def fan(self, sides: list[Slot]) -> None:
        """Fan-triangulate a disk with the given boundary walk (>= 3 sides)."""
        n = len(sides)
        assert n >= 3
        if n == 3:
            self.tri(*sides)
            return
        diags = [self.fresh() for _ in range(n - 3)]
        self.tri(sides[0], sides[1], (diags[0], -1))
        for j in range(1, n - 3):
            self.tri((diags[j - 1], 1), sides[j + 1], (diags[j], -1))
        self.tri((diags[-1], 1), sides[n - 2], sides[n - 1])

    def crosscap_block(self, front: Slot, back: Slot) -> None:
        """Moebius piece between two mouth sides: the M_2-style pair of triangles."""
        e = self.fresh()
        f = self.fresh()
        self.tri((e, 1), front, (f, 1))
        self.tri((e, 1), back, (f, -1))

    def bridge(self, front: Slot, comp: int, back: Optional[Slot] = None) -> Optional[Slot]:
        """Annulus piece carrying an extra boundary component behind the front.

        The piece's mouth is the digon (front, back); when no back side is
        supplied a fresh arc is exposed for the enclosing polygon.
        """
        inner = self.boundary_edges(comp)
        exposed = None
        if back is None:
            exposed = self.fresh()
            back = (exposed, 1)
        a = self.fresh()
        b = self.fresh()
        self.tri(front, (b, 1), (a, -1))
        walk: list[Slot] = [(a, 1)]
        walk += [(e, 1) for e in inner]
        walk += [(b, -1), back]
        self.fan(walk)
        return (exposed, -1) if exposed is not None else None

    def handle_region(self, mouth: Slot) -> None:
        """One-holed torus glued along the mouth side."""
        p = self.fresh()
        q = self.fresh()
        self.fan([mouth, (p, 1), (q, 1), (p, -1), (q, -1)])

    def state(self) -> QuasiTriangulation:
        """The built state, checked as a state and against the surface's topology."""
        t = QuasiTriangulation(
            self.surface, tuple(self.regions), tuple(self.boundary), next(self.counter)
        )
        check_state(t)
        verify_topology(t)
        return t


def initial_quasi_triangulation(
    surface: MarkedSurface,
    labels: Optional[Sequence[Sequence[str]]] = None,
) -> QuasiTriangulation:
    """A deterministic triangulation (no one-sided curves) of the surface."""
    surface.check()
    if labels is None:
        labels = surface.default_labels()
    labels = tuple(tuple(component) for component in labels)
    if len(labels) != len(surface.boundary) or any(
        len(component) != m for component, m in zip(labels, surface.boundary)
    ):
        raise SurfaceError("labels do not match the boundary structure")

    g, c, bnd = surface.genus, surface.cross_caps, surface.boundary
    b = _Builder(surface, labels)

    # Moebius strip with one marked point: a single doubled-arc triangle
    if (g, c, len(bnd)) == (0, 1, 1) and bnd[0] == 1:
        (s1,) = b.boundary_edges(0)
        alpha = b.fresh()
        b.tri((alpha, 1), (alpha, 1), (s1, 1))
        return b.state()

    # annulus with one marked point on the first component: handle directly
    if (g, c, len(bnd)) == (0, 0, 2) and bnd[0] == 1 and bnd[1] == 1:
        (s1,) = b.boundary_edges(0)
        (s2,) = b.boundary_edges(1)
        e = b.fresh()
        f = b.fresh()
        b.tri((e, 1), (s1, 1), (f, 1))
        b.tri((e, -1), (s2, 1), (f, -1))
        return b.state()

    # longest boundary component becomes the outer polygon so the closure
    # has enough sides; crosscaps and bridges chain behind the first segment
    order = sorted(range(len(bnd)), key=lambda i: -bnd[i])
    b.labels = tuple(labels[i] for i in order)
    counts = [bnd[i] for i in order]

    outer = b.boundary_edges(0)
    front: Optional[Slot] = (outer[0], 1)
    rest: list[Slot] = [(e, 1) for e in outer[1:]]
    bridges = len(bnd) - 1
    closure_len = 1 + len(rest) + g

    # when the closure polygon would degenerate, fold its last side into the
    # final front-chain gadget (or cap the front with a one-holed torus)
    merge_back: Optional[Slot] = None
    pentagon_front = False
    if closure_len == 2:
        if rest:
            if bridges >= 1 or c >= 1:
                merge_back = rest.pop()
            else:
                raise SurfaceError("no built-in initial triangulation for this surface shape")
        else:
            pentagon_front = True  # the second side would be the last handle door
    elif closure_len == 1:
        raise SurfaceError("no built-in initial triangulation for this surface shape")

    for k in range(c):
        if k == c - 1 and merge_back is not None and bridges == 0:
            b.crosscap_block(front, merge_back)
            front = None
        else:
            exposed = b.fresh()
            b.crosscap_block(front, (exposed, 1))
            front = (exposed, -1)
    for j, comp in enumerate(range(1, len(counts))):
        if front is None:
            raise SurfaceError("no front side available for this surface shape")
        if comp == len(counts) - 1 and merge_back is not None:
            front = b.bridge(front, comp, merge_back)
        else:
            front = b.bridge(front, comp)
    doors: list[Slot] = []
    n_doors = g - 1 if pentagon_front else g
    for _ in range(n_doors):
        d = b.fresh()
        b.handle_region((d, 1))
        doors.append((d, -1))
    if pentagon_front:
        if front is None:
            raise SurfaceError("no front side available for this surface shape")
        b.handle_region(front)
        front = None

    closure = ([front] if front is not None else []) + rest + doors
    if closure:
        if len(closure) < 3:
            raise SurfaceError("no built-in initial triangulation for this surface shape")
        b.fan(closure)
    return b.state()


# -- topology ---------------------------------------------------------------------


def _corner_classes(t: QuasiTriangulation) -> tuple[dict, int]:
    """Union-find over region corners; corner i sits between sides i-1 and i."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # walking side pos of a region runs from corner pos to corner pos+1
    incidences: dict[int, list] = {}
    for ri in range(len(t.regions)):
        sides = t.region_sides(ri)
        for pos, (e, s) in enumerate(sides):
            parent[ri, pos] = (ri, pos)
            incidences.setdefault(e, []).append(((ri, pos), (ri, (pos + 1) % len(sides)), s))
    for incs in incidences.values():
        if len(incs) > 1:
            (a_start, a_end, s1), (b_start, b_end, s2) = incs
            if s1 != s2:
                b_start, b_end = b_end, b_start
            parent[find(a_start)] = find(b_start)
            parent[find(a_end)] = find(b_end)
    classes = {c: find(c) for c in parent}
    return classes, len(set(classes.values()))


def surface_stats(t: QuasiTriangulation) -> dict:
    """Euler characteristic, vertex count, and boundary walk structure."""
    classes, nverts = _corner_classes(t)
    edges = set(t.slots).union(t.boundary_labels, (p for _, p, _, _ in t.pockets))
    ntris = sum(1 for r in t.regions if r[0] == TRI)
    chi = nverts - len(edges) + ntris
    # trace boundary cycles as an undirected multigraph on vertex classes
    # (stored edge directions are per-region gauge, so they may disagree)
    bnd_label = t.boundary_labels
    endpoints: dict[int, tuple] = {}
    for ri in range(len(t.regions)):
        sides = t.region_sides(ri)
        arity = len(sides)
        for pos, (e, _) in enumerate(sides):
            if e in bnd_label:
                endpoints[e] = (classes[(ri, pos)], classes[(ri, (pos + 1) % arity)])
    at_vertex: dict = {}
    for e, (u, v) in endpoints.items():
        at_vertex.setdefault(u, []).append(e)
        at_vertex.setdefault(v, []).append(e)
    components = []
    seen_edges: set[int] = set()
    for e0, _ in t.boundary:
        if e0 in seen_edges:
            continue
        cycle = [bnd_label[e0]]
        seen_edges.add(e0)
        cur = endpoints[e0][1]
        while True:
            nxts = [x for x in at_vertex.get(cur, ()) if x not in seen_edges]
            if not nxts:
                break
            e = nxts[0]
            seen_edges.add(e)
            cycle.append(bnd_label[e])
            u, v = endpoints[e]
            cur = v if cur == u else u
        components.append(tuple(cycle))
    # every vertex must lie on the boundary (no punctures)
    interior = set(classes.values()).difference(*endpoints.values())
    return {
        "vertices": nverts,
        "edges": len(edges),
        "triangles": ntris,
        "chi": chi,
        "boundary_components": components,
        "interior_vertices": len(interior),
    }


def verify_topology(t: QuasiTriangulation) -> None:
    s = t.surface
    stats = surface_stats(t)
    if stats["chi"] != s.euler_characteristic:
        raise SurfaceError(
            f"Euler characteristic {stats['chi']} != expected {s.euler_characteristic}"
        )
    if stats["interior_vertices"]:
        raise SurfaceError("interior vertex found: punctures are forbidden")
    got = sorted(len(c) for c in stats["boundary_components"])
    want = sorted(s.boundary)
    if got != want:
        raise SurfaceError(f"boundary structure {got} != expected {want}")
    if t.is_pure_triangulation():
        comps = cover_components(double_cover(t))
        if (comps == 2) != s.orientable:
            raise SurfaceError("double cover does not match orientability")


# -- double cover -----------------------------------------------------------------


class LiftedTriangulation(Record):
    """Oriented double cover of a pure triangulation with its deck involution."""

    _fields = ("base", "triangles", "mutable_edges", "frozen_edges")

    def __init__(self, base: QuasiTriangulation, triangles: tuple,
                 mutable_edges: tuple[int, ...], frozen_edges: tuple[int, ...]):
        d = self.__dict__
        d["base"] = base
        d["triangles"] = triangles  # ((region, sheet), walk), walk = ((edge, lift, sign), ...)
        d["mutable_edges"] = mutable_edges
        d["frozen_edges"] = frozen_edges

    def edge_lifts(self) -> list[tuple[int, int]]:
        return [(e, k) for e in self.mutable_edges + self.frozen_edges for k in (0, 1)]

    def involution(self, lift: tuple[int, int]) -> tuple[int, int]:
        return (lift[0], 1 - lift[1])


def double_cover(t: QuasiTriangulation) -> LiftedTriangulation:
    """Lift to the orientable double cover (two mirror sheets per triangle)."""
    if not t.is_pure_triangulation():
        raise SurfaceError("states containing one-sided curves have no global lift")
    slots = t.slots
    bnd = t.boundary_labels
    # sheet holding lift 0 for each slot
    lift0_sheet: dict[tuple[int, int], int] = {}
    for e, slot_list in slots.items():
        (r1, p1) = slot_list[0]
        s1 = t.regions[r1][1][p1][1]
        lift0_sheet[(r1, p1)] = 0 if s1 == 1 else 1
        if len(slot_list) == 2:
            (r2, p2) = slot_list[1]
            s2 = t.regions[r2][1][p2][1]
            lift0_sheet[(r2, p2)] = 0 if s2 == -1 else 1
    triangles = []
    for ri, r in enumerate(t.regions):
        tri = r[1]
        for sheet in (0, 1):
            order = (0, 1, 2) if sheet == 0 else (0, 2, 1)
            walk = []
            for pos in order:
                e, s = tri[pos]
                lift = 0 if lift0_sheet[(ri, pos)] == sheet else 1
                sign = s if sheet == 0 else -s
                walk.append((e, lift, sign))
            triangles.append(((ri, sheet), tuple(walk)))
    mutable = tuple(sorted(e for e in slots if e not in bnd))
    frozen = tuple(sorted(bnd))
    return LiftedTriangulation(t, tuple(triangles), mutable, frozen)


def cover_components(lt: LiftedTriangulation) -> int:
    """Connected components of the double cover (2 iff the base is orientable)."""
    adj: dict[tuple[int, int], set] = {}
    lift_members: dict[tuple[int, int], list] = {}
    for key, walk in lt.triangles:
        adj.setdefault(key, set())
        for e, lift, _ in walk:
            lift_members.setdefault((e, lift), []).append(key)
    for members in lift_members.values():
        for a in members:
            for b in members:
                if a != b:
                    adj[a].add(b)
    seen: set = set()
    comps = 0
    for key in adj:
        if key in seen:
            continue
        comps += 1
        stack = [key]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
    return comps


# -- serialization ----------------------------------------------------------------


def triangulation_to_json(t: QuasiTriangulation) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "surface": surface_to_json(t.surface),
        "regions": [list(_region_json(r)) for r in t.regions],
        "boundary": [[e, lbl] for e, lbl in t.boundary],
        "next_id": t.next_id,
        "quasi_arcs": list(t.quasi_arcs),
    }


def _region_json(r) -> tuple:
    if r[0] == TRI:
        return (TRI, [list(s) for s in r[1]])
    if r[0] == POCKET:
        return (POCKET, r[1], r[2], r[3])
    return (MOB1, list(r[1]), r[2])


_REGION_SHAPES = {TRI: (str, ((int, int),) * 3), POCKET: (str, int, int, int),
                  MOB1: (str, (int, int), int)}


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def triangulation_from_json(data: object) -> QuasiTriangulation:
    surface, regions, boundary, next_id = fields(data, "triangulation", {
        "surface": (dict, REQUIRED), "regions": ([list], REQUIRED),
        "boundary": ([(int, str)], REQUIRED), "next_id": (int, REQUIRED),
    }, SurfaceError)
    for r in regions:
        if not (r and isinstance(r[0], str) and matches(r, _REGION_SHAPES.get(r[0], ()))):
            raise SurfaceError(f"malformed region {r!r}")
    t = QuasiTriangulation(surface_from_json(surface), _tuples(regions), _tuples(boundary), next_id)
    check_state(t)
    verify_topology(t)
    return t
