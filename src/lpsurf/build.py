"""Initial triangulations of marked surfaces, their topology, the double cover and JSON.

:func:`initial_quasi_triangulation` builds a deterministic triangulation of
every surface shape it supports and runs :func:`check_state` and
:func:`verify_topology` on it; :func:`triangulation_to_json` writes a state
(``seed-from-surface --triangulation-out``).  The topology checks
(connectedness, Euler characteristic, boundary components, no interior
vertex, and orientability: a one-sided curve or a connected double cover
only on a non-orientable surface) rest on one union-find, :func:`_components`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .poly import Record
from .schema import SCHEMA_VERSION
from .surface import (
    MOB1,
    POCKET,
    TRI,
    MarkedSurface,
    QuasiTriangulation,
    Slot,
    SurfaceError,
    check_state,
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


def _components(items, pairs) -> dict:
    """Union-find: each item's representative once every pair is joined."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {x: find(x) for x in parent}


def surface_stats(t: QuasiTriangulation) -> dict:
    """Euler characteristic, vertices, boundary component sizes and connected pieces.

    Vertices are classes of region corners, corner i sitting between sides
    i-1 and i, joined across each pair of slots the gluing table
    (``QuasiTriangulation.gluing``) glues.  ``boundary_components`` lists
    the sizes, in segments, of the classes of boundary segments joined at
    their end vertices, in increasing order.  ``pieces`` counts the classes
    of regions joined across glued slots, a pocket's portal joining it to
    its mouth.
    """
    partner, slot_of = t.gluing
    sides = [t.region_sides(ri) for ri in range(len(t.regions))]

    def ends(x):  # slot x's (start, end) corners, in its edge's direction
        ri, pos = divmod(x, 3)
        side = ((ri, pos), (ri, (pos + 1) % len(sides[ri])))
        return side if sides[ri][pos][1] > 0 else side[::-1]

    slots = [3 * ri + pos for ri, rs in enumerate(sides) for pos in range(len(rs))]
    glued = [(x, partner[x]) for x in slots if x < partner[x]]
    vertex = _components((c for x in slots for c in ends(x)),
                         (pair for x, y in glued for pair in zip(ends(x), ends(y))))
    nverts = len(set(vertex.values()))
    edges = set(slot_of).union(t.boundary_labels)  # a portal lies on its pocket
    ntris = sum(1 for r in t.regions if r[0] == TRI)
    # boundary segments and their end vertices; every vertex must lie on one
    bnd = {e: [vertex[c] for c in ends(slot_of[e])] for e in t.boundary_labels}
    first: dict = {}  # vertex -> the first segment ending there
    loops = _components(bnd, ((e, first.setdefault(v, e)) for e, vs in bnd.items() for v in vs))
    sizes: dict = {}
    for e in bnd:
        sizes[loops[e]] = sizes.get(loops[e], 0) + 1
    pieces = _components(range(len(t.regions)), ((x // 3, y // 3) for x, y in glued))
    return {
        "vertices": nverts,
        "edges": len(edges),
        "triangles": ntris,
        "chi": nverts - len(edges) + ntris,
        "boundary_components": sorted(sizes.values()),
        "interior_vertices": len(set(vertex.values()).difference(*bnd.values())),
        "pieces": len(set(pieces.values())),
    }


def verify_topology(t: QuasiTriangulation) -> None:
    """Check that ``t`` is a state of its surface; raises :class:`SurfaceError` if not.

    The state must be connected, have the surface's Euler characteristic, no
    interior vertex (a puncture) and the surface's boundary component sizes.
    A state with a pocket or mob1 region holds a one-sided curve, so its
    surface must be non-orientable; a triangulation's double cover must be
    connected exactly when the surface is non-orientable.
    """
    s = t.surface
    stats = surface_stats(t)
    if stats["pieces"] != 1:
        raise SurfaceError(f"state has {stats['pieces']} connected pieces, expected 1")
    if stats["chi"] != s.euler_characteristic:
        raise SurfaceError(
            f"Euler characteristic {stats['chi']} != expected {s.euler_characteristic}"
        )
    if stats["interior_vertices"]:
        raise SurfaceError("interior vertex found: punctures are forbidden")
    want = sorted(s.boundary)
    if stats["boundary_components"] != want:
        raise SurfaceError(f"boundary structure {stats['boundary_components']} != expected {want}")
    if not t.is_pure_triangulation():
        if s.orientable:
            raise SurfaceError("one-sided curve on an orientable surface")
    elif (cover_components(double_cover(t)) == 2) != s.orientable:
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
    slot_of, bnd = t.gluing[1], t.boundary_labels
    # the sheet holding lift 0 at each slot: sheet 0 at an edge's least slot
    # when its sign is +1, and at its other slot when its sign is -1
    lift0_sheet = {x: 0 if (s == 1) == (slot_of[e] == x) else 1
                   for ri, r in enumerate(t.regions) for x, (e, s) in enumerate(r[1], 3 * ri)}
    triangles = []
    for ri, r in enumerate(t.regions):
        tri = r[1]
        for sheet in (0, 1):
            order = (0, 1, 2) if sheet == 0 else (0, 2, 1)
            walk = []
            for pos in order:
                e, s = tri[pos]
                lift = 0 if lift0_sheet[3 * ri + pos] == sheet else 1
                sign = s if sheet == 0 else -s
                walk.append((e, lift, sign))
            triangles.append(((ri, sheet), tuple(walk)))
    mutable = tuple(sorted(e for e in slot_of if e not in bnd))
    frozen = tuple(sorted(bnd))
    return LiftedTriangulation(t, tuple(triangles), mutable, frozen)


def cover_components(lt: LiftedTriangulation) -> int:
    """Connected components of the double cover (2 iff the base is orientable)."""
    first: dict = {}  # edge lift -> the first triangle holding it
    reps = _components((key for key, _ in lt.triangles),
                       ((key, first.setdefault(lift[:2], key))
                        for key, walk in lt.triangles for lift in walk))
    return len(set(reps.values()))


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

