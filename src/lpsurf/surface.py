"""Quasi-triangulations of unpunctured marked surfaces and their flips.

A state is a region complex: oriented triangles with signed edge slots, plus
two special region kinds for configurations containing a one-sided closed
curve.  A ``pocket`` is a Moebius-strip piece cut off by a portal edge (a loop
at a marked point) and containing one one-sided curve together with the unique
arc crossing it; a ``mob1`` region is the whole Moebius strip with one marked
point holding a bare one-sided curve.  Signs record the traversal direction of
each side along the region's boundary walk; a pair of slots of the same arc
glues two region boundaries, coherently when the signs differ and with an
orientation reversal when they agree.

Flips are local rewrites:

* generic arcs rotate the diagonal of their quadrilateral;
* an arc whose quadrilateral walk repeats a side adjacently with equal signs
  cuts off a Moebius piece, so its flip replaces it by a one-sided curve
  (and conversely for the curve);
* the crossing arc of a pocket flips by reattaching the pocket mouth the
  other way around (the two non-portal sides of the portal triangle swap).
"""

from __future__ import annotations

from typing import Mapping, Optional

from .lp_core import MAX_RANK, LPSeed
from .poly import Polynomial, PolyError, Record, VariableContext, cached_attribute
from .schema import REQUIRED, SCHEMA_VERSION, fields

__all__ = [
    "MarkedSurface",
    "QuasiTriangulation",
    "SurfaceError",
    "rank",
    "flip",
    "new_quasi_arc",
    "canonical_code",
    "canonical_form",
    "seed_from_quasi_triangulation",
    "detect_m2",
    "check_state",
    "surface_to_json",
    "surface_from_json",
]

TRI = "tri"
POCKET = "pocket"
MOB1 = "mob1"


class SurfaceError(PolyError):
    """Invalid surface or illegal state/flip request."""


class MarkedSurface(Record):
    """Unpunctured bordered surface: genus, cross-caps, marked boundary."""

    _fields = ("genus", "cross_caps", "boundary", "boundary_variables")

    def __init__(self, genus: int, cross_caps: int, boundary: tuple[int, ...],
                 boundary_variables: bool = True):
        d = self.__dict__
        d["genus"] = genus
        d["cross_caps"] = cross_caps
        d["boundary"] = boundary
        d["boundary_variables"] = boundary_variables

    def check(self) -> None:
        if self.genus < 0 or self.cross_caps < 0:
            raise SurfaceError("negative genus or cross-cap count")
        if len(self.boundary) < 1:
            raise SurfaceError("at least one boundary component is required")
        if any(m < 1 for m in self.boundary):
            raise SurfaceError("every boundary component needs a marked point")
        if self.rank < 1:
            raise SurfaceError(
                "surface admits no quasi-triangulation (monogon, digon or triangle)"
            )

    @property
    def orientable(self) -> bool:
        return self.cross_caps == 0

    @property
    def marked_points(self) -> int:
        return sum(self.boundary)

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.cross_caps - len(self.boundary)

    @property
    def rank(self) -> int:
        return self.marked_points - 3 * self.euler_characteristic

    def default_labels(self) -> tuple[tuple[str, ...], ...]:
        if len(self.boundary) == 1:
            return (tuple(f"b{j + 1}" for j in range(self.boundary[0])),)
        return tuple(
            tuple(f"b{i + 1}_{j + 1}" for j in range(m)) for i, m in enumerate(self.boundary)
        )


def rank(surface: MarkedSurface) -> int:
    """Number of quasi-arcs in any quasi-triangulation of the surface."""
    surface.check()
    return surface.rank


# -- states -------------------------------------------------------------------

Slot = tuple[int, int]  # (edge id, +1/-1 traversal sign)

# Objects that every state shares, so that a slot index or a code allocates
# none of its own.  A table grows only by rebinding a longer copy (or by one
# atomic ``setdefault``), so a thread never reads a half-built one.  No lock:
# a thread that loses a race keeps entries equal to the winner's, and a table
# a race left shorter is grown again on its next use.
_SLOT_PAIRS: tuple = ()  # ((ri, 0), (ri, 1), (ri, 2)) at index ri
_EDGE_TOKENS: tuple = ()  # ("e", k) at index k
_BOUNDARY_TOKENS: dict = {}  # label L -> (None, ("b", L, 1), ("b", L, -1))


def _slot_pairs(n: int) -> tuple:
    global _SLOT_PAIRS
    pairs = _SLOT_PAIRS
    if len(pairs) < n:
        pairs = _SLOT_PAIRS = pairs + tuple(
            ((ri, 0), (ri, 1), (ri, 2)) for ri in range(len(pairs), n))
    return pairs


def _edge_tokens(n: int) -> tuple:
    global _EDGE_TOKENS
    tokens = _EDGE_TOKENS
    if len(tokens) < n:
        tokens = _EDGE_TOKENS = tokens + tuple(("e", k) for k in range(len(tokens), n))
    return tokens


class QuasiTriangulation(Record):
    """Immutable region complex; flips return fresh states.

    Each boundary segment has its own label, as it has its own frozen
    variable.  The derived structure below is built on first use and cached
    on the instance; it takes no part in equality, hashing or serialization.  A
    flipped state starts out holding its parent's boundary data (the
    boundary dicts and the least-labelled segment), which a flip never
    changes; the BFS drops an expanded state's structure, and a later read
    rebuilds it.
    """

    _fields = ("surface", "regions", "boundary", "next_id")

    def __init__(self, surface: MarkedSurface, regions: tuple,
                 boundary: tuple[tuple[int, str], ...], next_id: int):
        d = self.__dict__
        d["surface"] = surface
        d["regions"] = regions
        d["boundary"] = boundary  # (edge id, label) per boundary segment
        d["next_id"] = next_id

    # -- derived structure -------------------------------------------------

    @cached_attribute
    def boundary_labels(self) -> dict[int, str]:
        """The label of each boundary segment; SurfaceError if ids or labels repeat."""
        labels = dict(self.boundary)
        if len(set(labels.values())) != len(self.boundary):
            raise SurfaceError("boundary segments must have distinct ids and labels")
        return labels

    @cached_attribute
    def boundary_tokens(self) -> dict[int, tuple]:
        """The shared code tokens of each boundary segment, indexed by sign.

        Index 1 holds ``("b", label, 1)`` and index -1 ``("b", label, -1)``.
        """
        return {e: _BOUNDARY_TOKENS.get(label) or _BOUNDARY_TOKENS.setdefault(
                    label, (None, ("b", label, 1), ("b", label, -1)))
                for e, label in self.boundary}

    @cached_attribute
    def least_boundary(self) -> Optional[int]:
        """The boundary segment with the least label in string order, if any."""
        labels = self.boundary_labels
        return min(labels, key=labels.get, default=None)

    @cached_attribute
    def slots(self) -> dict[int, list[tuple[int, int]]]:
        """Triangle and mob1 side slots per edge id: (region index, position).

        A portal's only slot is its side in the pocket's mouth triangle.
        The pairs are shared by every state.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        for r, pairs in zip(self.regions, _slot_pairs(len(self.regions))):
            if r[0] == TRI:
                for (e, _), pair in zip(r[1], pairs):
                    out.setdefault(e, []).append(pair)
            elif r[0] == MOB1:
                out.setdefault(r[1][0], []).append(pairs[0])
        return out

    @cached_attribute
    def pockets(self) -> tuple[tuple[int, int, int, int], ...]:
        """(region index, portal, curve, crossing) per pocket."""
        return tuple((ri, r[1], r[2], r[3]) for ri, r in enumerate(self.regions) if r[0] == POCKET)

    @cached_attribute
    def pocket_of(self) -> dict[int, tuple[int, int, int, int]]:
        """The pocket of each portal, curve and crossing arc."""
        return {e: pocket for pocket in self.pockets for e in pocket[1:]}

    @cached_attribute
    def mob1_of(self) -> dict[int, tuple[int, Slot]]:
        """(region index, side) of each mob1 region, by its curve."""
        return {r[2]: (ri, r[1]) for ri, r in enumerate(self.regions) if r[0] == MOB1}

    @cached_attribute
    def quasi_arcs(self) -> tuple[int, ...]:
        """Arcs, crossing arcs and one-sided curves, in id order."""
        ids = set(self.slots).difference(self.boundary_labels)
        for _, portal, curve, crossing in self.pockets:
            ids.discard(portal)
            ids.update((curve, crossing))
        ids.update(self.mob1_of)
        return tuple(sorted(ids))

    @cached_attribute
    def canonical_numbering(self) -> dict:
        """The numbering of :func:`canonical_form`.

        The flip BFS stores it when it computes the code, and drops it once
        the state is expanded.
        """
        return canonical_form(self)[1]

    def is_pure_triangulation(self) -> bool:
        return all(r[0] == TRI for r in self.regions)

    def region_sides(self, ri: int) -> tuple[Slot, ...]:
        r = self.regions[ri]
        if r[0] == TRI:
            return r[1]
        if r[0] == POCKET:
            return ((r[1], 1),)
        return (r[1],)


# -- flips --------------------------------------------------------------------


def _rooted(tri: tuple[Slot, Slot, Slot], pos: int) -> tuple[Slot, Slot, Slot]:
    return (tri[pos], tri[(pos + 1) % 3], tri[(pos + 2) % 3])


def _classify(t: QuasiTriangulation, q: int) -> tuple[str, tuple[int, ...], tuple[Slot, ...]]:
    """The local picture of quasi-arc ``q``: (kind, regions its flip replaces, sides).

    The sides are what the flip and the exchange polynomial read:

    * ``plain``: the boundary walk w0 w1 w2 w3 of q's two triangles glued
      along q, the second one reversed when that gluing reverses orientation;
    * ``to_curve``: q cuts off a Moebius piece, because two adjacent sides of
      its walk are one arc glued with equal signs.  The sides are that arc
      (the crossing arc of the new pocket) and the two sides of the new mouth;
    * ``doubled``: the boundary side of q's self-folded triangle;
    * ``mob1``: the side of the mob1 region holding the curve q;
    * ``curve``, ``crossing``: the mouth triangle of q's pocket, rooted at the
      portal.
    """
    pocket = t.pockets and t.pocket_of.get(q)  # a triangulation builds no pocket_of
    if pocket and q != pocket[1]:
        portal = pocket[1]
        if portal not in t.slots:
            raise SurfaceError(f"portal {portal} has no mouth triangle")
        mi, pos = t.slots[portal][0]
        kind = "curve" if q == pocket[2] else "crossing"
        return kind, (pocket[0], mi), _rooted(t.regions[mi][1], pos)
    if q in t.mob1_of:
        ri, side = t.mob1_of[q]
        return "mob1", (ri,), (side,)
    if pocket or q in t.boundary_labels or q not in t.slots:
        # a portal, a boundary segment or no edge of this state
        raise SurfaceError(f"{q} is not a quasi-arc of this state")
    if len(t.slots[q]) != 2:
        raise SurfaceError(f"edge {q} has {len(t.slots[q])} slots, expected 2")
    (r1, p1), (r2, p2) = t.slots[q]
    if r1 == r2:
        tri = t.regions[r1][1]
        if tri[p1][1] != tri[p2][1]:
            raise SurfaceError("coherently self-glued arc: puncture pattern")
        side = tri[3 - p1 - p2]
        if side[0] not in t.boundary_labels:
            raise SurfaceError("arc doubled against a non-boundary side is illegal")
        return "doubled", (r1,), (side,)
    t1 = _rooted(t.regions[r1][1], p1)
    t2 = _rooted(t.regions[r2][1], p2)
    if t1[0][1] == t2[0][1]:
        w = (t1[1], t1[2], (t2[2][0], -t2[2][1]), (t2[1][0], -t2[1][1]))
    else:
        w = (t1[1], t1[2], t2[1], t2[2])
    for a, b in ((1, 2), (3, 0)):
        if w[a][0] == w[b][0]:
            if w[a][1] != w[b][1]:
                raise SurfaceError("adjacent coherent self-gluing: puncture pattern")
            return "to_curve", (r1, r2), (w[a], w[a - 2], w[a - 1])
    return "plain", (r1, r2), w


def flip(t: QuasiTriangulation, q: int) -> QuasiTriangulation:
    """The unique quasi-triangulation differing from ``t`` exactly at ``q``.

    The new quasi-arc takes the id ``t.next_id``; a new pocket's portal takes
    the id after it.  The regions the flip replaces are dropped and its new
    regions appended.  The new state shares ``t``'s surface, boundary and the
    structure derived from the boundary alone (``boundary_labels``, checked
    once, ``boundary_tokens``, ``least_boundary``), and builds the rest on first use.
    """
    kind, drop, sides = _classify(t, q)
    n = t.next_id
    if kind == "plain":
        w0, w1, w2, w3 = sides
        add = ((TRI, ((n, 1), w1, w2)), (TRI, ((n, -1), w3, w0)))
    elif kind == "to_curve":
        crossing, a, b = sides
        add = ((TRI, ((n + 1, -1), a, b)), (POCKET, n + 1, n, crossing[0]))
    elif kind == "doubled":
        add = ((MOB1, sides[0], n),)
    elif kind == "mob1":
        add = ((TRI, ((n, 1), (n, 1), sides[0])),)
    else:
        _, portal, curve, crossing = t.pocket_of[q]
        mouth, a, b = sides
        if kind == "curve":
            add = ((TRI, ((n, 1), b, (crossing, 1))), (TRI, ((n, -1), (crossing, 1), a)))
        else:  # reattach the mouth the other way around
            add = ((TRI, (mouth, b, a)), (POCKET, portal, curve, n))
    regions = t.regions
    for ri in sorted(drop, reverse=True):
        regions = regions[:ri] + regions[ri + 1:]
    regions += add
    next_id = n + 2 if kind == "to_curve" else n + 1
    child = QuasiTriangulation(t.surface, regions, t.boundary, next_id)
    vars(child).update(boundary_labels=t.boundary_labels, boundary_tokens=t.boundary_tokens,
                       least_boundary=t.least_boundary)
    return child


def new_quasi_arc(before: QuasiTriangulation, after: QuasiTriangulation) -> int:
    """The quasi-arc created by the flip taking ``before`` to ``after``."""
    diff = set(after.quasi_arcs).difference(before.quasi_arcs)
    if len(diff) != 1:
        raise SurfaceError("states do not differ by a single flip")
    return diff.pop()


# -- canonical form -------------------------------------------------------------


def canonical_code(t: QuasiTriangulation) -> tuple:
    """The code of :func:`canonical_form`; gauge and label invariant."""
    return canonical_form(t)[0]


def canonical_form(t: QuasiTriangulation) -> tuple[tuple, dict]:
    """The BFS code from the least-labelled boundary segment, and its walk's numbering.

    A flag is a region, an entry side and a direction; the code from a flag
    has one row per region in BFS order.  Boundary tokens carry the traversal
    sign relative to the segment's stored direction, which pins the boundary
    orientation and keeps mirror states distinct; arcs and portals are
    numbered in discovery order.  That numbering, of the walk that gives the
    code, is the second result: it maps each arc and portal id to its index.
    A pocket's curve and crossing arc map to ``("curve", k)`` and
    ``("crossing", k)``, k the index of the pocket's portal, and a mob1
    curve to ``("mob1", 0)``: its region's one side is a boundary segment,
    so the walk starts there.  Two states with one code get the same keys on
    arcs that an isomorphism matches, where equal codes mean isomorphic
    states (see :func:`lpsurf.explorer.explore_flips`).

    The code is the walk from one flag: the one slot of the boundary segment
    labelled L, L the least boundary label in string order, entered against
    its sign, so every code opens with ``("b", L, -1)`` after its region
    kind.  Labels are distinct, so that flag, and with it the numbering, is
    unique.  A pocket has no boundary side: the walk reaches it through its
    portal from its mouth triangle.  The code's tokens are objects shared by
    every code.  A state built directly whose least-labelled segment is
    missing or has other than one slot is refused with a SurfaceError.
    """
    slots, links = t.slots, t.slots
    pure = t.is_pure_triangulation()
    if pure:  # read no pocket index
        sides = [r[1] for r in t.regions]
    else:
        sides = [t.region_sides(ri) for ri in range(len(t.regions))]
        if t.pockets:  # a portal also leads from its mouth triangle into its pocket
            links = dict(slots)
            for pi, portal, _, _ in t.pockets:
                links[portal] = slots[portal] + [(pi, 0)]
    flags = slots.get(t.least_boundary, ())
    if len(flags) != 1:
        raise SurfaceError(f"least-labelled boundary segment has {len(flags)} slots, expected 1")
    (ri, p), = flags
    code, num = _walk_code(t, sides, links, ri, p, -sides[ri][p][1])
    if not pure:
        for _, portal, curve, crossing in t.pockets:
            num[curve], num[crossing] = ("curve", num[portal]), ("crossing", num[portal])
        for curve in t.mob1_of:
            num[curve] = ("mob1", 0)
    return code, num


# (arity, entry side p, direction d) -> the positions of a region's sides in
# walking order
_WALK = {(n, p, d): tuple((p + d * k) % n for k in range(n))
         for n in (1, 3) for p in range(n) for d in (1, -1)}


def _walk_code(t, sides, links, r0, p0, d0):
    """The code from one flag: its rows in BFS order, then the region count.

    Each row is built in one pass over the region's sides, which also queues
    each unseen neighbour across ``links`` (the slots of each edge), entered
    so that the crossing is coherent.  A region is marked seen when it is
    queued, so it keeps the entry of its first queueing, as in a walk that
    marks it when its row is built.  The code comes with the walk's
    numbering of arc and portal ids.
    """
    regions, bnd_tokens, edge_tokens = t.regions, t.boundary_tokens, _edge_tokens(len(links))
    seen = {r0}
    num: dict[int, int] = {}  # arc and portal ids in discovery order
    queue = [(r0, p0, d0)]
    code = []
    for ri, entry, d in queue:
        rs = sides[ri]
        row = [regions[ri][0]]
        for pos in _WALK[len(rs), entry, d]:
            e, s = rs[pos]
            if e in bnd_tokens:
                row.append(bnd_tokens[e][d * s])
                continue
            k = num.get(e)
            if k is None:  # the first crossing of e queues every region it links
                k = num[e] = len(num)
                for oi, opos in links[e]:
                    if oi not in seen:
                        seen.add(oi)
                        queue.append((oi, opos, -d * s * sides[oi][opos][1]))
            row.append(edge_tokens[k])
        code.append(tuple(row))
    code.append(("#regions", len(seen)))
    return tuple(code), num


# -- seed extraction -------------------------------------------------------------


def seed_from_quasi_triangulation(
    t: QuasiTriangulation,
    names: Optional[Mapping[int, str]] = None,
) -> LPSeed:
    """The LP seed attached to a quasi-triangulation.

    Cluster variables follow the quasi-arcs in id order; boundary segments
    contribute frozen variables, or the constant 1 when the surface carries no
    boundary variables.
    """
    arcs = t.quasi_arcs
    if names is None:
        names = {q: f"x{q}" for q in arcs}
    cluster = tuple(names[q] for q in arcs)
    bv = t.surface.boundary_variables
    frozen = tuple(lbl for _, lbl in t.boundary) if bv else ()
    ctx = VariableContext(cluster, frozen)
    var = {q: Polynomial.variable(ctx, names[q]) for q in arcs}
    one = Polynomial.const(ctx, 1)

    def lam(side: Slot) -> Polynomial:
        e = side[0]
        if e in t.boundary_labels:
            return Polynomial.variable(ctx, t.boundary_labels[e]) if bv else one
        if e in t.pocket_of:  # a portal: its curve times its crossing arc
            return var[t.pocket_of[e][2]].mul(var[t.pocket_of[e][3]])
        return var[e]

    polys = []
    for q in arcs:
        kind, _, sides = _classify(t, q)
        if kind == "plain":
            w0, w1, w2, w3 = map(lam, sides)
            polys.append(w0.mul(w2).add(w1.mul(w3)))
        elif kind in ("doubled", "mob1"):
            polys.append(lam(sides[0]).mul_int(2))
        elif kind == "crossing":
            a, b = lam(sides[1]), lam(sides[2])
            polys.append(a.add(b).pow(2).add(var[t.pocket_of[q][2]].pow(2).mul(a).mul(b)))
        else:  # to_curve and curve: the two sides of the pocket's mouth
            polys.append(lam(sides[1]).add(lam(sides[2])))
    return LPSeed.initial(cluster, frozen, polys).require_valid()


def detect_m2(t: QuasiTriangulation) -> list[int]:
    """Arcs of a triangulation whose flip produces a one-sided curve."""
    if not t.is_pure_triangulation():
        raise SurfaceError("detect_m2 expects a triangulation")
    return [q for q in t.quasi_arcs if _classify(t, q)[0] in ("to_curve", "doubled")]


# -- state validation ------------------------------------------------------------


def check_state(t: QuasiTriangulation) -> None:
    """Structural invariants of a state; raises SurfaceError on violation."""
    bnd, slots, pocket_of = t.boundary_labels, t.slots, t.pocket_of  # refuses repeated labels
    for _, portal, curve, crossing in t.pockets:
        if portal not in slots:
            raise SurfaceError(f"portal {portal} has no mouth triangle")
        if crossing in slots or curve in slots:
            raise SurfaceError("pocket contents must not appear as region sides")
    # the loop above keeps curves and crossing arcs off region sides, so a
    # side in ``pocket_of`` is a portal
    for e, slot_list in slots.items():
        expected = 1 if (e in bnd or e in pocket_of) else 2
        if len(slot_list) != expected:
            raise SurfaceError(f"edge {e} has {len(slot_list)} slots, expected {expected}")
    for e in bnd:
        if e not in slots:
            raise SurfaceError(f"boundary edge {e} lies on no region")
    if t.next_id <= max(set(slots).union(bnd, t.quasi_arcs), default=-1):
        raise SurfaceError(f"next_id {t.next_id} is not above every id of the state")
    for ri, r in enumerate(t.regions):
        if any(s not in (1, -1) for _, s in t.region_sides(ri)):
            raise SurfaceError(f"region {ri} has a side sign other than 1 or -1")
        if r[0] == TRI:
            by_edge: dict[int, list[int]] = {}
            for pos, (e, s) in enumerate(r[1]):
                by_edge.setdefault(e, []).append(s)
            for e, signs in by_edge.items():
                if len(signs) == 2:
                    if signs[0] != signs[1]:
                        raise SurfaceError("coherently self-glued side: puncture pattern")
                    others = [x for x, _ in r[1] if x != e]
                    if others and others[0] not in bnd:
                        raise SurfaceError("arc doubling against a non-boundary side")
    if len(t.quasi_arcs) != t.surface.rank:
        raise SurfaceError(
            f"state has {len(t.quasi_arcs)} quasi-arcs, surface rank is {t.surface.rank}"
        )


# -- serialization ----------------------------------------------------------------


def surface_to_json(s: MarkedSurface) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "genus": s.genus,
        "cross_caps": s.cross_caps,
        "boundary": list(s.boundary),
        "boundary_variables": s.boundary_variables,
    }


def surface_from_json(data: object) -> MarkedSurface:
    genus, cross_caps, boundary, boundary_variables, punctures = fields(data, "surface", {
        "genus": (int, 0), "cross_caps": (int, 0), "boundary": ([int], REQUIRED),
        "boundary_variables": (bool, True), "punctures": (int, 0),
    }, SurfaceError)
    if punctures:
        raise SurfaceError("punctured surfaces are rejected")
    s = MarkedSurface(genus, cross_caps, tuple(boundary), boundary_variables)
    s.check()
    if s.rank > MAX_RANK:
        raise SurfaceError(f"surface rank {s.rank} is above the limit of {MAX_RANK}")
    return s
