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


# -- states -------------------------------------------------------------------

Slot = tuple[int, int]  # (edge id, +1/-1 traversal sign)

# Objects that every state shares, so that a code allocates none of its own.
# A table grows only by rebinding a longer copy (or by one atomic
# ``setdefault``), so a thread never reads a half-built one.  No lock: a
# thread that loses a race keeps entries equal to the winner's, and a table a
# race left shorter is grown again on its next use.
_EDGE_TOKENS: tuple = ()  # ("e", k) at index k
_BOUNDARY_TOKENS: dict = {}  # label L -> (None, ("b", L, 1), ("b", L, -1))


def _edge_tokens(n: int) -> tuple:
    global _EDGE_TOKENS
    tokens = _EDGE_TOKENS
    if len(tokens) < n:
        tokens = _EDGE_TOKENS = tokens + tuple(("e", k) for k in range(len(tokens), n))
    return tokens


def _sides(r) -> tuple[Slot, ...]:
    """A region's sides: a triangle's three, a pocket's portal, a mob1 region's one."""
    if r[0] == TRI:
        return r[1]
    if r[0] == POCKET:
        return ((r[1], 1),)
    return (r[1],)


class QuasiTriangulation(Record):
    """Immutable region complex; flips return fresh states.

    Each boundary segment has its own label, as it has its own frozen
    variable.  The derived structure below is built on first use and cached
    on the instance; it takes no part in equality, hashing or serialization.  A
    flipped state starts out holding its parent's boundary data (the
    boundary dicts and the least-labelled segment), which a flip never
    changes, and a gluing table derived from its parent's; the BFS drops an
    expanded state's structure, and a later read rebuilds it.
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
    def gluing(self) -> tuple[list[int], dict[int, int]]:
        """The gluing table ``(partner, slot_of)``, built in one pass over the regions.

        Slot ``x = 3 * ri + pos`` is side ``pos`` of region ``ri``.
        ``partner[x]`` is the slot glued to x, or -1 for a boundary side and
        for the unused slots 1 and 2 of a pocket or mob1 region; a portal's
        side in its mouth triangle is glued to its pocket's one side.
        ``slot_of`` maps each edge on a region side to its least slot.
        :func:`flip` derives its child's table from its parent's, equal to
        this build entry for entry.  SurfaceError if an edge lies on more
        than two sides.
        """
        partner = [-1] * (3 * len(self.regions))
        slot_of: dict[int, int] = {}
        for ri, r in enumerate(self.regions):
            for x, (e, _) in enumerate(_sides(r), 3 * ri):
                y = slot_of.setdefault(e, x)
                if y != x:
                    if partner[y] >= 0:
                        raise SurfaceError(f"edge {e} lies on more than two region sides")
                    partner[x], partner[y] = y, x
        return partner, slot_of

    def slot_count(self, e: int) -> int:
        """How many region sides edge ``e`` lies on, a portal's pocket included."""
        partner, slot_of = self.gluing
        x = slot_of.get(e)
        return 0 if x is None else 1 if partner[x] < 0 else 2

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
        ids = set(self.gluing[1]).difference(self.boundary_labels)
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
        return _sides(self.regions[ri])


# -- flips --------------------------------------------------------------------


_AFTER = ((1, 2), (2, 0), (0, 1))  # the next two positions of a triangle after each


def _mouth(t: QuasiTriangulation, pocket: tuple[int, int, int, int]) -> int:
    """The slot of ``pocket``'s portal in its mouth triangle; SurfaceError if it has none."""
    x = t.gluing[0][3 * pocket[0]]
    if x < 0 or t.regions[x // 3][0] != TRI:
        raise SurfaceError(f"portal {pocket[1]} has no mouth triangle")
    return x


def _classify(t: QuasiTriangulation, q: int) -> tuple[str, tuple[int, ...], tuple, tuple]:
    """The local picture of quasi-arc ``q``: (kind, regions its flip replaces, sides, slots).

    The sides are what the flip and the exchange polynomial read, and the
    slots are where ``t`` holds them:

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
        x = _mouth(t, pocket)
        (mi, pos), (i, j) = divmod(x, 3), _AFTER[x % 3]
        tri = t.regions[mi][1]
        kind = "curve" if q == pocket[2] else "crossing"
        return kind, (pocket[0], mi), (tri[pos], tri[i], tri[j]), (x, x - pos + i, x - pos + j)
    if q in t.mob1_of:
        ri, side = t.mob1_of[q]
        return "mob1", (ri,), (side,), (3 * ri,)
    partner, slot_of = t.gluing
    x = slot_of.get(q)
    if pocket or q in t.boundary_labels or x is None:
        # a portal, a boundary segment or no edge of this state
        raise SurfaceError(f"{q} is not a quasi-arc of this state")
    y = partner[x]
    if y < 0:
        raise SurfaceError(f"edge {q} has 1 slots, expected 2")
    (r1, p1), (r2, p2) = divmod(x, 3), divmod(y, 3)
    if r1 == r2:
        tri = t.regions[r1][1]
        if tri[p1][1] != tri[p2][1]:
            raise SurfaceError("coherently self-glued arc: puncture pattern")
        side = tri[3 - p1 - p2]
        if side[0] not in t.boundary_labels:
            raise SurfaceError("arc doubled against a non-boundary side is illegal")
        return "doubled", (r1,), (side,), (3 * r1 + 3 - p1 - p2,)
    tri1, tri2 = t.regions[r1][1], t.regions[r2][1]
    (i1, j1), (i2, j2) = _AFTER[p1], _AFTER[p2]
    if tri1[p1][1] == tri2[p2][1]:
        w = (tri1[i1], tri1[j1], (tri2[j2][0], -tri2[j2][1]), (tri2[i2][0], -tri2[i2][1]))
        o = (x - p1 + i1, x - p1 + j1, y - p2 + j2, y - p2 + i2)
    else:
        w = (tri1[i1], tri1[j1], tri2[i2], tri2[j2])
        o = (x - p1 + i1, x - p1 + j1, y - p2 + i2, y - p2 + j2)
    for a, b in ((1, 2), (3, 0)):
        if w[a][0] == w[b][0]:
            if w[a][1] != w[b][1]:
                raise SurfaceError("adjacent coherent self-gluing: puncture pattern")
            return "to_curve", (r1, r2), (w[a], w[a - 2], w[a - 1]), (o[a], o[a - 2], o[a - 1])
    return "plain", (r1, r2), w, o


def flip(t: QuasiTriangulation, q: int) -> QuasiTriangulation:
    """The unique quasi-triangulation differing from ``t`` exactly at ``q``.

    The new quasi-arc takes the id ``t.next_id``; a new pocket's portal takes
    the id after it.  A flip replaces one or two regions by as many new ones,
    written at the indices of the regions they replace, so every other
    region and slot keeps its index.  The new state shares ``t``'s surface,
    boundary and the structure derived from the boundary alone
    (``boundary_labels``, checked once, ``boundary_tokens``,
    ``least_boundary``), holds a gluing table derived from ``t``'s by
    :func:`_flipped_gluing`, and builds the rest on first use.

    Each kind also says where its sides go: ``moves`` takes each side that
    a new region keeps from its old slot to its new one, ``pairs`` glues
    the two new slots of each edge whose both slots are new (the new arc or
    portal, and a portal or crossing arc that changes place), and ``gone``
    lists the edges that leave every region side.
    """
    kind, drop, sides, where = _classify(t, q)
    n = t.next_id
    a, b = 3 * drop[0], 3 * drop[-1]  # the first slot of each replaced region
    if kind == "plain":
        w0, w1, w2, w3 = sides
        add = ((TRI, ((n, 1), w1, w2)), (TRI, ((n, -1), w3, w0)))
        moves = ((w0, where[0], b + 2), (w1, where[1], a + 1), (w2, where[2], a + 2),
                 (w3, where[3], b + 1))
        pairs, gone = ((n, a, b),), (q,)
    elif kind == "to_curve":
        crossing, w1, w2 = sides
        add = ((TRI, ((n + 1, -1), w1, w2)), (POCKET, n + 1, n, crossing[0]))
        moves = ((w1, where[1], a + 1), (w2, where[2], a + 2))
        pairs, gone = ((n + 1, a, b),), (q, crossing[0])
    elif kind == "doubled":
        add = ((MOB1, sides[0], n),)
        moves, pairs, gone = ((sides[0], where[0], a),), (), (q,)
    elif kind == "mob1":
        add = ((TRI, ((n, 1), (n, 1), sides[0])),)
        moves, pairs, gone = ((sides[0], where[0], a + 2),), ((n, a, a + 1),), ()
    else:
        _, portal, curve, crossing = t.pocket_of[q]
        mouth, w1, w2 = sides
        if kind == "curve":
            add = ((TRI, ((n, 1), w2, (crossing, 1))), (TRI, ((n, -1), (crossing, 1), w1)))
            moves = ((w2, where[2], a + 1), (w1, where[1], b + 2))
            pairs, gone = ((n, a, b), (crossing, a + 2, b + 1)), (portal,)
        else:  # reattach the mouth the other way around
            add = ((POCKET, portal, curve, n), (TRI, (mouth, w2, w1)))
            moves = ((w2, where[2], b + 1), (w1, where[1], b + 2))
            pairs, gone = ((portal, a, b),), ()
    regions = list(t.regions)
    for ri, r in zip(drop, add):
        regions[ri] = r
    next_id = n + 2 if kind == "to_curve" else n + 1
    child = QuasiTriangulation(t.surface, tuple(regions), t.boundary, next_id)
    vars(child).update(boundary_labels=t.boundary_labels, boundary_tokens=t.boundary_tokens,
                       least_boundary=t.least_boundary,
                       gluing=_flipped_gluing(t, drop, moves, pairs, gone))
    return child


_UNGLUED = (-1, -1, -1)


def _flipped_gluing(t: QuasiTriangulation, drop: tuple[int, ...], moves, pairs, gone) -> tuple:
    """``t``'s gluing table after a flip replaced the regions at ``drop``.

    Copies the table and rewrites only the replaced regions' slots and their
    partners, at most 6 of each, from the flip's ``moves``, ``pairs`` and
    ``gone`` (see :func:`flip`).  A kept side's old partner lies outside
    the replaced regions, or is the old slot of another kept side of the
    same edge, or is -1 on a boundary side.
    """
    old, slot_of = t.gluing
    partner, slot_of = old[:], slot_of.copy()
    for ri in drop:  # slots a pocket or mob1 region leaves unused stay unglued
        partner[3 * ri:3 * ri + 3] = _UNGLUED
    for e in gone:
        del slot_of[e]
    for e, x, y in pairs:
        partner[x], partner[y] = y, x
        slot_of[e] = x if x < y else y
    for (e, _), o, x in moves:
        y = old[o]
        if y // 3 in drop:  # the kept side's partner is kept too, and moved
            y = next(new for _, old_slot, new in moves if old_slot == y)
        partner[x] = y
        if y < 0:
            slot_of[e] = x
        else:
            partner[y] = x
            slot_of[e] = x if x < y else y
    return partner, slot_of


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
    unique.  The walk crosses each edge through the gluing table
    (``QuasiTriangulation.gluing``).  A pocket has no boundary side: the walk
    reaches it through its portal from its mouth triangle, whose portal slot
    the table glues to the pocket.  The code's tokens are objects shared by
    every code.  A state built directly whose least-labelled segment is
    missing or has other than one slot is refused with a SurfaceError.
    """
    flags = t.slot_count(t.least_boundary)
    if flags != 1:
        raise SurfaceError(f"least-labelled boundary segment has {flags} slots, expected 1")
    partner, slot_of = t.gluing
    return _walk_code(t, partner, slot_of[t.least_boundary])


# (arity, entry side p, direction d) -> the positions of a region's sides in
# walking order
_WALK = {(n, p, d): tuple((p + d * k) % n for k in range(n))
         for n in (1, 3) for p in range(n) for d in (1, -1)}


def _walk_code(t, partner, x0):
    """The code from the flag at slot ``x0``, entered against its sign, and its numbering.

    The code is the walk's rows in BFS order, then the region count.  Each
    row is built in one pass over the region's sides, which also queues
    each unseen neighbour, read as ``partner[x]`` for the side's slot x,
    entered so that the crossing is coherent: a queued direction is
    multiplied by the entered side's sign when the region's row is built.
    A region is marked seen when it is queued, so it keeps the entry of its
    first queueing, as in a walk that marks it when its row is built.  The
    numbering keys the walk's arc and portal ids in discovery order, then
    the curve and crossing arc of each pocket and the curve of each mob1
    region it reached (see :func:`canonical_form`).
    """
    regions, bnd_tokens, edge_tokens = t.regions, t.boundary_tokens, _edge_tokens(len(partner))
    r0 = x0 // 3
    seen = {r0}
    num: dict = {}  # arc and portal ids in discovery order
    queue = [(r0, x0 - 3 * r0, -1)]
    code = []
    inner = []  # the pocket and mob1 regions reached
    for ri, entry, d in queue:
        r = regions[ri]
        if r[0] == TRI:
            rs = r[1]
        else:
            rs = _sides(r)
            inner.append(r)
        d *= rs[entry][1]
        row = [r[0]]
        x = 3 * ri
        for pos in _WALK[len(rs), entry, d]:
            e, s = rs[pos]
            if e in bnd_tokens:
                row.append(bnd_tokens[e][d * s])
                continue
            k = num.get(e)
            if k is None:  # the first crossing of e queues the region across it
                k = num[e] = len(num)
                y = partner[x + pos]
                oi = y // 3
                if oi not in seen and y >= 0:
                    seen.add(oi)
                    queue.append((oi, y - 3 * oi, -d * s))
            row.append(edge_tokens[k])
        code.append(tuple(row))
    code.append(("#regions", len(seen)))
    for r in inner:
        if r[0] == POCKET:
            num[r[2]], num[r[3]] = ("curve", num[r[1]]), ("crossing", num[r[1]])
        else:
            num[r[2]] = ("mob1", 0)
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
        kind, _, sides, _ = _classify(t, q)
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
    bnd, slot_of = t.boundary_labels, t.gluing[1]  # refuses repeated labels
    for pocket in t.pockets:
        _mouth(t, pocket)
        if pocket[2] in slot_of or pocket[3] in slot_of:
            raise SurfaceError("pocket contents must not appear as region sides")
    for e in slot_of:  # a portal lies on its mouth triangle and its pocket
        expected = 1 if e in bnd else 2
        if t.slot_count(e) != expected:
            raise SurfaceError(f"edge {e} has {t.slot_count(e)} slots, expected {expected}")
    for e in bnd:
        if e not in slot_of:
            raise SurfaceError(f"boundary edge {e} lies on no region")
    if t.next_id <= max(set(slot_of).union(bnd, t.quasi_arcs), default=-1):
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
