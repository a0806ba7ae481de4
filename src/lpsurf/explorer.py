"""Breadth-first enumeration of seeds and quasi-triangulations.

Nodes are canonical forms (seed keys up to units and slot relabeling, or
minimal BFS codes of region complexes), so revisits close the graph exactly.
Expansion order is deterministic: the frontier is processed in discovery
order and directions in slot order, which makes exports byte-identical for
identical inputs.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from typing import Callable, Iterable, Optional, Sequence

from .lp_core import LaurentViolation, LPSeed, _exchange_token, _PartMemo, mutate, seed_key
from .poly import PolyError, Record, release_cached
from .schema import SCHEMA_VERSION
from .surface import QuasiTriangulation, canonical_code, canonical_form, flip

__all__ = [
    "ExchangeGraph",
    "explore_seeds",
    "explore_flips",
    "verify_laurent",
    "LaurentReport",
    "export",
]

DEFAULT_NODE_CAP = 100_000
NODE_CAP_ENV = "LP_SURFACE_SEED_CAP"


def _node_cap() -> int:
    env = os.environ.get(NODE_CAP_ENV)
    if not env:
        return DEFAULT_NODE_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise PolyError(f"{NODE_CAP_ENV} must be a positive integer, not {env!r}")
    return int(env)


class ExchangeGraph(Record, frozen=False):
    """Graph of canonical nodes joined by single moves.

    ``payloads`` holds each node's seed, state or :class:`_Node`.  The BFS
    releases the cached derived structure of every node it expanded, so such
    a payload rebuilds it on its next use.
    ``mismatch`` names the first failed lockstep check.  ``capped`` says
    that the node cap, not a depth bound, cut the graph short.  ``repr``
    leaves out the last three fields.
    """

    _fields = ("kind", "labels", "edges", "truncated", "payloads", "mismatch", "capped")
    _repr_fields = _fields[:4]

    def __init__(self, kind: str, labels: list[str], edges: dict[tuple[int, int], str],
                 truncated: bool, payloads: Optional[list] = None, mismatch: Optional[str] = None,
                 capped: bool = False):
        self.kind = kind  # "seeds" or "flips"
        self.labels = labels
        self.edges = edges
        self.truncated = truncated
        self.payloads = [] if payloads is None else payloads
        self.mismatch = mismatch
        self.capped = capped

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _bfs(start_key, start_payload, neighbors: Callable, label: Callable, kind: str,
         depth: Optional[int], revisit: Optional[Callable] = None) -> ExchangeGraph:
    """Canonical-key BFS; ``neighbors(payload, done)`` yields (direction, key, payload, back).

    ``back`` is a token naming the move from the reached node back to this
    one, or None.  It must name that move on whichever payload is stored for
    the reached key: the seed BFS names a slot by its value and signed
    exchange polynomial, the flip BFS an arc by its key in the canonical
    numbering.  The tokens a node receives reach its own ``neighbors`` call
    in the dict ``done``, each mapped to the payload that sent it.  The node
    may skip those moves: when moves are involutions, such a move only
    closes an edge that the first end already labelled.  A move that reaches
    a stored node calls ``revisit(payload, direction, stored, reached)``.

    A node's label is taken when it is expanded, and then the cached derived
    structure of its payload, or of each part of a :class:`_Node`, is released
    (:func:`lpsurf.poly.release_cached`): only nodes not yet expanded keep
    theirs, and a later read rebuilds it.  An edge's label string is built
    once, when the edge is new.
    """
    max_nodes = _node_cap()
    index = {start_key: 0}
    payloads = [start_payload]
    labels: list = [None]
    depths = [0]
    edges: dict[tuple[int, int], str] = {}
    skip: dict[int, dict] = {}
    truncated = capped = False
    frontier = [0]
    while frontier:
        if depth is not None and depths[frontier[0]] >= depth:
            truncated = True
            break
        next_frontier = []
        for u in frontier:
            node = payloads[u]
            for direction, key, payload, back in neighbors(node, skip.pop(u, {})):
                v = index.get(key)
                if v is None:
                    if len(payloads) >= max_nodes:
                        truncated = capped = True
                        continue
                    v = len(payloads)
                    index[key] = v
                    payloads.append(payload)
                    labels.append(None)
                    depths.append(depths[u] + 1)
                    next_frontier.append(v)
                elif revisit is not None:
                    revisit(node, direction, payloads[v], payload)
                edge = (u, v) if u < v else (v, u)
                if edge not in edges:
                    edges[edge] = str(direction)
                if back is not None:
                    skip.setdefault(v, {})[back] = node
            labels[u] = label(node)
            for part in node if type(node) is _Node else (node,):
                release_cached(part)
        frontier = next_frontier
    labels = [label(p) if lbl is None else lbl for p, lbl in zip(payloads, labels)]
    return ExchangeGraph(kind, labels, edges, truncated, payloads, capped=capped)


def _names(s: LPSeed) -> str:
    return ",".join(s.names)


# A lockstep node; compare-graphs reads only an expanded node's code.
_Node = namedtuple("_Node", "seed state arcs code")


def _step(node: _Node, i: int, memo: _PartMemo) -> _Node:
    """The lockstep move: mutate slot i, flip ``arcs[i]``, give slot i the new arc, code it."""
    state = flip(node.state, node.arcs[i])
    arcs = node.arcs[:i] + (node.state.next_id,) + node.arcs[i + 1:]
    return _Node(mutate(node.seed, i, memo=memo), state, arcs, canonical_code(state))


def explore_seeds(seed: LPSeed, depth: Optional[int] = None,
                  state: Optional[QuasiTriangulation] = None) -> ExchangeGraph:
    """BFS over seeds up to unit-and-relabeling equality, in lockstep with flips of ``state``.

    LP mutation is an involution (Lam-Pylyavskyy), so each edge is mutated
    from one end only: mutating ``s`` at slot ``i`` gives ``t``, and the
    seed stored for ``t``'s node skips the slot whose value and signed
    exchange polynomial match ``t``'s slot ``i``.  A stored seed whose slot
    differs only in that polynomial's sign is still mutated, because the new
    value depends on the sign.

    Every edge calls :func:`mutate` once, with one memo per BFS.  No two
    mutations here share a whole seed, so the memo keeps none, but the
    exchange relation is local, so they share its parts: on the 8-gon, 330
    mutations compute 70 distinct new values.

    With ``state``, ``seed``'s quasi-triangulation, each mutation is a
    :func:`_step`, whose code must be the one stored for the seed it reaches
    (forward check); a slot a back token skips is flipped alone, and its code
    must be the sender's (back check).  A complete graph's codes must also
    be distinct; then they are closed under flips, so node to code is an
    isomorphism onto the flip graph.  ``mismatch`` is the first failure.
    """
    memo = _PartMemo()
    if state is None:
        def neighbors(s: LPSeed, done):
            for i in range(s.n):
                if done and _exchange_token(s, i) in done:
                    continue
                t = mutate(s, i, memo=memo)
                yield i, seed_key(t), t, _exchange_token(t, i)

        return _bfs(seed_key(seed), seed, neighbors, _names, "seeds", depth)

    failures = []

    def lockstep(node, done):
        for i in range(node.seed.n):
            sender = done.get(_exchange_token(node.seed, i)) if done else None
            if sender is None:
                child = _step(node, i, memo)
                yield i, seed_key(child.seed), child, _exchange_token(child.seed, i)
            elif canonical_code(flip(node.state, node.arcs[i])) != sender.code:
                failures.append(f"node {_names(node.seed)} slot {i}: back check failed")

    def forward_check(node, i, stored, reached) -> None:
        if stored.code != reached.code:
            failures.append(f"node {_names(node.seed)} slot {i}: forward check failed")

    g = _bfs(seed_key(seed), _Node(seed, state, state.quasi_arcs, canonical_code(state)),
             lockstep, lambda node: _names(node.seed), "seeds", depth, forward_check)
    first: dict = {}
    for v, node in enumerate([] if g.truncated else g.payloads):
        u = first.setdefault(node.code, v)
        if u != v:
            failures.append(f"nodes {g.labels[u]} and {g.labels[v]}: distinct-code check failed")
    g.mismatch = failures[0] if failures else None
    return g


def explore_flips(
    t0: QuasiTriangulation,
    depth: Optional[int] = None,
) -> ExchangeGraph:
    """BFS over quasi-triangulations up to canonical labeling, for ``explore --mode flips``.

    A flip is an involution, so where equal codes mean isomorphic states
    (see below) each edge is flipped from one end only.  Flipping ``t`` at
    ``q`` gives ``t2``, whose new arc ``t.next_id`` has a key in ``t2``'s
    numbering (:func:`canonical_form`).  That key is the back token: the
    state stored for ``t2``'s code holds its own numbering
    (``canonical_numbering``) and skips the arc with that key, whose flip
    gives ``t``'s code.  On other surfaces every state is flipped at every
    quasi-arc.
    """
    # Why equal codes mean isomorphic states on orientable surfaces and on
    # those with first Betti number b1 = 1 - chi = 1 (the annulus and M_n).
    # A code rebuilds its state but for one bit per closing edge, an edge
    # whose second slot the walk meets in a region it had already queued:
    # whether that gluing keeps the walk's orientation, since edge tokens
    # carry no sign.  Each row after the first opens with the edge the walk
    # entered it by, and that crossing is coherent; the inside of a pocket
    # or a mob1 region is the same in every state.  The regions and the
    # edges joining them form a graph G.  The surface retracts onto G with a
    # circle, the one-sided curve, attached at each of its p pocket and mob1
    # regions, so the closing edges, one per independent loop of G, number
    # b1 - p.
    # * Orientable: a closing edge closes a loop through the walk's tree,
    #   and no loop reverses orientation, so every closing edge keeps it.
    # * b1 = 1, non-orientable (M_n): with a pocket or mob1 region there is
    #   no closing edge.  Without one there is one, and its loop generates
    #   H1, on which the orientation character is not zero, so the gluing
    #   reverses.
    # Either way the bits follow from the code and the surface, so states of
    # one code are isomorphic by a map that takes one walk's numbering to
    # the other's, and flips commute with it.  With b1 >= 2 and cross-caps
    # the bits are free: equal codes can mean states whose flips differ,
    # and a back token would drop edges, so none is sent.
    surface = t0.surface
    back_tokens = surface.orientable or surface.euler_characteristic == 0

    def neighbors(t: QuasiTriangulation, done):
        num = t.canonical_numbering if done else None
        for q in t.quasi_arcs:
            if done and num[q] in done:
                continue
            t2 = flip(t, q)
            code, num2 = canonical_form(t2)
            back = None
            if back_tokens:
                vars(t2)["canonical_numbering"] = num2
                back = num2[t.next_id]
            yield q, code, t2, back

    return _bfs(
        canonical_form(t0)[0],
        t0,
        neighbors,
        lambda t: ",".join(str(q) for q in t.quasi_arcs),
        "flips",
        depth,
    )


# -- Laurent phenomenon verification ------------------------------------------


class LaurentReport(Record, frozen=False):
    _fields = ("sequences_checked", "variables_checked", "violations")

    def __init__(self, sequences_checked: int, variables_checked: int,
                 violations: list[tuple[tuple[int, ...], str, str]]):
        self.sequences_checked = sequences_checked
        self.variables_checked = variables_checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_laurent(seed: LPSeed, sequences: Iterable[Sequence[int]]) -> LaurentReport:
    """Check every tracked variable stays Laurent along each mutation sequence.

    A sequence stops at its first violation, recorded as (sequence prefix,
    variable name, "(N) / (D)" with the division that failed).  Every step
    calls :func:`mutate` and counts its ``n`` variables, but mutation is an
    involution, so chains revisit seeds: one memo per call computes and
    validates each distinct exchange once, a failing one included.  A
    revisit is one dict lookup, which returns the stored exchange under the
    step's names with its stored verdict, or raises the stored violation.
    """
    checked = 0
    vars_checked = 0
    violations = []
    memo: dict = {}
    for seq in sequences:
        s = seed
        for step, i in enumerate(seq):
            try:
                s = mutate(s, i, memo=memo)
            except LaurentViolation as exc:
                violations.append((tuple(seq[: step + 1]), exc.name, f"({exc.num}) / ({exc.den})"))
                break
            vars_checked += s.n
        checked += 1
    return LaurentReport(checked, vars_checked, violations)


# -- export ---------------------------------------------------------------------


def export(g: ExchangeGraph, fmt: str) -> str:
    """``g`` as DOT or JSON text; JSON marks any cut, DOT a cut by the node cap."""
    if fmt == "dot":
        lines = [f"graph {g.kind} {{"] + (["  // truncated by the node cap"] if g.capped else [])
        for i, lbl in enumerate(g.labels):
            lines.append(f'  n{i} [label="{lbl}"];')
        for (u, v), d in sorted(g.edges.items()):
            lines.append(f'  n{u} -- n{v} [label="{d}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        data = {
            "schema": SCHEMA_VERSION,
            "kind": g.kind,
            "truncated": g.truncated,
            "nodes": [{"id": i, "label": lbl} for i, lbl in enumerate(g.labels)],
            "edges": [[u, v, d] for (u, v), d in sorted(g.edges.items())],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    raise PolyError(f"unknown export format {fmt!r}")

