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
from typing import Callable, Iterable, Optional, Sequence

from .lp_core import LaurentViolation, LPSeed, _exchange_token, _PartMemo, mutate, seed_key
from .poly import PolyError, Record, release_cached
from .schema import REQUIRED, SCHEMA_VERSION, fields
from .surface import QuasiTriangulation, canonical_code, flip

__all__ = [
    "ExchangeGraph",
    "explore_seeds",
    "explore_flips",
    "flip_correspondence",
    "verify_laurent",
    "LaurentReport",
    "export",
    "graph_from_json",
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
    """Graph of canonical nodes joined by single moves; BFS adds ``keys`` and ``parents``.

    ``payloads`` holds each node's seed or state.  The BFS releases the
    cached derived structure of every node it expanded, so such a payload
    rebuilds it on its next use.  ``repr`` leaves out the last three fields.
    """

    _fields = ("kind", "labels", "edges", "truncated", "payloads", "keys", "parents")
    _repr_fields = _fields[:4]

    def __init__(self, kind: str, labels: list[str], edges: dict[tuple[int, int], str],
                 truncated: bool, payloads: Optional[list] = None, keys: Optional[list] = None,
                 parents: Optional[list] = None):
        self.kind = kind  # "seeds" or "flips"
        self.labels = labels
        self.edges = edges
        self.truncated = truncated
        self.payloads = [] if payloads is None else payloads
        self.keys = [] if keys is None else keys
        self.parents = [] if parents is None else parents

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _bfs(
    start_key,
    start_payload,
    neighbors: Callable,
    label: Callable,
    kind: str,
    depth: Optional[int],
) -> ExchangeGraph:
    """Canonical-key BFS; ``neighbors(payload, done)`` yields (direction, key, payload, back).

    ``back`` is a token naming the move from the reached node back to this
    one, or None.  The tokens a node receives reach its own ``neighbors``
    call as the set ``done``, whose moves it may skip: when moves are
    involutions, such a move only closes an edge that the first end already
    labelled.  Skip sets exist only for nodes that receive a token.  The graph
    keeps the node keys in node order as ``keys``, and as ``parents`` the
    first ``(u, direction)`` that reached each node (None for the root).

    A node's label is taken when it is expanded, and then the payload's
    cached derived structure is released (:func:`lpsurf.poly.release_cached`):
    only nodes not yet expanded keep theirs, and a later read rebuilds it.
    An edge's label string is built once, when the edge is new.
    """
    max_nodes = _node_cap()
    index = {start_key: 0}
    payloads = [start_payload]
    labels: list = [None]
    parents: list = [None]
    depths = [0]
    edges: dict[tuple[int, int], str] = {}
    skip: dict[int, set] = {}
    truncated = False
    frontier = [0]
    while frontier:
        if depth is not None and depths[frontier[0]] >= depth:
            truncated = True
            break
        next_frontier = []
        for u in frontier:
            node = payloads[u]
            for direction, key, payload, back in neighbors(node, skip.pop(u, ())):
                v = index.get(key)
                if v is None:
                    if len(payloads) >= max_nodes:
                        truncated = True
                        continue
                    v = len(payloads)
                    index[key] = v
                    payloads.append(payload)
                    labels.append(None)
                    parents.append((u, direction))
                    depths.append(depths[u] + 1)
                    next_frontier.append(v)
                edge = (u, v) if u < v else (v, u)
                if edge not in edges:
                    edges[edge] = str(direction)
                if back is not None:
                    skip.setdefault(v, set()).add(back)
            labels[u] = label(node)
            release_cached(node)
        frontier = next_frontier
    labels = [label(p) if lbl is None else lbl for p, lbl in zip(payloads, labels)]
    return ExchangeGraph(kind, labels, edges, truncated, payloads, list(index), parents)


def explore_seeds(
    seed: LPSeed,
    depth: Optional[int] = None,
) -> ExchangeGraph:
    """BFS over seeds up to unit-and-relabeling equality.

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
    """
    memo = _PartMemo()

    def neighbors(s: LPSeed, done):
        for i in range(s.n):
            if done and _exchange_token(s, i) in done:
                continue
            t = mutate(s, i, memo=memo)
            yield i, seed_key(t), t, _exchange_token(t, i)

    return _bfs(
        seed_key(seed),
        seed,
        neighbors,
        lambda s: ",".join(s.names),
        "seeds",
        depth,
    )


def explore_flips(
    t0: QuasiTriangulation,
    depth: Optional[int] = None,
) -> ExchangeGraph:
    """BFS over quasi-triangulations up to canonical labeling.

    Every state is flipped at every quasi-arc: arc ids are not canonical, so
    no token names the flip back.
    """

    def neighbors(t: QuasiTriangulation, done):
        for q in t.quasi_arcs:
            t2 = flip(t, q)
            yield q, canonical_code(t2), t2, None

    return _bfs(
        canonical_code(t0),
        t0,
        neighbors,
        lambda t: ",".join(str(q) for q in t.quasi_arcs),
        "flips",
        depth,
    )


def flip_correspondence(g_seeds: ExchangeGraph, g_flips: ExchangeGraph,
                        t0: QuasiTriangulation) -> Optional[list[int]]:
    """The flip node of each seed node, mutation at slot(q) read as the flip of q; or None.

    Slot i of ``t0``'s seed holds ``t0.quasi_arcs[i]``.  The seed BFS tree is replayed
    as flips; a flip's new quasi-arc (id ``next_id``) takes the mutated slot.  With
    equal counts, an injective map sending seed edges to flip edges is an isomorphism.
    """
    if g_seeds.truncated != g_flips.truncated:
        raise PolyError("cannot compare a truncated graph with a complete one")
    if g_seeds.node_count != g_flips.node_count or g_seeds.edge_count != g_flips.edge_count:
        return None
    replay = [(t0, t0.quasi_arcs)]
    for u, i in g_seeds.parents[1:]:
        t, arcs = replay[u]
        replay.append((flip(t, arcs[i]), arcs[:i] + (t.next_id,) + arcs[i + 1:]))
    index = {key: v for v, key in enumerate(g_flips.keys)}
    image = [index.get(canonical_code(t)) for t, _ in replay]
    if None in image or len(set(image)) < len(image):
        return None
    mapped = {(min(image[u], image[v]), max(image[u], image[v])) for u, v in g_seeds.edges}
    return image if mapped == g_flips.edges.keys() else None


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
    involution, so chains revisit seeds: one memo per call computes each
    distinct exchange once, a failing one included.
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
    if fmt == "dot":
        lines = [f"graph {g.kind} {{"]
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


def graph_from_json(text: str) -> ExchangeGraph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PolyError(f"graph JSON does not parse: {exc}") from None
    kind, truncated, nodes, edges = fields(data, "graph", {
        "kind": (str, REQUIRED), "truncated": (bool, REQUIRED),
        "nodes": ([{"id": int, "label": str}], REQUIRED), "edges": ([(int, int, str)], REQUIRED),
    })
    nodes = sorted(nodes, key=lambda n: n["id"])
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        raise PolyError(f"graph node ids must be 0..{len(nodes) - 1}, each once")
    for u, v, _ in edges:
        if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
            raise PolyError(f"graph edge [{u}, {v}] names a node that does not exist")
        if u > v:
            raise PolyError(f"graph edge [{u}, {v}] must list its smaller end first")
    graph = {(u, v): d for u, v, d in edges}
    if len(graph) < len(edges):
        raise PolyError("graph edges must join each pair of nodes once")
    labels = [n["label"] for n in nodes]
    return ExchangeGraph(kind, labels, graph, truncated)
