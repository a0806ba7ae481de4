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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import networkx as nx

from .lp_core import LaurentViolation, LPSeed, mutate, seed_key
from .poly import PolyError
from .schema import REQUIRED, SCHEMA_VERSION, fields
from .surface import QuasiTriangulation, canonical_code, flip

__all__ = [
    "ExchangeGraph",
    "explore_seeds",
    "explore_flips",
    "graphs_isomorphic",
    "verify_laurent",
    "LaurentReport",
    "export",
    "graph_from_json",
]

DEFAULT_NODE_CAP = 100_000
NODE_CAP_ENV = "LP_SURFACE_SEED_CAP"


def _node_cap(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(NODE_CAP_ENV)
    if not env:
        return DEFAULT_NODE_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise PolyError(f"{NODE_CAP_ENV} must be a positive integer, not {env!r}")
    return int(env)


@dataclass
class ExchangeGraph:
    """Finite graph of canonical nodes connected by single mutations/flips."""

    kind: str  # "seeds" or "flips"
    labels: list[str]
    edges: dict[tuple[int, int], str]
    truncated: bool
    payloads: list = field(default_factory=list, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def to_networkx(self) -> "nx.Graph":
        g = nx.Graph()
        g.add_nodes_from(range(self.node_count))
        g.add_edges_from(self.edges)
        return g


def _bfs(
    start_key,
    start_payload,
    neighbors: Callable,
    label: Callable,
    kind: str,
    depth: Optional[int],
    max_nodes: int,
) -> ExchangeGraph:
    """Canonical-key BFS; ``neighbors(payload)`` yields (direction, key, payload)."""
    index = {start_key: 0}
    payloads = [start_payload]
    depths = [0]
    edges: dict[tuple[int, int], str] = {}
    truncated = False
    frontier = [0]
    while frontier:
        if depth is not None and depths[frontier[0]] >= depth:
            truncated = True
            break
        next_frontier = []
        for u in frontier:
            for direction, key, payload in neighbors(payloads[u]):
                v = index.get(key)
                if v is None:
                    if len(payloads) >= max_nodes:
                        truncated = True
                        continue
                    v = len(payloads)
                    index[key] = v
                    payloads.append(payload)
                    depths.append(depths[u] + 1)
                    next_frontier.append(v)
                edge = (u, v) if u < v else (v, u)
                edges.setdefault(edge, str(direction))
        frontier = next_frontier
    labels = [label(p) for p in payloads]
    return ExchangeGraph(kind, labels, edges, truncated, payloads)


def explore_seeds(
    seed: LPSeed,
    depth: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> ExchangeGraph:
    """BFS over seeds up to unit-and-relabeling equality."""

    def neighbors(s: LPSeed):
        for i in range(s.n):
            t = mutate(s, i)
            yield i, seed_key(t), t

    return _bfs(
        seed_key(seed),
        seed,
        neighbors,
        lambda s: ",".join(s.names),
        "seeds",
        depth,
        _node_cap(max_nodes),
    )


def explore_flips(
    t0: QuasiTriangulation,
    depth: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> ExchangeGraph:
    """BFS over quasi-triangulations up to canonical labeling."""

    def neighbors(t: QuasiTriangulation):
        for q in t.quasi_arcs():
            t2 = flip(t, q)
            yield q, canonical_code(t2), t2

    return _bfs(
        canonical_code(t0),
        t0,
        neighbors,
        lambda t: ",".join(str(q) for q in t.quasi_arcs()),
        "flips",
        depth,
        _node_cap(max_nodes),
    )


def graphs_isomorphic(
    g1: ExchangeGraph, g2: ExchangeGraph
) -> tuple[bool, Optional[dict[int, int]]]:
    """Graph isomorphism with a witness mapping on success."""
    if g1.truncated != g2.truncated:
        raise PolyError("cannot compare a truncated graph with a complete one")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return False, None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False, None
    matcher = nx.algorithms.isomorphism.GraphMatcher(g1.to_networkx(), g2.to_networkx())
    if matcher.is_isomorphic():
        return True, dict(matcher.mapping)
    return False, None


# -- Laurent phenomenon verification ------------------------------------------


@dataclass
class LaurentReport:
    sequences_checked: int
    variables_checked: int
    violations: list[tuple[tuple[int, ...], str, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_laurent(seed: LPSeed, sequences: Iterable[Sequence[int]]) -> LaurentReport:
    """Check every tracked variable stays Laurent along each mutation sequence.

    A sequence stops at its first violation, recorded as (sequence prefix,
    variable name, "(N) / (D)" with the division that failed).
    """
    checked = 0
    vars_checked = 0
    violations = []
    for seq in sequences:
        s = seed
        for step, i in enumerate(seq):
            try:
                s = mutate(s, i)
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
    labels = [n["label"] for n in nodes]
    return ExchangeGraph(kind, labels, {(u, v): d for u, v, d in edges}, truncated)
