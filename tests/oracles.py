"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the factor search
enumerates candidate divisors directly, the polygon enumerator builds the
hexagon flip graph from non-crossing diagonal sets, the depth-first
traversal double-checks breadth-first enumeration counts, an unpruned
queue-based search rebuilds the seed graph's JSON export, networkx's VF2
asks whether two exchange graphs are isomorphic at all, cluster values
are followed as exact rationals at a point, and normalization exponents,
irreducibility, step 2 of mutation, products, powers, substitution and
exact division come from sympy; the last eight read only ``.terms``.  The
canonical code of a quasi-triangulation is the least code over every flag,
walked from its definition on the state's regions and boundary alone.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence

import networkx as nx
import sympy

from lpsurf.lp_core import LPSeed, mutate, seed_key
from lpsurf.poly import Polynomial, divide_exact
from lpsurf.schema import SCHEMA_VERSION


# -- brute-force factor search ------------------------------------------------


def _monomials_up_to(indices: list[int], nvars: int, max_total: int, max_per: dict[int, int]):
    """All exponent vectors supported on ``indices`` within the degree bounds."""
    ranges = [range(min(max_per[i], max_total) + 1) for i in indices]
    for combo in itertools.product(*ranges):
        if sum(combo) <= max_total:
            e = [0] * nvars
            for i, k in zip(indices, combo):
                e[i] = k
            yield tuple(e)


def brute_force_reducible(p: Polynomial, height: Optional[int] = None) -> bool:
    """Exhaustive search for a non-unit proper factor of ``p``.

    Candidates range over all polynomials in p's variables with total degree
    at most deg(p)/2, per-variable degree at most that of p, and coefficients
    bounded by ``height`` (default: the largest absolute coefficient of p).
    Complete whenever p actually has a factor within those bounds, which holds
    for every reducible entry of the test corpus by construction.
    """
    assert p.is_ordinary and not p.is_zero and not p.is_unit
    if p.is_constant:
        c = abs(p.constant_value())
        return any(c % d == 0 for d in range(2, c) if d * d <= c)
    if p.content() != 1:
        return True
    h = height if height is not None else max(abs(c) for _, c in p.terms)
    indices = list(p.involved_indices())
    nvars = p.ctx.nvars
    half = p.total_degree() // 2
    per = {i: p.degree_in(i) for i in indices}
    monos = list(_monomials_up_to(indices, nvars, half, per))
    coeff_range = [c for c in range(-h, h + 1)]
    # candidates with few terms first; a factor of a sparse polynomial found
    # early keeps the search fast, completeness is unaffected
    for nterms in range(1, len(monos) + 1):
        for support in itertools.combinations(monos, nterms):
            for coeffs in itertools.product(coeff_range, repeat=nterms):
                if coeffs[0] <= 0:
                    continue  # sign normalization halves the space
                if all(c == 0 for c in coeffs):
                    continue
                g = Polynomial.from_dict(p.ctx, dict(zip(support, coeffs)))
                if g.is_zero or g.is_unit or g.is_constant and abs(g.constant_value()) == 1:
                    continue
                if g.terms == p.terms or g.neg().terms == p.terms:
                    continue
                q = divide_exact(p, g)
                # divide_exact works in the Laurent ring; a factorization in
                # Z[vars] needs an ordinary quotient
                if q is not None and q.is_ordinary and not q.is_unit:
                    return True
    return False


# -- polygon flip-graph enumeration --------------------------------------------


def _crosses(d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    a, b = sorted(d1)
    c, d = sorted(d2)
    return (a < c < b < d) or (c < a < d < b)


def polygon_flip_graph(n: int) -> tuple[int, int]:
    """Node and edge counts of the n-gon triangulation flip graph.

    Triangulations are maximal non-crossing diagonal sets over vertex pairs;
    this is completely independent of the surface machinery.
    """
    diagonals = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    size = n - 3
    tris = []
    for combo in itertools.combinations(diagonals, size):
        if all(not _crosses(a, b) for a, b in itertools.combinations(combo, 2)):
            tris.append(frozenset(combo))
    index = {t: i for i, t in enumerate(tris)}
    edges = set()
    for t in tris:
        for d in t:
            rest = t - {d}
            for d2 in diagonals:
                if d2 == d or d2 in rest:
                    continue
                cand = rest | {d2}
                if cand in index and all(not _crosses(d2, r) for r in rest):
                    edges.add(frozenset((index[t], index[cand])))
    return len(tris), len(edges)


# -- independent depth-first enumeration ----------------------------------------


def dfs_count(start_key, start_payload, neighbors) -> tuple[int, int]:
    """Recursive depth-first enumeration; (nodes, edges) for cross-checking BFS."""
    index = {start_key: 0}
    payloads = [start_payload]
    edges = set()
    stack = [0]
    while stack:
        u = stack.pop()
        for key, payload in neighbors(payloads[u]):
            v = index.get(key)
            if v is None:
                v = len(payloads)
                index[key] = v
                payloads.append(payload)
                stack.append(v)
            edges.add(frozenset((u, v)))
    return len(payloads), len(edges)


# -- unpruned seed-graph search ---------------------------------------------------


def seed_graph_json(seed: LPSeed, depth: Optional[int] = None) -> str:
    """The seed graph of ``seed`` as ``export(explore_seeds(seed, depth), "json")``.

    A FIFO queue takes seeds in discovery order and mutates each in every
    direction, never skipping the one that leads back; the first direction
    that joins two nodes labels their edge.  A seed at ``depth`` mutations is
    not expanded and marks the graph truncated.  It shares ``mutate`` and
    ``seed_key`` with ``explore_seeds``, but neither its BFS nor its skip.
    """
    index = {seed_key(seed): 0}
    seeds = [seed]
    dist = [0]
    edges: dict[tuple[int, int], str] = {}
    truncated = False
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if depth is not None and dist[u] >= depth:
            truncated = True
            continue
        for i in range(seeds[u].n):
            t = mutate(seeds[u], i)
            v = index.setdefault(seed_key(t), len(seeds))
            if v == len(seeds):
                seeds.append(t)
                dist.append(dist[u] + 1)
                queue.append(v)
            edges.setdefault((min(u, v), max(u, v)), str(i))
    data = {
        "schema": SCHEMA_VERSION,
        "kind": "seeds",
        "truncated": truncated,
        "nodes": [{"id": k, "label": ",".join(s.names)} for k, s in enumerate(seeds)],
        "edges": [[u, v, d] for (u, v), d in sorted(edges.items())],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- graph isomorphism and degrees ------------------------------------------------


def _nx_graph(g) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.node_count))
    out.add_edges_from(g.edges)
    return out


def vf2_isomorphic(g1, g2) -> tuple[bool, Optional[dict[int, int]]]:
    """Whether any isomorphism joins two exchange graphs, by VF2; one such map or None."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(_nx_graph(g1), _nx_graph(g2))
    if matcher.is_isomorphic():
        return True, dict(matcher.mapping)
    return False, None


def degrees(g) -> list[int]:
    """The degree of each node of an exchange graph."""
    deg = [0] * g.node_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def edge_depths(g) -> list[int]:
    """Each node's distance from node 0 along the edges of an exchange graph."""
    adjacent = [[] for _ in range(g.node_count)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    depths = [0] + [None] * (g.node_count - 1)
    frontier = [0]
    while frontier:
        next_frontier = []
        for u in frontier:
            for v in adjacent[u]:
                if depths[v] is None:
                    depths[v] = depths[u] + 1
                    next_frontier.append(v)
        frontier = next_frontier
    return depths


# -- cluster values at a rational point -------------------------------------------


def value_at(p: Polynomial, point: Sequence[Fraction]) -> Fraction:
    """The Laurent polynomial ``p`` at ``point``, one coordinate per context variable."""
    total = Fraction(0)
    for exps, c in p.terms:
        term = Fraction(c)
        for x, k in zip(point, exps):
            term *= x ** k
        total += term
    return total


def mutated_values_at(
    fhat: Polynomial, i: int, values: Sequence[Fraction], point: Sequence[Fraction]
) -> list[Fraction]:
    """Slot values at ``point`` after mutating in direction ``i``.

    ``values`` are the slots' values at ``point`` before the mutation; slot
    ``i`` becomes ``Fhat_i(values) / value_i``, with the frozen variables of
    ``Fhat_i`` at their coordinates of ``point``.
    """
    out = list(values)
    out[i] = value_at(fhat, list(values) + list(point[len(values):])) / values[i]
    return out


# -- normalization exponents from the definition ------------------------------------


def _to_sympy(terms, gens: Sequence[sympy.Symbol]) -> sympy.Poly:
    return sympy.Poly.from_dict(dict(terms), *gens, domain=sympy.ZZ)


def normalization_exponents(polys: Sequence[Polynomial], j: int) -> tuple[int, ...]:
    """``a_k``: the largest power of ``F_k`` dividing ``F_j(x_k <- F_k / X)``.

    Each term ``c * x^e`` of ``F_j`` becomes ``c * x^e|_{x_k=1} * F_k^(e_k) *
    X^(d - e_k)`` with ``d = deg_k(F_j)``: the substitution times ``X^d``,
    which clears the powers of ``X`` (a unit).  ``a_k`` counts exact
    divisions by ``F_k`` in sympy over ``Z[cluster, frozen, X]``, where
    frozen variables are not units.
    """
    nvars = polys[0].ctx.nvars
    gens = sympy.symbols(f"v:{nvars + 1}")
    out = []
    for k in range(len(polys)):
        if k == j:
            out.append(0)
            continue
        fk = _to_sympy(((e + (0,), c) for e, c in polys[k].terms), gens)
        d = polys[j].degree_in(k)
        s = _to_sympy({}, gens)
        for e, c in polys[j].terms:
            rest = e[:k] + (0,) + e[k + 1:] + (d - e[k],)
            s += _to_sympy([(rest, c)], gens) * fk ** e[k]
        a = 0
        while True:
            q, r = s.div(fk, auto=False)
            if not r.is_zero:
                break
            s, a = q, a + 1
        out.append(a)
    return tuple(out)


# -- Laurent arithmetic by sympy expressions ---------------------------------------


def _laurent_expr(terms, gens: Sequence[sympy.Symbol]) -> sympy.Expr:
    return sympy.Add(*(c * sympy.Mul(*(g ** k for g, k in zip(gens, e))) for e, c in terms))


def _laurent_terms(expr: sympy.Expr, gens: Sequence[sympy.Symbol]) -> dict[tuple[int, ...], int]:
    """Terms of an expanded Laurent expression, negative exponents included."""
    out = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        out[tuple(int(powers.get(g, 0)) for g in gens)] = int(c)
    return {e: c for e, c in out.items() if c}


def laurent_product(p: Polynomial, q: Polynomial) -> dict[tuple[int, ...], int]:
    """Terms of ``p * q``, expanded by sympy."""
    gens = sympy.symbols(f"v:{p.ctx.nvars}")
    return _laurent_terms(_laurent_expr(p.terms, gens) * _laurent_expr(q.terms, gens), gens)


def laurent_power(p: Polynomial, k: int) -> dict[tuple[int, ...], int]:
    """Terms of ``p ** k``, expanded by sympy (``0 ** 0`` is 1)."""
    gens = sympy.symbols(f"v:{p.ctx.nvars}")
    return _laurent_terms(_laurent_expr(p.terms, gens) ** k, gens)


def laurent_substitution(p: Polynomial, i: int, value: Polynomial) -> dict[tuple[int, ...], int]:
    """Terms of ``p`` with variable ``i`` replaced by ``value``, by sympy's ``subs``."""
    gens = sympy.symbols(f"v:{p.ctx.nvars}")
    expr = _laurent_expr(p.terms, gens).subs(gens[i], _laurent_expr(value.terms, gens))
    return _laurent_terms(expr, gens)


def strictly_descending_grlex(terms) -> bool:
    """Whether the exponent vectors fall strictly, by total degree and then lexicographically."""
    keys = [(sum(e), tuple(e)) for e, _ in terms]
    return all(a > b for a, b in zip(keys, keys[1:]))


# -- exact division by sympy --------------------------------------------------------


def laurent_quotient(p: Polynomial, q: Polynomial) -> Optional[dict[tuple[int, ...], int]]:
    """Terms of ``p / q`` in the Laurent ring over Z, or None when ``q`` does not divide ``p``.

    Each operand is multiplied by the monomial that raises its least exponent
    of every variable to 0 (monomials are units of the ring), sympy divides
    the two polynomials over ZZ, and the remainder must be zero.
    """
    if not p.terms:
        return {}
    nvars = len(q.terms[0][0])
    gens = sympy.symbols(f"v:{nvars}")

    def lifted(terms):
        low = [min(e[k] for e, _ in terms) for k in range(nvars)]
        return _to_sympy({tuple(a - b for a, b in zip(e, low)): c for e, c in terms}, gens), low

    (ps, p_low), (qs, q_low) = lifted(p.terms), lifted(q.terms)
    quotient, remainder = ps.div(qs, auto=False)
    if not remainder.is_zero:
        return None
    return {tuple(a + b - c for a, b, c in zip(e, p_low, q_low)): int(c)
            for e, c in quotient.terms()}


# -- irreducibility by factorization ----------------------------------------------


def factor_irreducible(p: Polynomial) -> bool:
    """Irreducibility of a non-constant ordinary polynomial in Z[vars], up to +-1.

    sympy's ``factor_list`` must give integer content +-1 and a single factor
    of multiplicity 1.
    """
    gens = sympy.symbols(f"v:{p.ctx.nvars}")
    content, factors = _to_sympy(p.terms, gens).factor_list()
    return abs(content) == 1 and [k for _, k in factors] == [1]


# -- step 2 of mutation by sympy's gcd ----------------------------------------------


def divide_out_common(h: Polynomial, p: Polynomial) -> dict[tuple[int, ...], int]:
    """Terms of ``h`` with every common factor with ``p`` divided out, up to sign.

    Both are ordinary.  ``h`` is divided by ``sympy.gcd(h, p)`` until that
    gcd is +-1, which removes each common factor, integers and variables
    included, to its full power in ``h``.
    """
    gens = sympy.symbols(f"v:{len(h.terms[0][0])}")
    hs, ps = _to_sympy(h.terms, gens), _to_sympy(p.terms, gens)
    while True:
        g = sympy.gcd(hs, ps)
        if g.is_ground and abs(g.LC()) == 1:
            return {e: int(c) for e, c in hs.terms()}
        hs = hs.exquo(g)


# -- canonical code of a quasi-triangulation ---------------------------------------


def canonical_code_oracle(t) -> tuple:
    """The least BFS code of ``t`` over every flag, computed from the definition.

    Reads only ``t.regions`` and ``t.boundary``.  A region's sides are a
    triangle's three signed sides, a pocket's portal (sign +1) or a mob1
    region's one side; two regions are glued along every edge they share,
    a pocket to its mouth triangle along the portal.  A flag is a region, an
    entry side and a direction.  The code from a flag has one row per region
    in breadth-first order: the region kind, then its sides walked from the
    entry in the flag's direction, a boundary side as ("b", label, sign
    relative to the walk) and any other edge as ("e", n) with n its rank in
    order of first appearance; a neighbour is entered across the shared edge
    so that the two walks cross it coherently.  The code ends with
    ("#regions", count).
    """
    labels = dict(t.boundary)
    sides = []
    for region in t.regions:
        kind = region[0]
        sides.append(region[1] if kind == "tri" else ((region[1], 1),) if kind == "pocket"
                     else (region[1],))
    glued: dict[int, list[tuple[int, int]]] = {}
    for ri, walk in enumerate(sides):
        for pos, (e, _) in enumerate(walk):
            glued.setdefault(e, []).append((ri, pos))

    def code_from(flag) -> tuple:
        seen: set[int] = set()
        numbers: dict[int, int] = {}
        rows = []
        queue = deque([flag])
        while queue:
            ri, entry, d = queue.popleft()
            if ri in seen:
                continue
            seen.add(ri)
            walk = sides[ri]
            order = [(entry + d * k) % len(walk) for k in range(len(walk))]
            row = [t.regions[ri][0]]
            for pos in order:
                e, s = walk[pos]
                if e in labels:
                    row.append(("b", labels[e], d * s))
                else:
                    row.append(("e", numbers.setdefault(e, len(numbers))))
            rows.append(tuple(row))
            for pos in order:
                e, s = walk[pos]
                if e not in labels:
                    queue.extend((oi, opos, -d * s * sides[oi][opos][1])
                                 for oi, opos in glued[e] if oi not in seen)
        return tuple(rows) + (("#regions", len(seen)),)

    return min(code_from((ri, pos, d)) for ri, walk in enumerate(sides)
               for pos in range(len(walk)) for d in (1, -1))
