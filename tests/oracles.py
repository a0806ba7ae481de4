"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the factor search
enumerates candidate divisors directly, the polygon enumerator builds the
hexagon flip graph from non-crossing diagonal sets, the depth-first
traversal double-checks breadth-first enumeration counts, and cluster values
are followed as exact rationals at a point, reading only ``.terms``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from lpsurf.poly import Polynomial, divide_exact


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
    bounded by ``height`` (default: the height of p).  Complete whenever p
    actually has a factor within those bounds, which holds for every
    reducible entry of the test corpus by construction.
    """
    assert p.is_ordinary and not p.is_zero and not p.is_unit
    if p.is_constant:
        c = abs(p.constant_value())
        return any(c % d == 0 for d in range(2, c) if d * d <= c)
    if p.content() != 1:
        return True
    h = height if height is not None else p.height()
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
