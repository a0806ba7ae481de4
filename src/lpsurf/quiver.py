"""Anti-symmetric quivers on paired vertices and their LP seeds.

Vertices come in twin pairs ``i`` and ``~i``; with ``N`` pairs the matrix is
``2N x 2N`` and the twin of vertex ``v`` is ``(v + N) % 2N``.  Anti-symmetry
means an arrow ``i -> j`` always coexists with ``~j -> ~i`` and there is never
an arrow between twins; such quivers are exactly the adjacency quivers of
lifted triangulations on orientable double covers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .build import LiftedTriangulation
from .lp_core import LPSeed
from .poly import Polynomial, PolyError, Record, VariableContext
from .surface import SurfaceError

__all__ = [
    "Quiver",
    "mutate_vertex",
    "double_mutate",
    "exchange_polys",
    "lp_seed_from_quiver",
    "has_bad_path",
    "cancel_two_cycles",
    "adjacency_quiver",
]


def _pos(x: int) -> int:
    return x if x > 0 else 0


class Quiver(Record):
    """Skew-symmetric integer matrix on 2N paired vertices."""

    _fields = ("pairs", "b", "frozen")

    def __init__(self, pairs: int, b: Sequence[Sequence[int]], frozen: Iterable[int] = frozenset()):
        d = self.__dict__
        d["pairs"] = pairs
        d["frozen"] = frozen = frozenset(frozen)
        n2 = 2 * pairs
        if len(b) != n2 or any(len(row) != n2 for row in b):
            raise PolyError("quiver matrix has the wrong shape")
        d["b"] = tuple(map(tuple, b))
        for p in frozen:
            if not 0 <= p < pairs:
                raise PolyError(f"frozen pair {p} out of range")

    @property
    def size(self) -> int:
        return 2 * self.pairs

    def twin(self, v: int) -> int:
        return (v + self.pairs) % (2 * self.pairs)

    def is_skew_symmetric(self) -> bool:
        n2 = self.size
        return all(self.b[i][j] == -self.b[j][i] for i in range(n2) for j in range(n2))

    def is_anti_symmetric(self) -> bool:
        n2 = self.size
        if not self.is_skew_symmetric():
            return False
        for i in range(n2):
            if self.b[i][self.twin(i)] != 0:
                return False
            for j in range(n2):
                if self.b[i][j] != self.b[self.twin(j)][self.twin(i)]:
                    return False
        return True

    def mutable_pairs(self) -> list[int]:
        return [p for p in range(self.pairs) if p not in self.frozen]

    def pair_weight(self, i: int, j: int) -> int:
        """b_{ij} + b_{~i j}: the exponent of x_i in the j-th exchange polynomial."""
        return self.b[i][j] + self.b[self.twin(i)][j]

    def check(self) -> None:
        if not self.is_anti_symmetric():
            raise PolyError("quiver is not anti-symmetric")


def mutate_vertex(q: Quiver, k: int) -> Quiver:
    """Standard matrix mutation at one vertex (skew-symmetry preserved)."""
    if (k % q.pairs) in q.frozen:
        raise PolyError(f"vertex {k} belongs to a frozen pair")
    n2 = q.size
    b = q.b
    out = [[0] * n2 for _ in range(n2)]
    for a in range(n2):
        for c in range(n2):
            if a == k or c == k:
                out[a][c] = -b[a][c]
            else:
                out[a][c] = b[a][c] + _pos(-b[a][k]) * b[k][c] + b[a][k] * _pos(b[k][c])
    return Quiver(q.pairs, tuple(tuple(row) for row in out), q.frozen)


def double_mutate(q: Quiver, pair: int) -> Quiver:
    """Mutation at a pair: mu_i then mu_~i (they commute when b_{i ~i} = 0)."""
    if pair in q.frozen:
        raise PolyError(f"pair {pair} is frozen")
    if q.b[pair][q.twin(pair)] != 0:
        raise PolyError("double mutation needs no arrow between the twins")
    return mutate_vertex(mutate_vertex(q, pair), q.twin(pair))


def has_bad_path(q: Quiver, pair: int) -> bool:
    """True iff some vertex a has a path a -> i -> ~a through vertex i = pair."""
    i = pair
    for a in range(q.size):
        if q.b[a][i] > 0 and q.b[i][q.twin(a)] > 0:
            return True
    return False


def cancel_two_cycles(counts: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Reduce a raw arrow-count matrix so opposite arrows cancel.

    ``counts[i][j]`` is the number of arrows i -> j; the result is the
    skew-symmetric matrix ``counts - counts^T``, which leaves at most one of
    b_{ij} > 0, b_{ji} > 0 per unordered pair.
    """
    n = len(counts)
    return tuple(
        tuple(counts[i][j] - counts[j][i] for j in range(n)) for i in range(n)
    )


def adjacency_quiver(lt: LiftedTriangulation) -> Quiver:
    """One arrow i -> j per oriented lifted triangle where j follows i."""
    include_frozen = lt.base.surface.boundary_variables
    ordered = list(lt.mutable_edges) + (list(lt.frozen_edges) if include_frozen else [])
    pair_index = {e: i for i, e in enumerate(ordered)}
    n = len(ordered)
    raw = [[0] * (2 * n) for _ in range(2 * n)]

    def vertex(e: int, lift: int) -> Optional[int]:
        if e not in pair_index:
            return None
        return pair_index[e] + lift * n

    for _, walk in lt.triangles:
        vs = [vertex(e, lift) for e, lift, _ in walk]
        for k in range(3):
            a, b = vs[k], vs[(k + 1) % 3]
            if a is not None and b is not None:
                raw[a][b] += 1
    q = Quiver(n, cancel_two_cycles(raw), frozenset(
        pair_index[e] for e in lt.frozen_edges if e in pair_index
    ))
    for v in range(2 * n):
        if q.b[v][q.twin(v)] != 0:
            raise SurfaceError("anti-self-folded triangle: arrow between twin lifts")
    if not q.is_anti_symmetric():
        raise SurfaceError("adjacency quiver is not anti-symmetric")
    return q


def exchange_polys(q: Quiver, ctx: VariableContext) -> list[Polynomial]:
    """Exchange polynomial per mutable pair, identifying x_i with x_~i.

    ``ctx`` must carry one cluster name per mutable pair (in pair order) and
    one frozen name per frozen pair (in pair order).
    """
    q.check()
    mutable = q.mutable_pairs()
    frozen = sorted(q.frozen)
    if len(ctx.cluster) != len(mutable) or len(ctx.frozen) != len(frozen):
        raise PolyError("context does not match the quiver's pair structure")
    var_of_pair = {}
    for idx, p in enumerate(mutable):
        var_of_pair[p] = idx
    for idx, p in enumerate(frozen):
        var_of_pair[p] = len(ctx.cluster) + idx
    out = []
    for j in mutable:
        pos = [0] * ctx.nvars
        neg = [0] * ctx.nvars
        for i in range(q.pairs):
            w = q.pair_weight(i, j)
            if w > 0:
                pos[var_of_pair[i]] += w
            elif w < 0:
                neg[var_of_pair[i]] += -w
        f = Polynomial.monomial(ctx, pos).add(Polynomial.monomial(ctx, neg))
        out.append(f.canonical_sign())
    return out


def lp_seed_from_quiver(q: Quiver, ctx: VariableContext) -> LPSeed:
    """The seed with the quiver's exchange polynomials, rejected if invalid."""
    polys = exchange_polys(q, ctx)
    return LPSeed.initial(ctx.cluster, ctx.frozen, polys).require_valid()

