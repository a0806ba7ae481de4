import random

import pytest

from lpsurf.lp_core import InvalidSeed, mutate, normalize, seeds_equal
from lpsurf.poly import PolyError, VariableContext, evaluate
from lpsurf.quiver import (
    Quiver,
    cancel_two_cycles,
    double_mutate,
    exchange_polys,
    has_bad_path,
    lp_seed_from_quiver,
    mutate_vertex,
    quiver_from_json,
    quiver_to_json,
)


def antisymmetrize(pairs: int, arrows, frozen=()):
    """Build an anti-symmetric quiver from arrows among the first copies."""
    n2 = 2 * pairs
    b = [[0] * n2 for _ in range(n2)]

    def put(i, j, w):
        b[i][j] += w
        b[j][i] -= w

    for (i, j, w) in arrows:
        put(i, j, w)
        put((j + pairs) % n2, (i + pairs) % n2, w)
    return Quiver(pairs, tuple(tuple(r) for r in b), frozenset(frozen))


def m2_lifted_quiver():
    """The Moebius-strip M_2 lifted adjacency quiver (pairs: e, f, A, B)."""
    raw = [[0] * 8 for _ in range(8)]
    e0, f0, A0, B0, e1, f1, A1, B1 = range(8)
    for (i, j) in [
        (e0, A0), (A0, f0), (f0, e0), (e1, B0), (B0, f0), (f0, e1),
        (f1, A1), (A1, e1), (e1, f1), (f1, B1), (B1, e0), (e0, f1),
    ]:
        raw[i][j] += 1
    return Quiver(4, cancel_two_cycles(raw), frozenset({2, 3}))


def random_anti_symmetric(rng, pairs, frozen=frozenset(), max_w=1):
    """Rejection-sample: random skew matrix symmetrized to anti-symmetric."""
    n2 = 2 * pairs
    b = [[0] * n2 for _ in range(n2)]
    for i in range(n2):
        for j in range(i + 1, n2):
            w = rng.randint(-max_w, max_w)
            b[i][j] = w
            b[j][i] = -w
    # average with the involution image (b_ij + b_{~j ~i}) keeps skew-symmetry
    def twin(v):
        return (v + pairs) % n2

    c = [[b[i][j] + b[twin(j)][twin(i)] for j in range(n2)] for i in range(n2)]
    for i in range(n2):
        c[i][twin(i)] = 0
        c[twin(i)][i] = 0
    return Quiver(pairs, tuple(tuple(r) for r in c), frozen)


class TestMatrixMutation:
    def test_sign_reversal(self):
        q = antisymmetrize(2, [(0, 1, 1)])
        m = mutate_vertex(q, 0)
        assert m.b[0][1] == -1

    def test_path_mutation(self):
        """Path 1->2->3, mutate at 2: arrows reverse, new arrow 1->3."""
        q = antisymmetrize(3, [(0, 1, 1), (1, 2, 1)])
        m = mutate_vertex(q, 1)
        assert m.b[0][1] == -1 and m.b[1][2] == -1
        assert m.b[0][2] == 1
        assert mutate_vertex(m, 1).b == q.b

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(25):
            q = random_anti_symmetric(rng, 3)
            k = rng.randrange(6)
            assert mutate_vertex(mutate_vertex(q, k), k).b == q.b

    def test_frozen_vertex_rejected(self):
        q = antisymmetrize(2, [(0, 1, 1)], frozen={1})
        with pytest.raises(PolyError):
            mutate_vertex(q, 1)


class TestDoubleMutate:
    def test_involution(self):
        q = m2_lifted_quiver()
        assert double_mutate(double_mutate(q, 1), 1).b == q.b

    def test_preserves_anti_symmetry_on_m2(self):
        q = m2_lifted_quiver()
        assert double_mutate(q, 1).is_anti_symmetric()

    def test_order_independence_and_anti_symmetry(self):
        """mu_i . mu_~i = mu_~i . mu_i on 100 random anti-symmetric quivers.

        Anti-symmetry is preserved exactly when there is no path a -> i -> ~a
        (a twin arrow k -> ~k would be created otherwise), mirroring the
        condition under which double mutation matches LP mutation.
        """
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            pairs = rng.randint(2, 4)
            q = random_anti_symmetric(rng, pairs)
            i = rng.randrange(pairs)
            a = mutate_vertex(mutate_vertex(q, i), q.twin(i))
            b = mutate_vertex(mutate_vertex(q, q.twin(i)), i)
            assert a.b == b.b
            if not has_bad_path(q, i):
                assert a.is_anti_symmetric()
                checked += 1

    def test_twin_arrow_precondition(self):
        n2 = 4
        b = [[0] * n2 for _ in range(n2)]
        b[0][2] = 1
        b[2][0] = -1
        q = Quiver(2, tuple(tuple(r) for r in b))
        with pytest.raises(PolyError):
            double_mutate(q, 0)


class TestExchangePolys:
    def test_no_arrows_gives_two(self):
        q = antisymmetrize(2, [])
        ctx = VariableContext(("x1", "x2"))
        polys = exchange_polys(q, ctx)
        assert [str(p) for p in polys] == ["2", "2"]

    def test_m2_polys(self):
        q = m2_lifted_quiver()
        ctx = VariableContext(("e", "f"), ("A", "B"))
        polys = exchange_polys(q, ctx)
        assert str(polys[0]) == "A + B"
        assert str(polys[1]) == "e^2 + A*B"

    def test_single_pair_arrow(self):
        """a -> i plus the mirrored ~i -> ~a gives F_i = x_a + 1."""
        q = antisymmetrize(2, [(0, 1, 1)])
        ctx = VariableContext(("xa", "xi"))
        polys = exchange_polys(q, ctx)
        assert str(polys[1]) == "xa + 1"

    def test_no_self_dependence(self):
        rng = random.Random(3)
        for _ in range(30):
            q = random_anti_symmetric(rng, 3)
            ctx = VariableContext(("x1", "x2", "x3"))
            for j, p in enumerate(exchange_polys(q, ctx)):
                assert not p.involves(j)

    def test_context_size_mismatch(self):
        q = antisymmetrize(2, [])
        with pytest.raises(PolyError):
            exchange_polys(q, VariableContext(("x1",)))


class TestSeedFromQuiver:
    def test_m2_seed_valid(self):
        q = m2_lifted_quiver()
        ctx = VariableContext(("e", "f"), ("A", "B"))
        seed = lp_seed_from_quiver(q, ctx)
        assert seed.poly_strings() == ("A + B", "e^2 + A*B")

    def test_no_arrow_seed_valid(self):
        q = antisymmetrize(2, [])
        seed = lp_seed_from_quiver(q, VariableContext(("x1", "x2")))
        assert seed.poly_strings() == ("2", "2")

    def test_gcd_two_binomials_accepted(self):
        """Row gcd 2 gives x^2 + 1 (the empty side contributes 1): irreducible."""
        q = antisymmetrize(2, [(0, 1, 2)])
        seed = lp_seed_from_quiver(q, VariableContext(("x1", "x2")))
        assert "x1^2 + 1" in seed.poly_strings()

    def test_reducible_rejected(self):
        """A weight-3 arrow realizes x^3 + 1 = (x+1)(x^2-x+1): rejected."""
        q = antisymmetrize(2, [(0, 1, 3)])
        with pytest.raises(InvalidSeed):
            lp_seed_from_quiver(q, VariableContext(("x1", "x2")))


class TestBadPath:
    def test_m2_bad_vertex(self):
        q = m2_lifted_quiver()
        assert has_bad_path(q, 0)       # the non-t-mutable through-arc pair
        assert not has_bad_path(q, 1)

    def test_empty_quiver(self):
        q = antisymmetrize(2, [])
        assert not has_bad_path(q, 0) and not has_bad_path(q, 1)


class TestCancelTwoCycles:
    def test_opposite_arrows_cancel(self):
        raw = [[0, 1], [1, 0]]
        assert cancel_two_cycles(raw) == ((0, 0), (0, 0))

    def test_reduced_unchanged(self):
        raw = [[0, 2], [0, 0]]
        assert cancel_two_cycles(raw) == ((0, 2), (-2, 0))


class TestDoubleMutationEquivalence:
    def _check(self, q, ctx):
        seed = lp_seed_from_quiver(q, ctx)
        # hypothesis: Fhat = F
        for j in range(seed.n):
            _, exps = normalize(seed, j)
            if any(exps):
                return None
        checked = 0
        for pair in q.mutable_pairs():
            if has_bad_path(q, pair):
                continue
            mutable_index = q.mutable_pairs().index(pair)
            lp = mutate(seed, mutable_index)
            q2 = double_mutate(q, pair)
            try:
                seed2 = lp_seed_from_quiver(q2, ctx)
            except InvalidSeed:
                continue
            value_map = dict(enumerate(seed.values))
            vals = list(seed2.values)
            vals[mutable_index] = evaluate(seed.polys[mutable_index], value_map).div(
                seed.values[mutable_index]
            )
            seed2 = seed2.with_values(vals)
            assert seeds_equal(lp, seed2)
            checked += 1
        return checked

    def test_m2_quiver(self):
        q = m2_lifted_quiver()
        ctx = VariableContext(("e", "f"), ("A", "B"))
        assert self._check(q, ctx) == 1

    def test_randomized(self):
        """LP mutation equals double quiver mutation wherever defined."""
        rng = random.Random(2024)
        done = 0
        for _ in range(400):
            pairs = rng.randint(2, 3)
            q = random_anti_symmetric(rng, pairs)
            ctx = VariableContext(tuple(f"x{i+1}" for i in range(pairs)))
            try:
                n = self._check(q, ctx)
            except InvalidSeed:
                continue
            if n:
                done += n
            if done >= 40:
                break
        assert done >= 40


class TestJson:
    def test_round_trip(self):
        q = m2_lifted_quiver()
        data = quiver_to_json(q)
        assert data["schema"] == 1
        back = quiver_from_json(data)
        assert back.b == q.b and back.frozen == q.frozen and back.pairs == q.pairs

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: {k: v for k, v in d.items() if k != "schema"},
        lambda d: {**d, "n": str(d["n"])},
        lambda d: {**d, "b": [[str(x) for x in row] for row in d["b"]]},
        lambda d: {**d, "frozen": "0"},
    ], ids=["list", "no-schema", "n-string", "b-strings", "frozen-string"])
    def test_rejects_malformed(self, edit):
        with pytest.raises(PolyError):
            quiver_from_json(edit(quiver_to_json(m2_lifted_quiver())))
