import hashlib
import random
from fractions import Fraction

import pytest

from lpsurf.lp_core import (
    InvalidSeed,
    LPSeed,
    mutate,
    normalize,
    seed_from_json,
    seed_key,
    seed_to_json,
    seeds_equal,
    validate_seed,
)
from lpsurf.explorer import explore_seeds
from lpsurf.poly import parse_polynomial, strip_laurent_monomial
from lpsurf.surface import MarkedSurface, initial_quasi_triangulation, seed_from_quasi_triangulation

from conftest import random_valid_seed
from oracles import mutated_values_at, value_at


def surface_seed(genus, cross_caps, boundary):
    surface = MarkedSurface(genus, cross_caps, boundary)
    return seed_from_quasi_triangulation(initial_quasi_triangulation(surface))


class TestValidate:
    def test_example_norm_seed_is_valid(self, example_norm_seed):
        assert validate_seed(example_norm_seed) == []

    def test_reducible_polynomial_reported(self):
        seed = LPSeed.initial(("a", "x", "y"), ("b",), ("x+y", "b*x + b*y", "x+1"))
        violations = validate_seed(seed)
        assert any("reducible" in v for v in violations)

    def test_self_dependence_reported(self):
        seed = LPSeed.initial(("x1", "x2"), (), ("x1+1", "x1+1"))
        violations = validate_seed(seed)
        assert any("depends on" in v for v in violations)

    def test_cluster_variable_rejected(self):
        seed = LPSeed.initial(("x1", "x2"), (), ("x2", "x1+1"))
        violations = validate_seed(seed)
        assert any("is a cluster variable" in v for v in violations)

    def test_unit_and_zero_rejected(self):
        seed = LPSeed.initial(("x1", "x2"), (), ("1", "0"))
        violations = validate_seed(seed)
        assert any("unit" in v for v in violations)
        assert any("zero" in v for v in violations)


class TestNormalize:
    def test_example_norm(self, example_norm_seed):
        """Fhat_a = F_a, Fhat_b = F_b, Fhat_c = F_c / a^2."""
        s = example_norm_seed
        fa, ea = normalize(s, 0)
        fb, eb = normalize(s, 1)
        fc, ec = normalize(s, 2)
        assert fa == s.polys[0] and ea == (0, 0, 0)
        assert fb == s.polys[1] and eb == (0, 0, 0)
        assert ec == (2, 0, 0)
        minus2 = (-2, 0, 0)
        assert fc == s.polys[2].times_monomial(minus2)

    def test_idempotence(self, example_norm_seed):
        """Normalizing with the already-normalized entry finds no further powers."""
        s = example_norm_seed
        fc, _ = normalize(s, 2)
        renorm = LPSeed(
            s.ctx, (s.polys[0], s.polys[1], fc), s.names, s.values
        )
        # the Laurent entry cannot be divided further by the others
        _, exps = normalize(renorm, 2, check=False)
        assert exps == (0, 0, 0)

    def test_no_divisibility_means_identity(self):
        seed = LPSeed.initial(("x1", "x2"), (), ("x2+2", "x1+1"))
        for j in range(2):
            fhat, exps = normalize(seed, j)
            assert fhat == seed.polys[j] and exps == (0, 0)

    def test_duplicate_polys_normalize_nontrivially(self):
        """The no-boundary 6-gon seed: equal entries F_a = F_c force Fhat != F."""
        seed = LPSeed.initial(("a", "b", "c"), (), ("1+b", "a+c", "1+b"))
        fa, ea = normalize(seed, 0)
        assert ea == (0, 0, 1)
        assert not fa.is_ordinary

    def test_invalid_seed_rejected(self):
        seed = LPSeed.initial(("x1", "x2"), (), ("x1+1", "x1+1"))
        with pytest.raises(InvalidSeed):
            normalize(seed, 0)


class TestMutate:
    def test_mutation_example_golden(self, mutation_example_seed):
        """mu_a gives ({d,b,c}, {b+1, c+d, d^2+b}) with d = (b+1)/a."""
        s = mutation_example_seed
        m = mutate(s, 0, new_name="d")
        ctx = m.ctx
        assert m.names == ("d", "b", "c")
        assert m.polys[0] == parse_polynomial("b+1", ctx)
        assert m.polys[1] == parse_polynomial("a + c", ctx)  # slot a now displays d
        assert m.polys[2] == parse_polynomial("a^2 + b", ctx)
        assert m.poly_strings() == ("b + 1", "d + c", "d^2 + b")
        assert m.values[0] == parse_polynomial("(b+1)*a^-1", ctx)

    def test_literal_seed_display_documents_discrepancy(self, example_norm_seed):
        """With the literal middle entry a+c, mutation yields cd+1, not c+d.

        Both readings are involutive, but only the a*c+1 seed mutates to
        ({d,b,c}, {b+1, c+d, d^2+b}); this test pins the literal behavior.
        """
        m = mutate(example_norm_seed, 0, new_name="d")
        assert m.poly_strings() == ("b + 1", "d*c + 1", "d^2 + b")
        assert seeds_equal(mutate(m, 0), example_norm_seed)

    def test_untouched_directions(self):
        seed = LPSeed.initial(("x", "y"), (), ("y+1", "2"))
        m = mutate(seed, 0)
        assert m.polys[1] == seed.polys[1]
        assert m.values[1] == seed.values[1]

    def test_involution_on_examples(self, mutation_example_seed, example_norm_seed):
        for s in (mutation_example_seed, example_norm_seed):
            for i in range(s.n):
                assert seeds_equal(mutate(mutate(s, i), i), s)

    def test_involution_randomized(self):
        """100 randomized valid seeds: mu_i . mu_i = id and results validate."""
        rng = random.Random(20240811)
        for trial in range(100):
            n = rng.randint(2, 4)
            seed = random_valid_seed(rng, n=n, n_frozen=rng.randint(0, 2))
            i = rng.randrange(n)
            m = mutate(seed, i)  # validates the result internally
            assert validate_seed(m) == []
            assert seeds_equal(mutate(m, i), seed), (trial, seed)

    def test_rank_one_seed(self):
        """n = 1 seeds: F_1 is a coefficient-ring constant; mutation inverts."""
        seed = LPSeed.initial(("x",), ("t",), ("t+1",))
        m = mutate(seed, 0)
        assert m.polys[0] == seed.polys[0]
        assert m.values[0] == parse_polynomial("(t+1)*x^-1", seed.ctx)
        assert seeds_equal(mutate(m, 0), seed)

    def test_mutated_seed_new_name_collision_is_fine(self, mutation_example_seed):
        m1 = mutate(mutation_example_seed, 0)
        m2 = mutate(m1, 0)
        assert m2.names[0] == "a''"
        assert seeds_equal(m2, mutation_example_seed)


class TestStepTwo:
    # sha256 of the exchange polynomials after every step of 400 random 4-step
    # chains, frozen from the gcd-loop implementation of step 2
    CHAINS_SHA256 = "f04876079cf78dd75eec2b71cffd882f21de54beefe723779d753638107935c6"

    def test_random_chains_golden(self):
        rng = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(400):
            n = rng.randint(2, 4)
            s = random_valid_seed(rng, n=n, n_frozen=rng.randint(0, 2))
            for _ in range(4):
                s = mutate(s, rng.randrange(n))
                digest.update("\n".join(s.poly_strings()).encode() + b"\n\n")
        assert digest.hexdigest() == self.CHAINS_SHA256

    def test_octagon_frozen_monomial_numerator(self):
        """On the 8-gon, Fhat_i|_{x_j<-0} is a monomial in boundary variables.

        Exact division by a monomial always succeeds in the Laurent ring, so
        step 2 must strip its variables rather than divide until failure.
        """
        s = surface_seed(0, 0, (8,))
        fhat, _ = normalize(s, 0)
        numerator, _ = strip_laurent_monomial(fhat.subs_zero(1), range(s.n))
        assert numerator == parse_polynomial("b1*b3", s.ctx)
        m = mutate(s, 0)
        # F_x9 = x8*b4 + x10*b3 becomes x8'*x10 + b1*b4: b1*b3*b4 + x8'*x10*b3 with b3 stripped
        assert m.poly_strings() == (
            "x9*b2 + b1*b3", "x8'*x10 + b1*b4", "x9*b5 + x11*b4", "x10*b6 + x12*b5",
            "x11*b7 + b6*b8",
        )
        assert seeds_equal(mutate(m, 0), s)


class TestValueOracle:
    """Every new value agrees with Fhat_i(values) / value_i at a rational point."""

    @staticmethod
    def point(seed):
        rng = random.Random(2016)
        return [Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in seed.ctx.names]

    @staticmethod
    def check(seed, i, point, before):
        """Mutate ``seed`` at ``i``; its values at ``point`` must follow ``before``."""
        fhat, _ = normalize(seed, i)
        want = mutated_values_at(fhat, i, before, point)
        m = mutate(seed, i)
        assert [value_at(v, point) for v in m.values] == want
        return m, want

    @pytest.mark.parametrize("surface, depth", [
        ((0, 1, (4,)), None), ((0, 0, (7,)), None), ((0, 0, (2, 2)), 3),
    ], ids=["M4", "7-gon", "annulus22-depth3"])
    def test_every_mutation_of_a_seed_graph(self, surface, depth):
        g = explore_seeds(surface_seed(*surface), depth=depth)
        point = self.point(g.payloads[0])
        mutations = 0
        for s in g.payloads:
            before = [value_at(v, point) for v in s.values]
            for i in range(s.n):
                self.check(s, i, point, before)
                mutations += 1
        assert mutations == g.node_count * g.payloads[0].n

    def test_random_chains(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 4)
            s = random_valid_seed(rng, n=n, n_frozen=rng.randint(0, 2))
            point = self.point(s)
            numeric = point[:n]
            for _ in range(4):
                s, numeric = self.check(s, rng.randrange(n), point, numeric)


class TestWellDefinedGuard:
    def test_zero_substitution_guard_on_random_seeds(self):
        """x_k in F_i implies Fhat_k|_{x_i<-0} is well defined (no negative power)."""
        rng = random.Random(7)
        for _ in range(40):
            seed = random_valid_seed(rng, n=3, n_frozen=1)
            for i in range(seed.n):
                for k in range(seed.n):
                    if i == k or not seed.polys[i].involves(k):
                        continue
                    fhat_k, _ = normalize(seed, k, check=False)
                    # substituting zero must not hit a negative exponent
                    fhat_k.subs_zero(i)


class TestSeedsEqual:
    def test_reflexive(self, example_norm_seed):
        assert seeds_equal(example_norm_seed, example_norm_seed)

    def test_unit_insensitive(self, example_norm_seed):
        s = example_norm_seed
        negated = LPSeed(
            s.ctx,
            (s.polys[0].neg(), s.polys[1], s.polys[2]),
            s.names,
            s.values,
        )
        assert seeds_equal(s, negated)

    def test_mutation_changes_seed(self, mutation_example_seed):
        m = mutate(mutation_example_seed, 0)
        assert not seeds_equal(m, mutation_example_seed)

    def test_slot_permutation_detected(self):
        """Same cluster as a set, polynomials must follow the values."""
        s1 = LPSeed.initial(("x", "y"), ("t",), ("y+t", "x+1"))
        ctx = s1.ctx
        vx = parse_polynomial("x", ctx)
        vy = parse_polynomial("y", ctx)
        # same data with the two slots' roles exchanged: slot 0 now holds the
        # value y (its polynomial refers to slot 1, which holds x)
        s2 = LPSeed(
            ctx,
            (parse_polynomial("y+1", ctx), parse_polynomial("x+t", ctx)),
            ("y", "x"),
            (vy, vx),
        )
        assert seeds_equal(s1, s2)

    def test_keys_are_hashable_and_stable(self, example_norm_seed):
        k1 = seed_key(example_norm_seed)
        k2 = seed_key(example_norm_seed)
        assert k1 == k2 and hash(k1) == hash(k2)


class TestJson:
    def test_round_trip(self, mutation_example_seed):
        data = seed_to_json(mutation_example_seed)
        assert data["schema"] == 1
        back = seed_from_json(data)
        assert seeds_equal(back, mutation_example_seed)

    def test_mutate_twice_round_trips_file(self, mutation_example_seed):
        """Double mutation reproduces the input file up to canonical form.

        The twice-mutated variable is renamed (a''), so the comparison is on
        the name-independent structure: exponent tables per slot plus the
        frozen list.
        """
        m1 = mutate(mutation_example_seed, 0)
        m2 = mutate(m1, 0)
        back = seed_from_json(seed_to_json(m2))
        orig = mutation_example_seed
        assert back.names == ("a''", "b", "c")
        assert [p.terms for p in back.polys] == [p.terms for p in orig.polys]
        assert back.ctx.frozen == orig.ctx.frozen
        assert [v.terms for v in back.values] == [v.terms for v in orig.values]
