import hashlib
import random
from fractions import Fraction

import pytest

from lpsurf.build import initial_quasi_triangulation
from lpsurf.lp_core import (
    InvalidSeed,
    _divide_out_common,
    _exchange_step,
    _exchange_token,
    LaurentViolation,
    LPSeed,
    MutationError,
    mutate,
    normalize,
    seed_from_json,
    seed_key,
    seed_to_json,
    seeds_equal,
    validate_seed,
)
from lpsurf.explorer import explore_seeds
from lpsurf.poly import PolyError, VariableContext, parse_polynomial, strip_laurent_monomial
from lpsurf.surface import MarkedSurface, seed_from_quasi_triangulation

from conftest import mixed_sign_seeds, random_frozen_variable_seed, random_valid_seed
from oracles import (
    divide_out_common,
    mutated_values_at,
    normalization_exponents,
    relabel_slots,
    seed_key_oracle,
    value_at,
)


def surface_seed(*surface):
    return seed_from_quasi_triangulation(initial_quasi_triangulation(MarkedSurface(*surface)))


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

    @pytest.mark.parametrize("polys, want", [
        (("1", "0"), ["F_x1 is a unit", "F_x2 is zero"]),
        (("x2^-1 + 1", "x1 + 1"), ["F_x1 has negative exponents"]),
        (("x1*x2 + x1", "x1 + 1"), ["F_x1 depends on x_x1", "F_x1 is reducible"]),
        (("x1", "t"), ["F_x1 depends on x_x1", "F_x1 is a cluster variable"]),
        (("2*x2 + 2", "-x1"), ["F_x1 is reducible", "F_x2 is a cluster variable"]),
        (("t^2 - 1", "x1^2"), ["F_x1 is reducible", "F_x2 is reducible"]),
    ])
    def test_messages_and_their_order(self, polys, want):
        assert validate_seed(LPSeed.initial(("x1", "x2"), ("t",), polys)) == want

    def test_each_polynomial_object_is_checked_once(self):
        """The slot-free checks are cached on the polynomial; ``involves`` is per slot."""
        seed = LPSeed.initial(("x1", "x2"), ("t",), ("x2 + 1", "x1 + 1"))
        p = parse_polynomial("x1 + t", seed.ctx)
        assert validate_seed(LPSeed(seed.ctx, (p, p), seed.names, seed.values)) == ["F_x1 depends on x_x1"]
        assert vars(p)["exchange_defects"] == (None, ())
        vars(p)["exchange_defects"] = (None, ("is marked",))
        assert validate_seed(LPSeed(seed.ctx, (seed.polys[0], p), seed.names, seed.values)) == ["F_x2 is marked"]

    def test_violations_computed_once_and_outside_equality_hashing_and_json(self):
        seed = LPSeed.initial(("a", "x", "y"), ("b",), ("x+y", "b*x + b*y", "x+1"))
        fresh = LPSeed.initial(("a", "x", "y"), ("b",), ("x+y", "b*x + b*y", "x+1"))
        assert seed.violations is seed.violations
        assert seed.violations == tuple(validate_seed(fresh))
        assert "violations" in vars(seed) and "violations" not in vars(fresh)
        assert seed == fresh and hash(seed) == hash(fresh)
        assert seed_to_json(seed) == seed_to_json(fresh)


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
        with pytest.raises(InvalidSeed):
            mutate(seed, 0)

    def test_frozen_variable_is_not_a_unit(self, frozen_variable_seed, time_limit):
        """F_x = t divides nothing in x + 1; dividing by t in the Laurent ring never stops."""
        s = frozen_variable_seed
        assert normalize(s, 0) == (s.polys[0], (0, 0))
        assert normalize(s, 1) == (parse_polynomial("x + 1", s.ctx), (0, 0))

    def test_a_higher_coefficient_sets_the_power(self):
        """F_x = (z+1)^2 + y: c_0 = F_y^2 but c_1 = 1, so a_y = min(0 + 2, 1 + 0) = 1."""
        seed = LPSeed.initial(("x", "y", "z"), (), ("(z+1)^2 + y", "z + 1", "x + 1"))
        fhat, exps = normalize(seed, 0)
        assert exps == (0, 1, 0)
        assert fhat == parse_polynomial("(z+1)^2*y^-1 + 1", seed.ctx)


class TestNormalizeOracle:
    """normalize agrees with the definition of a_k computed in sympy."""

    @staticmethod
    def check(seed):
        frozen = (0,) * len(seed.ctx.frozen)
        for j in range(seed.n):
            fhat, exps = normalize(seed, j)
            assert exps == normalization_exponents(seed.polys, j), (seed, j)
            assert fhat.times_monomial(exps + frozen) == seed.polys[j]

    @pytest.mark.parametrize("surface, depth", [
        ((0, 1, (4,)), None), ((0, 0, (7,)), None), ((0, 0, (6,), False), None),
        ((0, 0, (2, 2)), 3),
    ], ids=["M4", "7-gon", "hexagon-no-boundary-variables", "annulus22-depth3"])
    def test_every_seed_of_a_seed_graph(self, surface, depth):
        for s in explore_seeds(surface_seed(*surface), depth=depth).payloads:
            self.check(s)

    def test_seeds_cover_both_ways_of_deciding_a_power(self):
        """M4's seeds have powers decided by supports and powers that need division, some positive.

        ``normalize`` divides only where every variable of ``F_k`` is one of
        ``F_j``'s, so the oracle above checks both branches.
        """
        decided, divided = [], []
        for s in explore_seeds(surface_seed(0, 1, (4,))).payloads:
            for j in range(s.n):
                exps = normalization_exponents(s.polys, j)
                support = set(s.polys[j].involved_indices())
                for k in range(s.n):
                    if k != j:
                        open_ = set(s.polys[k].involved_indices()) <= support
                        (divided if open_ else decided).append(exps[k])
        assert (len(decided), len(divided), sum(a > 0 for a in divided)) == (728, 40, 20)

    def test_random_seeds(self):
        rng = random.Random(13)
        for _ in range(200):
            self.check(random_valid_seed(rng, n=rng.randint(2, 4), n_frozen=rng.randint(0, 2)))

    def test_frozen_variable_seed(self, frozen_variable_seed, time_limit):
        self.check(frozen_variable_seed)

    def test_random_seeds_with_bare_frozen_variables(self, time_limit):
        """normalize and mutate end on seeds with F_k = t, and mutation stays involutive."""
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 4)
            seed = random_frozen_variable_seed(rng, n=n, n_frozen=rng.randint(1, 2))
            self.check(seed)
            for i in range(n):
                assert seeds_equal(mutate(mutate(seed, i), i), seed), (seed, i)


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


def whole_seed_entries(memo: dict) -> int:
    """The memo's entries for whole exchanges; the others hold their parts."""
    return sum(key[0] == "seed" for key in memo)


class TestMutationMemo:
    """``mutate(..., memo=m)`` equals a fresh ``mutate``, whatever shared the memo before."""

    def test_failure_is_raised_again_under_each_name(self, monkeypatch):
        s = LPSeed.initial(("x",), ("t",), ("t+1",))
        s = s.with_values([parse_polynomial("t*x", s.ctx)])
        with pytest.raises(LaurentViolation) as fresh:
            mutate(s, 0)
        calls = []
        monkeypatch.setattr("lpsurf.lp_core.normalize", lambda *a: calls.append(a) or normalize(*a))
        memo: dict = {}
        raised = []
        for name in ("u", "w"):
            with pytest.raises(LaurentViolation) as exc:
                mutate(s, 0, new_name=name, memo=memo)
            raised.append(exc.value)
        assert [e.name for e in raised] == ["u", "w"] and len(calls) == 1
        assert whole_seed_entries(memo) == 1 and not any(key[0] == "value" for key in memo)
        for e in raised:
            assert (e.num, e.den) == (fresh.value.num, fresh.value.den)
        assert str(raised[1]) == str(fresh.value).replace("x'", "w")

    def test_key_holds_the_mutated_slot_value(self, mutation_example_seed):
        s1 = mutation_example_seed
        s2 = s1.with_values([parse_polynomial("a^2", s1.ctx)] + list(s1.values[1:]))
        assert mutate(s1, 0).values[0] != mutate(s2, 0).values[0]
        memo: dict = {}
        for s in (s1, s2, s1):
            assert mutate(s, 0, memo=memo) == mutate(s, 0)
        assert whole_seed_entries(memo) == 2

    def test_key_holds_the_sign(self, mutation_example_seed):
        """Seeds with one key up to sign mutate to values of opposite sign (ROADMAP item 7)."""
        s1 = mutation_example_seed
        s2 = LPSeed(s1.ctx, (s1.polys[0].neg(),) + s1.polys[1:], s1.names, s1.values)
        assert mutate(s2, 0).values[0] == mutate(s1, 0).values[0].neg()
        memo: dict = {}
        for s in (s1, s2):
            assert mutate(s, 0, memo=memo) == mutate(s, 0)

    def test_part_keys_hold_the_context(self):
        """Seeds over one variable list split differently into cluster and frozen share no part."""
        s1 = LPSeed.initial(("a", "b", "c"), ("t",), ("t", "a + c", "1 + b"))
        s2 = LPSeed.initial(("a", "b"), ("c", "t"), ("t", "a + c"))
        assert s1.ctx.names == s2.ctx.names
        memo: dict = {}
        mutate(s1, 0, memo=memo)
        result = mutate(s2, 0, memo=memo)
        assert result == mutate(s2, 0)
        assert all(p.ctx == s2.ctx for p in result.polys + result.values)
        assert mutate(result, 1, memo=memo) == mutate(mutate(s2, 0), 1)

    def test_chains_with_a_memo_match_chains_without(self):
        """At every step of 50 annulus(2,2) chains, a memo hit gives a fresh call's seed and verdict."""
        seed = surface_seed(0, 0, (2, 2))
        rng = random.Random(3)
        memo: dict = {}
        steps = 0
        for _ in range(50):
            a = b = seed
            for _ in range(rng.randint(1, 6)):
                i = rng.randrange(seed.n)
                a, b = mutate(a, i, memo=memo), mutate(b, i)
                assert a == b and a.violations == tuple(validate_seed(a)) == ()
                steps += 1
        assert whole_seed_entries(memo) < steps / 2

    def test_hit_takes_this_calls_name(self, mutation_example_seed):
        s = mutation_example_seed
        memo: dict = {}
        mutate(s, 0, new_name="u", memo=memo)
        hit = mutate(s, 0, new_name="w", memo=memo)
        assert hit == mutate(s, 0, new_name="w") and hit.names[0] == "w" and hit.violations == ()
        with pytest.raises(PolyError, match="already in use"):
            mutate(s, 0, new_name="b", memo=memo)
        assert whole_seed_entries(memo) == 1

    def test_failure_of_an_equal_seed_is_a_hit(self, monkeypatch):
        """The key compares polynomials by value, so a seed built anew hits a stored failure."""
        def build():
            s = LPSeed.initial(("x",), ("t",), ("t+1",))
            return s.with_values([parse_polynomial("t*x", s.ctx)])

        memo: dict = {}
        with pytest.raises(LaurentViolation) as first:
            mutate(build(), 0, new_name="u", memo=memo)
        monkeypatch.setattr("lpsurf.lp_core._exchange", None)  # a hit computes nothing
        with pytest.raises(LaurentViolation) as again:
            mutate(build(), 0, new_name="w", memo=memo)
        assert again.value.name == "w"
        assert (again.value.num, again.value.den) == (first.value.num, first.value.den)

    def test_a_call_that_raises_keeps_no_whole_seed(self, monkeypatch, mutation_example_seed):
        s = mutation_example_seed
        memo: dict = {}
        with pytest.raises(PolyError, match="already in use"):
            mutate(s, 0, new_name="c", memo=memo)
        with pytest.raises(InvalidSeed):
            mutate(LPSeed(s.ctx, (s.polys[1],) * 3, s.names, s.values), 0, memo=memo)
        own = parse_polynomial("a + 1", s.ctx)  # slot 0's polynomial may not involve x_a
        with monkeypatch.context() as m:
            m.setattr("lpsurf.lp_core._exchange",
                      lambda seed, i, name, memo: ((own,) + seed.polys[1:], seed.values[0]))
            with pytest.raises(MutationError, match="depends on"):
                mutate(s, 0, memo=memo)
        assert whole_seed_entries(memo) == 0
        assert mutate(s, 0, memo=memo) == mutate(s, 0) and whole_seed_entries(memo) == 1

    def test_key_holds_the_context(self):
        s1 = LPSeed.initial(("a", "b"), ("t",), ("b + t", "a + 1"))
        s2 = LPSeed.initial(("x", "y"), ("u",), ("y + u", "x + 1"))
        assert [p.terms for p in s1.polys] == [p.terms for p in s2.polys]
        memo: dict = {}
        for s in (s1, s2):
            m = mutate(s, 0, memo=memo)
            assert m == mutate(s, 0) and m.polys[1].ctx == s.ctx
        assert whole_seed_entries(memo) == 2


XY, ABC, ABCD = ("x", "y"), ("a", "b", "c"), ("a", "b", "c", "d")


def exchange(cluster, polys, i=0, values=()):
    """Slot ``i`` of a seed over ``cluster`` and the frozen ``t``, with optional values."""
    seed = LPSeed.initial(cluster, ("t",), polys)
    if values:
        seed = seed.with_values([parse_polynomial(v, seed.ctx) for v in values])
    return seed, i


class TestLocalMemo:
    """Exchanges whose local memo keys differ in one part only share a memo correctly.

    Each pair mutates two seeds at one slot each.  The part under test, the
    new value (``slots`` None) or the exchange polynomials at ``slots``,
    differs between them, and with a shared memo both mutations still equal
    fresh ones.
    """

    @pytest.mark.parametrize("first, second, slots", [
        # the new value: per term of Fhat_i the signed coefficient, the frozen
        # exponents and the values with their powers; and value_i
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y - t", "x + 1"]), None),
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y + t^2", "x + 1"]), None),
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y + t", "x + 1"], 0, ["x^2", "y"]),
         None),
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y^2 + t", "x + 1"]), None),
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y + t", "x + 1"], 0, ["x", "y^2"]),
         None),
        # steps 1-3 for slot j: Fhat_i|x_j<-0, F_j and i; the step-Fhat_i pair
        # differs in Fhat_i|x_j<-0 by its sign, the step-j pair by where it is taken
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y - t", "x + 1"]), (1, 1)),
        (exchange(XY, ["y + t", "x + 1"]), exchange(XY, ["y + t", "x + 2"]), (1, 1)),
        (exchange(ABC, ["c + t", "a + t", "a + b^2"], 0),
         exchange(ABC, ["b + t", "c + t", "a + b^2"], 1), (2, 2)),
        (exchange(ABCD, ["c + d^2", "c + t", "a + b", "b + t"]),
         exchange(ABCD, ["c + d^2", "c + t", "b + t", "a + b"]), (2, 3)),
        # the powers a_k of normalizing F_i: F_k, F_i and k
        (exchange(ABC, ["b + c*t + c", "t + 1", "t + 2"]),
         exchange(ABC, ["b + c*t + c", "t + 2", "t + 2"]), None),
        (exchange(ABC, ["b + c*t + c", "t + 1", "t + 2"]),
         exchange(ABC, ["b + c*t + 2*c", "t + 1", "t + 2"]), None),
    ], ids=["coefficient-sign", "frozen-exponent", "value_i", "exponent-e_k", "value_k",
            "step-Fhat_i", "step-F_j", "step-i", "step-j", "power-F_k", "power-F_i"])
    def test_pair(self, first, second, slots):
        (s1, i1), (s2, i2) = first, second
        fresh = [mutate(s1, i1), mutate(s2, i2)]
        if slots is None:
            assert fresh[0].values[i1].terms != fresh[1].values[i2].terms
        else:
            assert fresh[0].polys[slots[0]].terms != fresh[1].polys[slots[1]].terms
        memo: dict = {}
        assert [mutate(s1, i1, memo=memo), mutate(s2, i2, memo=memo)] == fresh

    def test_step_key_is_the_restriction(self):
        """Two Fhat_a that differ only in a term divisible by b share one step entry."""
        (s1, _), (s2, _) = exchange(ABC, ["b + t", "a + t", "t + 2"]), \
            exchange(ABC, ["b*c + t", "a + t", "t + 2"])
        fhat1, fhat2 = normalize(s1, 0)[0], normalize(s2, 0)[0]
        assert fhat1 != fhat2 and fhat1.subs_zero(1) == fhat2.subs_zero(1)
        fresh = [mutate(s1, 0), mutate(s2, 0)]
        memo: dict = {}
        assert [mutate(s1, 0, memo=memo), mutate(s2, 0, memo=memo)] == fresh
        assert [key[0] for key in memo].count("step") == 1

    def test_power_key_holds_the_slot(self):
        """F_b = F_c, yet a_b = 1 and a_c = 0 in normalizing F_a at one call."""
        s, _ = exchange(ABC, ["b + c*t + c", "t + 1", "t + 1"])
        assert normalize(s, 0)[1] == (0, 1, 0)
        assert mutate(s, 0, memo={}) == mutate(s, 0)


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

    # factors of the products h: the numerators' own prime factors and others
    POOL = ("2", "3", "x1 - 2", "x1 + 2", "x2 - 1", "x2 + 1", "x1", "t1", "t2", "t1 + 2",
            "x1 + t2", "x1*x2 + t1", "x2^2 + t2")

    @pytest.mark.parametrize("numerator", [
        "x1^2 - 4",  # reducible primitive part
        "2*x2^2 - 2",  # integer content, reducible primitive part
        "t1^2 + 2*t1",  # frozen monomial content
        "6*t1^2*t2*(x1^2 - 4)",  # all three
        "2*t1",  # a monomial that is not +-1
        "t1*t2",  # a +-1 monomial: only variables are stripped
        "x1 + t2",  # irreducible: its own primitive part
        "(x2 + 1)*(x2^2 + t2)*x1^-1",  # a negative cluster exponent
        "x1*(x1*x2 + t1)",  # a cluster-monomial factor
    ])
    def test_divide_out_common_matches_sympy_gcd(self, numerator):
        """Against the oracle on ``p.num``: a Laurent ``p``'s monomials are units."""
        ctx = VariableContext(("x1", "x2"), ("t1", "t2"))
        p = parse_polynomial(numerator, ctx)
        rng = random.Random(numerator)
        for _ in range(40):
            factors = rng.choices(self.POOL, k=rng.randint(1, 6))
            h = parse_polynomial("*".join(f"({f})" for f in factors), ctx)
            want = divide_out_common(h, p.num)
            got = dict(_divide_out_common(h, p).terms)
            assert got in (want, {e: -c for e, c in want.items()}), (str(h), numerator)

    def test_step_three_takes_the_positive_sign(self):
        """The new exchange polynomial has a positive grlex leading coefficient.

        Fhat_i|_{x_j<-0} = (x2 - x3^2)(x2 + 1) is reducible, so step 2 divides
        by sympy's factors, which sympy signs in lex order: x2 - x3^2 leads
        with -x3^2 in grlex.  Step 1 gives (x3^2 - x2)(x1 + x2 + 1), and
        dividing out x2 - x3^2 leaves -(x1 + x2 + 1): only step 3's sign
        normalization makes the result canonical.
        """
        ctx = VariableContext(("x1", "x2", "x3"))
        numerator = parse_polynomial("(x2 - x3^2)*(x2 + 1)", ctx)
        fj = parse_polynomial("x1 + x2 - x3^2", ctx)
        assert _exchange_step(ctx, numerator, fj, 0) == parse_polynomial("x1 + x2 + 1", ctx)


class TestValidateOnce:
    def test_each_explored_seed_is_validated_once(self, monkeypatch):
        calls = []

        def counting(seed):
            calls.append(seed)
            return validate_seed(seed)

        monkeypatch.setattr("lpsurf.lp_core.validate_seed", counting)
        g = explore_seeds(surface_seed(0, 0, (6,)))
        # the initial seed once, then the one mutation result of each of the 21 edges once
        assert (g.node_count, g.edge_count, len(calls)) == (14, 21, 1 + 21)

    @pytest.mark.parametrize("surface, depth, mutations", [
        ((0, 0, (7,)), None, 84), ((0, 1, (4,)), None, 128), ((0, 0, (2, 2)), 3, 40),
    ], ids=["7-gon", "M4", "annulus22-depth3"])
    def test_each_edge_is_mutated_once(self, monkeypatch, surface, depth, mutations):
        calls = []

        def counting(seed, i, **kwargs):
            calls.append(i)
            return mutate(seed, i, **kwargs)

        monkeypatch.setattr("lpsurf.explorer.mutate", counting)
        g = explore_seeds(surface_seed(*surface), depth=depth)
        assert (g.edge_count, len(calls)) == (mutations, mutations)


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
                    fhat_k, _ = normalize(seed, k)
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


def mutation_balls(seeds, depth):
    """Each seed and every seed reached from it by at most ``depth`` mutations."""
    out = []
    for seed in seeds:
        memo: dict = {}
        layer = [seed]
        for _ in range(depth + 1):
            out.extend(layer)
            layer = [mutate(s, i, memo=memo) for s in layer for i in range(s.n)]
    return out


class TestSeedKeyOracle:
    """``seed_key`` groups seeds as the key first written does (``oracles.seed_key_oracle``)."""

    @staticmethod
    def assert_same_grouping(seeds):
        pairs = [(seed_key(s), seed_key_oracle(s)) for s in seeds]
        assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) == len(set(pairs))
        return len(set(pairs))

    def test_mixed_sign_seeds(self):
        seeds = mutation_balls(mixed_sign_seeds(), 2)
        assert self.assert_same_grouping(seeds) < len(seeds)

    @pytest.mark.parametrize("surface, nodes", [((0, 0, (6,)), 14), ((0, 1, (4,)), 64)],
                             ids=["hexagon", "M4"])
    def test_every_seed_of_a_surface(self, surface, nodes):
        """Every node's seed and every seed its mutations reach, revisits included."""
        g = explore_seeds(surface_seed(*surface))
        assert self.assert_same_grouping(mutation_balls(g.payloads, 1)) == nodes

    def test_key_ignores_slot_order_and_sign(self):
        rng = random.Random(2)
        seeds = mutation_balls(mixed_sign_seeds(30), 1) + mutation_balls([surface_seed(0, 1, (4,))], 2)
        for s in seeds:
            perm = rng.sample(range(s.n), s.n)
            moved = relabel_slots(s, perm)
            assert seed_key(moved) == seed_key(s)
            assert [_exchange_token(moved, perm[i]) for i in range(s.n)] == [
                _exchange_token(s, i) for i in range(s.n)]
            signs = [rng.choice((1, -1)) for _ in range(s.n)]
            negated = LPSeed(s.ctx, tuple(p if k == 1 else p.neg() for k, p in zip(signs, s.polys)),
                             s.names, s.values)
            assert seed_key(negated) == seed_key(s)
            assert [_exchange_token(negated, i) == _exchange_token(s, i) for i in range(s.n)] == [
                k == 1 for k in signs]


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
