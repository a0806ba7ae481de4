import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsurf.poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    VariableContext,
    divide_exact,
    is_irreducible,
    parse_polynomial,
    poly_gcd,
    strip_laurent_monomial,
)

from oracles import brute_force_reducible


def P(text, ctx):
    return parse_polynomial(text, ctx)


class TestArithmetic:
    def test_additive_identity(self, abc_ctx):
        p = P("b+1", abc_ctx)
        assert p.add(Polynomial.zero(abc_ctx)) == p

    def test_square_binomial(self, abc_ctx):
        assert P("b+1", abc_ctx).mul(P("b+1", abc_ctx)) == P("b^2 + 2*b + 1", abc_ctx)

    def test_pocket_quadratic_expansion(self):
        # (c+d)^2 + a^2*c*d written out term by term
        ctx = VariableContext(("a", "c", "d"))
        lhs = P("c+d", ctx).mul(P("c+d", ctx)).add(P("a^2*c*d", ctx))
        assert lhs == P("c^2 + 2*c*d + d^2 + a^2*c*d", ctx)

    def test_context_mismatch(self, abc_ctx):
        other = VariableContext(("x", "y"))
        with pytest.raises(ContextMismatch):
            P("a", abc_ctx).add(P("x", other))


class TestDivideExact:
    def test_maximal_power_is_two(self):
        # ((b+1)^2 + (b+1)^2 b x^-2) x^2 divides by (b+1) twice, not thrice
        ctx = VariableContext(("b", "x"))
        p = P("((b+1)^2 + (b+1)^2*b*x^-2)*x^2", ctx)
        q = P("b+1", ctx)
        r1 = divide_exact(p, q)
        assert r1 is not None
        r2 = divide_exact(r1, q)
        assert r2 is not None
        assert divide_exact(r2, q) is None

    def test_divide_by_one(self, abc_ctx):
        p = P("a^2*b + c", abc_ctx)
        assert divide_exact(p, Polynomial.const(abc_ctx, 1)) == p

    def test_difference_of_squares(self):
        ctx = VariableContext(("x", "y"))
        assert divide_exact(P("x^2 - y^2", ctx), P("x+y", ctx)) == P("x - y", ctx)

    def test_zero_divisor_raises(self, abc_ctx):
        with pytest.raises(PolyError):
            divide_exact(P("a", abc_ctx), Polynomial.zero(abc_ctx))

    def test_laurent_quotient(self):
        ctx = VariableContext(("x", "y"))
        p = P("x^-1*y + 1", ctx)
        q = P("y + x", ctx)
        r = divide_exact(p, q)
        assert r is not None and q.mul(r) == p


class TestGcd:
    def test_cleared_denominator_factor(self):
        # gcd of the denominator-cleared G_c with b+1 recovers b+1
        ctx = VariableContext(("b", "d"))
        cleared = P("(b+1)^2*d^2 + (b+1)^2*b", ctx)
        assert poly_gcd(cleared, P("b+1", ctx)) == P("b+1", ctx)

    def test_gcd_self(self, abc_ctx):
        p = P("a^2 - b", abc_ctx)
        assert poly_gcd(p, p) == p.canonical_sign()
        assert poly_gcd(p.neg(), p) == p.canonical_sign()

    def test_coprime(self):
        ctx = VariableContext(("x", "y"))
        assert poly_gcd(P("x+y", ctx), P("x-y", ctx)).is_unit

    def test_monomial_content(self):
        ctx = VariableContext(("x", "y"))
        assert poly_gcd(P("x^2*y", ctx), P("x*y^2", ctx)) == P("x*y", ctx)

    def test_gcd_zero(self, abc_ctx):
        p = P("a+b", abc_ctx)
        assert poly_gcd(p, Polynomial.zero(abc_ctx)) == p
        with pytest.raises(PolyError):
            poly_gcd(Polynomial.zero(abc_ctx), Polynomial.zero(abc_ctx))


class TestStrip:
    def test_canonicalizing_monomial_examples(self):
        ctx = VariableContext(("c", "d"))
        q, m = strip_laurent_monomial(P("c*d^-1 + 1", ctx))
        assert q == P("c + d", ctx) and m == (0, 1)
        ctx2 = VariableContext(("b", "d"))
        q2, m2 = strip_laurent_monomial(P("1 + b*d^-2", ctx2))
        assert q2 == P("d^2 + b", ctx2) and m2 == (0, 2)

    def test_pure_monomial(self):
        ctx = VariableContext(("x", "y"))
        q, m = strip_laurent_monomial(P("x^2*y", ctx))
        assert q == Polynomial.const(ctx, 1) and m == (-2, -1)

    def test_zero_raises(self, abc_ctx):
        with pytest.raises(PolyError):
            strip_laurent_monomial(Polynomial.zero(abc_ctx))


class TestIrreducible:
    def test_golden_examples(self):
        ctx = VariableContext(("x", "y"), ("b",))
        assert is_irreducible(P("b+1", ctx))
        assert not is_irreducible(P("b*x + b*y", ctx))  # b*(x+y): frozen factor
        assert is_irreducible(Polynomial.const(ctx, 2))
        assert is_irreducible(P("x^2 + y^2", ctx))
        assert is_irreducible(P("x^2 + 1", ctx))

    def test_binomial_certificates(self):
        ctx = VariableContext(("x", "y", "z"))
        assert is_irreducible(P("x*y + z", ctx))
        assert is_irreducible(P("x^2*y + z", ctx))
        assert not is_irreducible(P("x^2 - y^2", ctx))
        assert not is_irreducible(P("x^3 + y^3", ctx))
        assert not is_irreducible(P("x^2", ctx))
        assert is_irreducible(P("x", ctx))

    def test_preconditions(self, abc_ctx):
        with pytest.raises(PolyError):
            is_irreducible(Polynomial.zero(abc_ctx))
        with pytest.raises(PolyError):
            is_irreducible(Polynomial.const(abc_ctx, -1))
        with pytest.raises(PolyError):
            is_irreducible(P("a^-1 + 1", abc_ctx))

    def test_agrees_with_brute_force_on_corpus(self):
        """Every corpus entry: total degree <= 4 in <= 3 variables."""
        ctx = VariableContext(("x", "y", "z"))
        corpus = [
            "x + 1",
            "x + y",
            "x*y + 1",
            "x^2 + y",
            "x^2 + y^2",
            "x^2 + x + 1",
            "x^2*y^2 + 1",
            "(x + 1)*(y + 1)",
            "(x + y)*(x - y)",
            "(x + 1)^2",
            "2*x + 2",
            "x*y*z + 1",
            "(x + y)*(y + z)",
            "x^2 + y^2 + 2*x*y",  # (x+y)^2
            "x^2*y + x*y^2",      # xy(x+y)
            "x^3 + 1",
            "x^4 + 1",
            "(x^2 + 1)*(y + 1)",
            "x^2 + y*z",
            "x^2*y^2 + x*y + 1",
        ]
        for text in corpus:
            p = parse_polynomial(text, ctx).canonical_sign()
            assert is_irreducible(p) == (not brute_force_reducible(p)), text


# -- property tests -------------------------------------------------------------

_ctx = VariableContext(("x", "y"), ("t",))


def _polys(max_terms=4, max_coeff=4, allow_laurent=False):
    lo = -2 if allow_laurent else 0
    exponent = st.integers(min_value=lo, max_value=3)
    term = st.tuples(st.tuples(exponent, exponent, exponent),
                     st.integers(min_value=-max_coeff, max_value=max_coeff))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: Polynomial.from_dict(
            _ctx, {e: c for e, c in terms if c}
        )
    )


@settings(max_examples=120, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert p.add(q) == q.add(p)
    assert p.add(q).add(r) == p.add(q.add(r))
    assert p.mul(q) == q.mul(p)
    assert p.mul(q).mul(r) == p.mul(q.mul(r))
    assert p.mul(q.add(r)) == p.mul(q).add(p.mul(r))


@settings(max_examples=120, deadline=None)
@given(_polys(allow_laurent=True), _polys(allow_laurent=True))
def test_divide_product_recovers_factor(p, q):
    if q.is_zero:
        return
    prod = p.mul(q)
    got = divide_exact(prod, q)
    assert got == p


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=3, max_coeff=3), _polys(max_terms=3, max_coeff=3),
       _polys(max_terms=2, max_coeff=2))
def test_gcd_divides_and_scales(p, q, r):
    if p.is_zero and q.is_zero:
        return
    g = poly_gcd(p, q)
    if not p.is_zero:
        assert divide_exact(p, g) is not None
    if not q.is_zero:
        assert divide_exact(q, g) is not None
    if not r.is_zero and not p.is_zero and not q.is_zero:
        lhs = poly_gcd(p.mul(r), q.mul(r))
        rhs = g.mul(r).canonical_sign()
        assert divide_exact(lhs, rhs) is not None and divide_exact(rhs, lhs) is not None


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=3, max_coeff=3), _polys(max_terms=3, max_coeff=3))
def test_gcd_matches_sympy(p, q):
    """Independent cross-check of the primitive-part recursion."""
    import sympy

    if p.is_zero or q.is_zero:
        return
    gens = sympy.symbols("x y t")

    def to_sympy(poly):
        return sympy.Poly.from_dict({e: c for e, c in poly.terms}, *gens, domain=sympy.ZZ)

    want = sympy.gcd(to_sympy(p), to_sympy(q))
    got = to_sympy(poly_gcd(p, q))
    assert got == want or got == -want


@settings(max_examples=100, deadline=None)
@given(_polys(allow_laurent=True))
def test_strip_properties(p):
    if p.is_zero:
        return
    q, m = strip_laurent_monomial(p)
    assert q.is_ordinary
    assert q.leading_coefficient() > 0
    for i in range(_ctx.nvars):
        if q.involves(i):
            assert q.valuation_in(i) == 0
    shifted = p.times_monomial(m)
    assert shifted == q or shifted == q.neg()


@settings(max_examples=80, deadline=None)
@given(_polys(max_terms=3))
def test_parse_print_roundtrip(p):
    if p.is_zero:
        return
    assert parse_polynomial(p.to_string(), _ctx) == p


class TestNumDen:
    def test_denominator_clears_negative_exponents(self):
        ctx = VariableContext(("x", "y"))
        p = P("x^-2*y + y^-1 + 3", ctx)
        assert p.den == P("x^2*y", ctx)
        assert p.num == P("y^2 + x^2 + 3*x^2*y", ctx)

    def test_positive_monomial_content_stays_in_numerator(self):
        ctx = VariableContext(("x", "y"))
        p = P("x^2*y^-1", ctx)
        assert p.num == P("x^2", ctx) and p.den == P("y", ctx)

    def test_ordinary_and_zero(self):
        ctx = VariableContext(("x",))
        p = P("-x + 2", ctx)
        assert p.num == p and p.den == P("1", ctx)
        zero = Polynomial.zero(ctx)
        assert zero.num == zero and zero.den == P("1", ctx)
