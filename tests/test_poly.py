import heapq
import json
import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsurf import _packed, poly
from lpsurf.build import initial_quasi_triangulation, triangulation_to_json
from lpsurf.cli import main
from lpsurf.lp_core import seed_to_json
from lpsurf.poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    VariableContext,
    divide_exact,
    is_irreducible,
    parse_polynomial,
    strip_laurent_monomial,
)
from lpsurf.surface import MarkedSurface, seed_from_quasi_triangulation

from oracles import (
    brute_force_reducible,
    factor_irreducible,
    laurent_power,
    laurent_product,
    laurent_quotient,
    laurent_substitution,
    seed_graph_json,
    strictly_descending_grlex,
)


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

    # Found by a random search: dividing the product by DIVISOR cancels a
    # remainder term, and a later quotient term creates it again.
    QUOTIENT = "-2*x^2*y*t^2 - x*y^2*t^2 - x^2*y*t - x*y*t - 2*x^2"
    DIVISOR = "x^2*y^2*t - x*y^2*t + 2*x^2*y - x*y^2"

    @staticmethod
    def recreated_terms(p, q):
        """Terms that the greedy division of p by q, with a max scan, cancels and creates again."""
        rem, (qe, qc), cancelled, recreated = dict(p.terms), q.terms[0], set(), set()
        while rem:
            le = max(rem, key=lambda e: (sum(e), e))
            lc = rem.pop(le)
            if min(a - b for a, b in zip(le, qe)) < 0 or lc % qc:
                break
            for e2, c2 in q.terms[1:]:
                e = tuple(a - b + d for a, b, d in zip(le, qe, e2))
                recreated.update(cancelled & {e})
                rem[e] = rem.get(e, 0) - lc // qc * c2
                if not rem[e]:
                    del rem[e]
                    cancelled.add(e)
        return recreated

    @pytest.mark.parametrize("extra", ["0", "x^2*y"], ids=["divides", "does-not-divide"])
    def test_cancelled_term_created_again(self, monkeypatch, extra):
        ctx = VariableContext(("x", "y"), ("t",))
        q = P(self.DIVISOR, ctx)
        p = P(f"({self.QUOTIENT})*({self.DIVISOR}) + {extra}", ctx)
        assert self.recreated_terms(p, q)
        pushed = []

        def counting(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(poly, "heappush", counting)
        got = divide_exact(p, q)
        # the recreated term kept its first heap entry
        assert len(set(pushed)) == len(pushed)
        assert (None if got is None else dict(got.terms)) == laurent_quotient(p, q)
        assert (got is None) == (extra != "0")


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

    def test_preconditions_come_before_the_cached_verdict(self, abc_ctx):
        for p in (Polynomial.zero(abc_ctx), Polynomial.const(abc_ctx, 1), P("a^-1 + 1", abc_ctx)):
            p.__dict__["_irreducible"] = True
            with pytest.raises(PolyError):
                is_irreducible(p)

    def test_fresh_cache_forces_a_fresh_verdict(self, monkeypatch, abc_ctx):
        """A new ``_IRR_CACHE`` is asked by every new object, never by a decided one."""
        decided = P("a*b + c", abc_ctx)
        assert is_irreducible(decided)
        monkeypatch.setattr(poly, "_IRR_CACHE", {})
        assert is_irreducible(decided) and poly._IRR_CACHE == {}
        fresh = P("a*b + c", abc_ctx)
        assert is_irreducible(fresh)
        assert poly._IRR_CACHE == {(abc_ctx.names, fresh.terms): True}
        # the shared cache decides a new object with the same terms
        poly._IRR_CACHE[(abc_ctx.names, fresh.terms)] = False
        assert not is_irreducible(P("-a*b - c", abc_ctx))

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


class TestLowDegreeCertificate:
    """``_low_degree_certificate`` proves only what sympy's factorization confirms."""

    # (command, genus, cross_caps, boundary): the polynomial work of the
    # benchmark's ladder and laurent_chains workloads
    WORKLOAD_COMMANDS = [
        ("compare-graphs", 0, 0, [6]),
        ("compare-graphs", 0, 0, [7]),
        ("compare-graphs", 0, 0, [8]),
        ("compare-graphs", 0, 1, [3]),
        ("compare-graphs", 0, 1, [4]),
        ("verify-laurent", 0, 1, [2]),
        ("verify-laurent", 0, 0, [2, 2]),
    ]

    @staticmethod
    def check(p):
        """Certificate and ``is_irreducible`` against the oracle; returns the verdicts."""
        want = factor_irreducible(p)
        proved = poly._low_degree_certificate(p)
        assert not proved or want, p
        assert is_irreducible(p) == want, p
        return proved, want

    def test_every_workload_entry(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(poly, "_IRR_CACHE", {})
        for command, genus, cross_caps, boundary in self.WORKLOAD_COMMANDS:
            path = tmp_path / "surface.json"
            path.write_text(json.dumps({"schema": 1, "genus": genus, "cross_caps": cross_caps,
                                        "boundary": boundary, "boundary_variables": True}))
            result = runner.invoke(main, [command, "--surface", str(path)])
            assert result.exit_code == 0, result.output
            if command == "compare-graphs":
                # the seed BFS mutates each edge from one end only; the oracle
                # mutates every seed in every direction, so the corpus also
                # holds the polynomials of the mutations back
                surface = MarkedSurface(genus, cross_caps, tuple(boundary))
                seed_graph_json(seed_from_quasi_triangulation(initial_quasi_triangulation(surface)))
        entries = [Polynomial(VariableContext(names), terms) for names, terms in poly._IRR_CACHE]
        verdicts = [self.check(p) for p in entries if not p.is_constant]
        # every one is irreducible and proved natively, so sympy is never asked
        assert len(verdicts) > 700 and all(proved for proved, _ in verdicts)

    def test_seeded_random_corpus(self):
        """Products of two factors of w-degree 1, and random polynomials of w-degree 1 or 2."""
        ctx = VariableContext(("x", "y", "z"))
        rng = random.Random(8)

        def coefficient(w):
            d = {}
            for _ in range(rng.randint(1, 3)):
                e = [rng.randint(0, 2) for _ in range(3)]
                e[w] = 0
                d[tuple(e)] = rng.randint(-3, 3)
            return Polynomial.from_dict(ctx, d)

        def in_w(w, degree):
            var = Polynomial.variable(ctx, ctx.names[w])
            out = Polynomial.zero(ctx)
            for k in range(degree + 1):
                out = out + coefficient(w) * var.pow(k)
            return out

        verdicts = []
        for _ in range(200):
            w = rng.randrange(3)
            p = in_w(w, 1) * in_w(w, 1) if rng.random() < 0.4 else in_w(w, rng.randint(1, 2))
            if p.is_zero or p.is_constant:
                continue
            verdicts.append(self.check(p.canonical_sign()))
        assert {(True, True), (False, False)} <= set(verdicts)

    @pytest.mark.parametrize("text, proved, irreducible", [
        ("(y + 1)*(x^2 + 2)", False, False),  # not primitive in x
        ("(y + 1)*x + (y + 1)*z", False, False),  # not primitive in x
        ("(y - 2)*x^2 + 1", True, True),  # the first point zeroes the leading coefficient
        ("(y^3 - 8)*x^2 + 1", True, True),  # so does it here, and y has degree 3
        ("(y^3 - z^3)*x^2 + 1", True, True),  # zero wherever y and z take one value
        ("x^2 - y^2*z^2", False, False),  # the discriminant is a square: falls back
        ("x^2 + 2*x*y + y^2 + x*z^2", True, True),  # m*w^2 + (u+v)^2, the workloads' shape
        ("x^2 + 3", True, True),  # u^2 + c
        ("x^2 + 2*y^2", True, True),  # u^2 + k*v^2
    ])
    def test_cases(self, text, proved, irreducible):
        ctx = VariableContext(("x", "y", "z"))
        assert poly._evaluate(P("(y - 2)*(y^3 - 8)", ctx), poly._POINTS[0]) == 0
        assert self.check(P(text, ctx).canonical_sign()) == (proved, irreducible)


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


@settings(max_examples=150, deadline=None)
@given(_polys(allow_laurent=True), _polys(allow_laurent=True),
       _polys(max_terms=2, allow_laurent=True))
def test_divide_exact_matches_sympy_division(p, q, r):
    """Products p*q, and p*q + r that mostly do not divide, against the sympy oracle."""
    if q.is_zero:
        return
    for n in (p.mul(q), p.mul(q).add(r)):
        got = divide_exact(n, q)
        assert (None if got is None else dict(got.terms)) == laurent_quotient(n, q)


def _one_terms(max_coeff=6):
    exponent = st.integers(min_value=-2, max_value=3)
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff).filter(bool)
    return st.builds(lambda e, c: Polynomial.monomial(_ctx, e, c),
                     st.tuples(exponent, exponent, exponent), coeff)


def _check(got: Polynomial, want: dict) -> None:
    """``got`` has the oracle's terms, in strictly descending grlex order."""
    assert dict(got.terms) == want
    assert strictly_descending_grlex(got.terms)


@settings(max_examples=100, deadline=None)
@given(_polys(allow_laurent=True), _one_terms())
def test_mul_by_one_term_or_zero_matches_sympy(p, m):
    """The one-term fast path of ``mul`` on either side, and products with zero."""
    zero = Polynomial.zero(_ctx)
    _check(p.mul(m), laurent_product(p, m))
    _check(m.mul(p), laurent_product(m, p))
    _check(m.mul(m), laurent_product(m, m))
    _check(p.mul(zero), {})
    _check(zero.mul(m), {})


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=3, max_coeff=3, allow_laurent=True), st.integers(0, 3))
def test_pow_matches_sympy(p, k):
    _check(p.pow(k), laurent_power(p, k))


@settings(max_examples=80, deadline=None)
@given(_polys(allow_laurent=True), st.integers(0, 2), _polys(max_terms=3, allow_laurent=True))
def test_subs_poly_matches_sympy(p, i, value):
    """Substitution into a Laurent polynomial whose variable ``i`` has no negative exponent."""
    if not p.is_zero:
        shift = [0, 0, 0]
        shift[i] = max(0, -p.valuation_in(i))
        p = p.times_monomial(shift)
    _check(p.subs_poly(i, value), laurent_substitution(p, i, value))


@settings(max_examples=100, deadline=None)
@given(_polys(allow_laurent=True), _one_terms(), _one_terms())
def test_divide_exact_by_one_term_matches_sympy(p, m, r):
    """By a one-term divisor: a multiple, and a sum with coefficients it may not divide."""
    _check(divide_exact(p.mul(m), m), laurent_quotient(p.mul(m), m))
    n = p.mul(m).add(r)
    got = divide_exact(n, m)
    want = laurent_quotient(n, m)
    if any(c % m.terms[0][1] for _, c in n.terms):
        assert got is None and want is None
    else:
        _check(got, want)


# -- the packed kernels: the tuple path's results, and sympy's ------------------------


@contextmanager
def packed_pairs(threshold):
    """``poly.PACKED_PAIRS`` set to ``threshold``: 1 packs every operation, inf none."""
    saved = poly.PACKED_PAIRS
    poly.PACKED_PAIRS = threshold
    try:
        yield
    finally:
        poly.PACKED_PAIRS = saved


@contextmanager
def kernel_calls():
    """Counts the calls of ``_packed.product`` and ``_packed.quotient`` while it is open."""
    calls = {"product": 0, "quotient": 0}
    kernels = {name: getattr(_packed, name) for name in calls}

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return kernels[name](*args)
        return wrapper

    try:
        for name in calls:
            setattr(_packed, name, counted(name))
        yield calls
    finally:
        for name, kernel in kernels.items():
            setattr(_packed, name, kernel)


def both_paths(f, *args):
    """``f(*args)`` on exponent tuples and on packed keys, which must agree.

    Returns the packed result, after checking that a kernel computed it.
    """
    with packed_pairs(math.inf):
        by_tuples = f(*args)
    with packed_pairs(1), kernel_calls() as calls:
        packed = f(*args)
    assert sum(calls.values()) >= 1
    assert packed == by_tuples
    return packed


def _laurent(min_terms, max_terms, low=-2, high=3, max_coeff=4):
    """Polynomials over ``_ctx`` with distinct terms whose exponents lie in low..high."""
    exponent = st.integers(min_value=low, max_value=high)
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff).filter(bool)
    term = st.tuples(st.tuples(exponent, exponent, exponent), coeff)
    terms = st.lists(term, min_size=min_terms, max_size=max_terms, unique_by=lambda t: t[0])
    return terms.map(lambda ts: Polynomial.from_dict(_ctx, dict(ts)))


@settings(max_examples=80, deadline=None)
@given(_laurent(2, 8), _laurent(2, 8), _laurent(2, 4, low=-300, high=300))
def test_packed_products_match(p, q, wide):
    """Laurent products, wide exponent fields, and products whose cross terms cancel."""
    _check(both_paths(Polynomial.mul, p, q), laurent_product(p, q))
    _check(both_paths(Polynomial.mul, p, wide), laurent_product(p, wide))
    plus, minus = p.add(q), p.sub(q)
    if len(plus.terms) > 1 and len(minus.terms) > 1:
        # (p + q)(p - q) = p^2 - q^2: each p*q cross term is made twice and cancels
        product = both_paths(Polynomial.mul, plus, minus)
        _check(product, laurent_product(plus, minus))
        assert product == p.pow(2).sub(q.pow(2))


@settings(max_examples=60, deadline=None)
@given(_laurent(2, 5, max_coeff=3), st.integers(2, 4))
def test_packed_squares_and_powers_match(p, k):
    """``p.mul(p)`` adds each cross product once, doubled; ``pow`` squares that way."""
    _check(both_paths(Polynomial.mul, p, p), laurent_power(p, 2))
    _check(both_paths(Polynomial.pow, p, k), laurent_power(p, k))


def _check_quotient(got, n, q):
    """``got`` is the sympy division's verdict on ``n / q``."""
    want = laurent_quotient(n, q)
    if want is None:
        assert got is None
    else:
        _check(got, want)


@settings(max_examples=80, deadline=None)
@given(_laurent(1, 8), _laurent(2, 6), st.integers(2, 3))
def test_packed_divisions_match(p, q, k):
    """Divisions that succeed, and ones by ``k*q`` that fail on a coefficient.

    ``p*q / (k*q)`` fails unless k divides p.  ``k*q*p`` plus its leading
    monomial fails on the first quotient coefficient, by 1: a division that
    rounded it and went on would find every later term and return ``p``.
    """
    n = p.mul(q)
    _check_quotient(both_paths(divide_exact, n, q), n, q)
    kq = q.canonical_sign().mul_int(k)
    _check_quotient(both_paths(divide_exact, n, kq), n, kq)
    if any(c % k for _, c in p.terms):
        assert divide_exact(n, kq) is None
    near = kq.mul(p)
    near = near.add(Polynomial.monomial(_ctx, near.terms[0][0]))
    assert both_paths(divide_exact, near, kq) is None
    assert laurent_quotient(near, kq) is None


@settings(max_examples=80, deadline=None)
@given(_laurent(2, 5, low=0), _laurent(2, 6, low=0), st.integers(0, 2))
def test_packed_division_fails_on_a_negative_exponent(q1, r1, v):
    """``q1*r1`` by ``x_v*q1``: the Laurent quotient is ``r1/x_v``, no polynomial
    unless ``x_v`` divides ``r1``.

    The greedy division finds ``r1/x_v``'s terms in order, each coefficient
    divisible, until the first that has exponent -1 at ``v``.  The Laurent
    division, which strips monomials first, succeeds.
    """
    x_v = [0, 0, 0]
    x_v[v] = 1
    q, n = q1.times_monomial(x_v), q1.mul(r1)
    got = both_paths(poly._divide_ordinary, n, q)
    if all(e[v] for e, _ in r1.terms):
        assert got == r1.times_monomial([-k for k in x_v])
    else:
        assert got is None
    _check_quotient(both_paths(divide_exact, n, q), n, q)


@settings(max_examples=8, deadline=None)
@given(_laurent(46, 50), _laurent(46, 50), st.integers(20, 40))
def test_path_follows_the_pair_count(p, q, cut):
    """With the module's threshold, operations at least ``PACKED_PAIRS`` large are packed.

    ``q`` divides each product exactly, as the sympy division confirms.
    """
    binomial = Polynomial.from_dict(_ctx, {(1, 0, 0): 1, (0, -1, 2): -3})
    small = Polynomial(_ctx, p.terms[:cut])
    for a, b in ((p, q), (small, q), (p, binomial)):
        with kernel_calls() as calls:
            n = a.mul(b)
        assert calls == {"product": int(len(a.terms) * len(b.terms) >= poly.PACKED_PAIRS),
                         "quotient": 0}
        assert laurent_quotient(n, b) == dict(a.terms)
        with kernel_calls() as calls:
            back = divide_exact(n, b)
        assert back == a
        assert calls == {"product": 0,
                         "quotient": int(len(n.terms) * (len(b.terms) - 1) >= poly.PACKED_PAIRS)}
    assert len(p.terms) * len(q.terms) >= poly.PACKED_PAIRS > len(small.terms) * len(q.terms)


@pytest.mark.parametrize("boundary, command, kernels", [
    ([2, 2], ["verify-laurent", "--sequences", "200", "--max-length", "8", "--rng-seed", "0"],
     {"product": 1, "quotient": 2}),
    ([6], ["compare-graphs"], {"product": 0, "quotient": 0}),
], ids=["verify-laurent-annulus22", "compare-graphs-hexagon"])
def test_which_commands_take_the_packed_path(runner, tmp_path, boundary, command, kernels):
    """``verify-laurent`` on annulus(2,2) squares an 87-term value and divides a
    686-term numerator by a 38-term denominator; the hexagon's operations stay
    far below ``PACKED_PAIRS``."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"schema": 1, "genus": 0, "cross_caps": 0,
                                "boundary": boundary, "boundary_variables": True}))
    with kernel_calls() as calls:
        result = runner.invoke(main, [command[0], "--surface", str(path), *command[1:]])
    assert result.exit_code == 0, result.output
    assert calls == kernels


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=2, max_coeff=3), _polys(max_terms=2, max_coeff=3))
def test_sympy_factors_reconstruct(p, q):
    """content * prod f^k is the polynomial, and each f is an irreducible non-constant."""
    p = p.mul(q)
    if p.is_zero or p.is_constant or not p.is_ordinary:
        return
    content, factors = poly._sympy_factors(p)
    product = Polynomial.const(_ctx, content)
    for f, k in factors:
        assert k >= 1 and not f.is_constant and factor_irreducible(f)
        product = product.mul(f.pow(k))
    assert product == p


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


class TestParseLimits:
    @pytest.mark.parametrize("text", [
        "b^100", "b^-100", "2^100", "(b+1)^100", "(a^50*b^49)*c", "(a+b+c+1)^12",
        " + ".join(f"a^{i % 50}*b^{i // 50}" for i in range(500)),
    ], ids=["power", "negative-power", "constant", "binomial", "product", "455-terms",
            "500-terms"])
    def test_inputs_at_the_limits_parse(self, abc_ctx, text):
        assert P(text, abc_ctx).terms

    @pytest.mark.parametrize("text, message", [
        ("b^101", "degree"), ("b^-101", "degree"), ("2^101", "degree"),
        ("(a^50*b^50)*c", "degree"), ("(a+b+c+1)^13", "terms"),
        ("(a+b+c+1)^8*(a+b+c+1)^8", "terms"),
        (" + ".join(f"a^{i % 50}*b^{i // 50}" for i in range(501)), "terms"),
        ("9" * 5000, "integer too long"), ("(" * 5000 + "b" + ")" * 5000, "nested too deeply"),
    ], ids=["power", "negative-power", "constant", "product", "560-terms", "product-terms",
            "501-terms", "long-integer", "deep-nesting"])
    def test_inputs_past_the_limits_are_refused(self, abc_ctx, text, message):
        with pytest.raises(PolyError, match=message):
            P(text, abc_ctx)

    @staticmethod
    def signed_terms(n):
        """n distinct monomials with growing coefficients and alternating signs."""
        return [f"{'-+'[i % 2]} {i + 1}*a^{i % 50}*b^{i // 50}" for i in range(n)]

    def test_long_sum_equals_folded_add(self, abc_ctx):
        terms = self.signed_terms(500)
        folded = Polynomial.zero(abc_ctx)
        for term in terms:
            folded = folded.add(P(term, abc_ctx))
        assert P(" ".join(terms), abc_ctx) == folded and len(folded.terms) == 500

    def test_term_limit_counts_distinct_nonzero_terms_so_far(self, abc_ctx):
        text = " ".join(self.signed_terms(501))
        with pytest.raises(PolyError) as exc:
            P(text, abc_ctx)
        assert str(exc.value) == (
            f"parse error at {len(text)} in {text!r}: more than the limit of 500 terms"
        )
        # "+ 1" cancels the first term, "- 1", which makes room for one more
        cancelled = " ".join(self.signed_terms(500)) + " + 1 + c"
        assert len(P(cancelled, abc_ctx).terms) == 500

    def test_cancelled_terms_are_dropped(self):
        ctx = VariableContext(("x",))
        assert P("x - x + 1", ctx) == Polynomial.const(ctx, 1)
        assert P("-x + x", ctx).is_zero


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


class TestCachedPredicates:
    """Predicates cached on an object stay out of equality, hashing and JSON."""

    def test_equal_and_hash_after_caching(self, abc_ctx):
        p, fresh = P("a*b + c", abc_ctx), P("a*b + c", abc_ctx)
        assert p.is_ordinary and is_irreducible(p)
        assert p.involved_indices() == (0, 1, 2) and p.involves(2)
        assert {"is_ordinary", "_irreducible", "_support"} <= set(vars(p))
        assert p == fresh and hash(p) == hash(fresh)
        assert {p: 1}[fresh] == 1

    def test_support_is_the_set_of_variables_with_a_nonzero_exponent(self, abc_ctx):
        for text, used in (("0", ()), ("7", ()), ("a*c - c", (0, 2)), ("b^-1 + 1", (1,)),
                           ("a*b^2 - a*b^2 + c", (2,)), ("a^2*b^-3*c", (0, 1, 2))):
            p = P(text, abc_ctx)
            assert p.involved_indices() == used
            assert [p.involves(i) for i in range(3)] == [i in used for i in range(3)]
            assert used == tuple(i for i in range(3) if any(e[i] for e, _ in p.terms))

    def test_seed_and_triangulation_json_unchanged(self):
        def build():
            t = initial_quasi_triangulation(MarkedSurface(0, 1, (3,)))
            return t, seed_from_quasi_triangulation(t)

        t, seed = build()
        seed.require_valid()
        assert all(p.is_ordinary and is_irreducible(p) for p in seed.polys)
        assert all(p.involved_indices() for p in seed.polys)
        assert t.quasi_arcs and t.slots
        fresh_t, fresh_seed = build()
        assert seed == fresh_seed and t == fresh_t
        assert json.dumps(seed_to_json(seed)) == json.dumps(seed_to_json(fresh_seed))
        assert json.dumps(triangulation_to_json(t)) == json.dumps(triangulation_to_json(fresh_t))
