"""Exact multivariate Laurent polynomial arithmetic over the integers.

Polynomials are sparse maps from integer exponent vectors (negative entries
allowed) to nonzero integer coefficients, over a fixed :class:`VariableContext`
that splits variables into mutable "cluster" names and coefficient-ring
"frozen" names.  Everything is immutable; term lists are kept in descending
graded-lexicographic order so equality, hashing and printing are canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import sympy

__all__ = [
    "VariableContext",
    "Polynomial",
    "PolyError",
    "ContextMismatch",
    "divide_exact",
    "poly_gcd",
    "is_irreducible",
    "strip_laurent_monomial",
    "parse_polynomial",
]


class PolyError(ValueError):
    """Domain error raised by polynomial operations."""


class ContextMismatch(PolyError):
    """Operands live over different variable contexts."""


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789'")


def _check_name(name: str) -> None:
    if not name or name[0] not in _NAME_START or any(ch not in _NAME_CONT for ch in name):
        raise PolyError(f"bad variable name {name!r}")


@dataclass(frozen=True)
class VariableContext:
    """Ordered cluster and frozen variable names with a fixed monomial order.

    The monomial order is graded lexicographic over the concatenation
    ``cluster + frozen``; it never changes for the lifetime of the context,
    which is what makes canonical unit normalization well defined.
    """

    cluster: tuple[str, ...]
    frozen: tuple[str, ...] = ()

    def __post_init__(self):
        cluster = tuple(self.cluster)
        frozen = tuple(self.frozen)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "frozen", frozen)
        for name in cluster + frozen:
            _check_name(name)
        names = cluster + frozen
        if len(set(names)) != len(names):
            raise PolyError("cluster and frozen names must be disjoint and duplicate-free")

    @property
    def names(self) -> tuple[str, ...]:
        return self.cluster + self.frozen

    @property
    def nvars(self) -> int:
        return len(self.cluster) + len(self.frozen)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None

    def is_cluster_index(self, i: int) -> bool:
        return i < len(self.cluster)

    def cluster_indices(self) -> range:
        return range(len(self.cluster))

    def extended(self, extra: str) -> "VariableContext":
        """Context with one auxiliary frozen-position variable appended."""
        return VariableContext(self.cluster, self.frozen + (extra,))


Exponents = tuple[int, ...]
Terms = tuple[tuple[Exponents, int], ...]


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


def _sorted_terms(d: Mapping[Exponents, int]) -> Terms:
    items = [(e, c) for e, c in d.items() if c != 0]
    items.sort(key=lambda item: _grlex_key(item[0]), reverse=True)
    return tuple(items)


@dataclass(frozen=True)
class Polynomial:
    """Sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent vectors (over ``ctx.names``) to nonzero integer
    coefficients and is stored sorted by descending graded lex order.
    """

    ctx: VariableContext
    terms: Terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_dict(ctx: VariableContext, d: Mapping[Exponents, int]) -> "Polynomial":
        n = ctx.nvars
        for e in d:
            if len(e) != n:
                raise PolyError(f"exponent vector {e} has wrong arity for context")
        return Polynomial(ctx, _sorted_terms(d))

    @staticmethod
    def zero(ctx: VariableContext) -> "Polynomial":
        return Polynomial(ctx, ())

    @staticmethod
    def const(ctx: VariableContext, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(ctx)
        return Polynomial(ctx, (((0,) * ctx.nvars, int(c)),))

    @staticmethod
    def variable(ctx: VariableContext, name: str) -> "Polynomial":
        i = ctx.index(name)
        e = [0] * ctx.nvars
        e[i] = 1
        return Polynomial(ctx, ((tuple(e), 1),))

    @staticmethod
    def monomial(ctx: VariableContext, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        if coeff == 0:
            return Polynomial.zero(ctx)
        if len(exps) != ctx.nvars:
            raise PolyError("monomial exponent arity mismatch")
        return Polynomial(ctx, ((tuple(int(e) for e in exps), int(coeff)),))

    # -- basic structure ----------------------------------------------

    def _dict(self) -> dict[Exponents, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_ordinary(self) -> bool:
        """True when no exponent is negative (a true polynomial)."""
        return all(e >= 0 for exps, _ in self.terms for e in exps)

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps, _ in self.terms)

    @property
    def is_unit(self) -> bool:
        """Unit of Z[vars]: the constants +1 and -1."""
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1) and all(
            e == 0 for e in self.terms[0][0]
        )

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> int:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise PolyError("not a constant polynomial")
        return self.terms[0][1]

    def leading_coefficient(self) -> int:
        if self.is_zero:
            raise PolyError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if self.is_zero:
            raise PolyError("zero polynomial has no degree")
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, i: int) -> int:
        if self.is_zero:
            return -1
        return max(e[i] for e, _ in self.terms)

    def valuation_in(self, i: int) -> int:
        if self.is_zero:
            raise PolyError("zero polynomial has no valuation")
        return min(e[i] for e, _ in self.terms)

    def den_exponents(self) -> Exponents:
        """Exponent vector of ``den``: max(0, -valuation) in every variable."""
        exps = [0] * self.ctx.nvars
        for e, _ in self.terms:
            for i, k in enumerate(e):
                if k < -exps[i]:
                    exps[i] = -k
        return tuple(exps)

    @property
    def den(self) -> "Polynomial":
        """Monic monomial clearing the negative exponents: prod x^max(0, -valuation)."""
        return Polynomial(self.ctx, ((self.den_exponents(), 1),))

    @property
    def num(self) -> "Polynomial":
        """``self * den``, an ordinary polynomial that keeps its positive monomial content."""
        exps = self.den_exponents()
        return self.times_monomial(exps) if any(exps) else self

    def involves(self, i: int) -> bool:
        return any(e[i] != 0 for e, _ in self.terms)

    def involved_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ctx.nvars) if self.involves(i))

    def content(self) -> int:
        """Nonnegative gcd of the integer coefficients (0 for the zero poly)."""
        g = 0
        for _, c in self.terms:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def height(self) -> int:
        return max((abs(c) for _, c in self.terms), default=0)

    def canonical_sign(self) -> "Polynomial":
        """Representative with positive leading coefficient under graded lex."""
        if self.is_zero or self.terms[0][1] > 0:
            return self
        return self.neg()

    # -- arithmetic ----------------------------------------------------

    def _same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials over different contexts")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._same_ctx(other)
        d = self._dict()
        for e, c in other.terms:
            v = d.get(e, 0) + c
            if v:
                d[e] = v
            else:
                d.pop(e, None)
        return Polynomial(self.ctx, _sorted_terms(d))

    def neg(self) -> "Polynomial":
        return Polynomial(self.ctx, tuple((e, -c) for e, c in self.terms))

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._same_ctx(other)
        d: dict[Exponents, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                v = d.get(e, 0) + c1 * c2
                if v:
                    d[e] = v
                else:
                    del d[e]
        return Polynomial(self.ctx, _sorted_terms(d))

    def mul_int(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.ctx)
        return Polynomial(self.ctx, tuple((e, k * c) for e, k in self.terms))

    def times_monomial(self, exps: Sequence[int]) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.ctx.nvars:
            raise PolyError("monomial exponent arity mismatch")
        return Polynomial(
            self.ctx,
            tuple((tuple(a + b for a, b in zip(e, exps)), c) for e, c in self.terms),
        )

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolyError("negative power of a polynomial")
        result = Polynomial.const(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg
    __pow__ = pow

    # -- substitution ---------------------------------------------------

    def subs_poly(self, i: int, value: "Polynomial") -> "Polynomial":
        """Substitute variable ``i`` by a (Laurent) polynomial.

        Exponents of variable ``i`` in ``self`` must be nonnegative.
        """
        self._same_ctx(value)
        out = Polynomial.zero(self.ctx)
        by_power: dict[int, dict[Exponents, int]] = {}
        for e, c in self.terms:
            k = e[i]
            if k < 0:
                raise PolyError("substitution into a negative exponent")
            rest = list(e)
            rest[i] = 0
            by_power.setdefault(k, {})[tuple(rest)] = c
        for k, d in sorted(by_power.items()):
            part = Polynomial(self.ctx, _sorted_terms(d))
            out = out.add(part.mul(value.pow(k)))
        return out

    def subs_zero(self, i: int) -> "Polynomial":
        """Set variable ``i`` to zero; requires its exponents to be >= 0."""
        d: dict[Exponents, int] = {}
        for e, c in self.terms:
            if e[i] < 0:
                raise PolyError("substituting 0 into a negative exponent")
            if e[i] == 0:
                d[e] = d.get(e, 0) + c
        return Polynomial(self.ctx, _sorted_terms(d))

    def map_context(self, new_ctx: VariableContext) -> "Polynomial":
        """Re-express over a context containing all involved variables by name."""
        pos = {name: j for j, name in enumerate(new_ctx.names)}
        d: dict[Exponents, int] = {}
        for e, c in self.terms:
            out = [0] * new_ctx.nvars
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = self.ctx.names[i]
                if name not in pos:
                    raise PolyError(f"variable {name!r} missing from target context")
                out[pos[name]] += k
            key = tuple(out)
            d[key] = d.get(key, 0) + c
        return Polynomial(new_ctx, _sorted_terms(d))

    def permute_cluster(self, perm: Sequence[int]) -> "Polynomial":
        """Relabel cluster coordinates: new exponent at slot ``perm[i]`` is old slot ``i``."""
        nc = len(self.ctx.cluster)
        d: dict[Exponents, int] = {}
        for e, c in self.terms:
            out = list(e)
            for i in range(nc):
                out[perm[i]] = e[i]
            d[tuple(out)] = c
        return Polynomial(self.ctx, _sorted_terms(d))

    # -- printing --------------------------------------------------------

    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_zero:
            return "0"
        names = tuple(names) if names is not None else self.ctx.names
        parts: list[str] = []
        for e, c in self.terms:
            factors = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                factors.append(names[i] if k == 1 else f"{names[i]}^{k}")
            if not factors:
                body = str(abs(c))
            else:
                coeff = "" if abs(c) == 1 else f"{abs(c)}*"
                body = coeff + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def _strip_raw(p: Polynomial, indices: Iterable[int]) -> tuple[Polynomial, Exponents]:
    """Shift the chosen variables to valuation zero; returns (shifted, shift).

    ``shifted == p * x^shift`` exactly (no sign normalization).
    """
    if p.is_zero:
        raise PolyError("cannot strip the zero polynomial")
    shift = [0] * p.ctx.nvars
    for i in indices:
        shift[i] = -p.valuation_in(i)
    return p.times_monomial(shift), tuple(shift)


def strip_laurent_monomial(
    p: Polynomial, indices: Optional[Iterable[int]] = None
) -> tuple[Polynomial, Exponents]:
    """Unique (up to sign) variable-free factorization ``q = unit * p * x^M``.

    Returns ``(q, M)`` where ``q`` is ordinary in the chosen variables, not
    divisible by any of them, and has positive leading coefficient; ``M`` is
    the exponent vector of the monic Laurent monomial with ``q = ±p * x^M``.
    Defaults to stripping over every variable of the context.
    """
    if indices is None:
        indices = range(p.ctx.nvars)
    q, shift = _strip_raw(p, indices)
    return q.canonical_sign(), shift


def divide_exact(p: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """Exact division in the Laurent polynomial ring; None when not divisible.

    ``q * result == p`` holds exactly when a result is returned.  Monomials
    are units of the Laurent ring, so divisibility is decided on the
    monomial-stripped ordinary parts.
    """
    if q.is_zero:
        raise PolyError("division by the zero polynomial")
    if p.ctx != q.ctx:
        raise ContextMismatch("divide_exact over different contexts")
    if p.is_zero:
        return p
    everything = range(p.ctx.nvars)
    ps, pshift = _strip_raw(p, everything)
    qs, qshift = _strip_raw(q, everything)
    r = _divide_ordinary(ps, qs)
    if r is None:
        return None
    back = tuple(b - a for a, b in zip(pshift, qshift))
    return r.times_monomial(back)


def _divide_ordinary(p: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """Greedy leading-term division of ordinary polynomials over Z."""
    ctx = p.ctx
    rem = p._dict()
    out: dict[Exponents, int] = {}
    qe, qc = q.terms[0]
    qrest = q.terms[1:]
    while rem:
        le = max(rem, key=_grlex_key)
        lc = rem[le]
        diff = tuple(a - b for a, b in zip(le, qe))
        if any(d < 0 for d in diff) or lc % qc != 0:
            return None
        c = lc // qc
        out[diff] = c
        del rem[le]
        for e2, c2 in qrest:
            e = tuple(a + b for a, b in zip(diff, e2))
            v = rem.get(e, 0) - c * c2
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return Polynomial(ctx, _sorted_terms(out))


# -- gcd: primitive-part recursion one variable at a time --------------------


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Greatest common divisor in Z[vars], canonical-positive.

    Laurent inputs are replaced by their numerators ``num`` (the gcd of
    Laurent polynomials is only defined up to monomial units anyway).  Monomial and
    integer content are genuine common factors here: gcd(x^2*y, x*y^2) is x*y.
    gcd(p, p) is p up to sign; gcd with zero returns the other argument.
    """
    if p.ctx != q.ctx:
        raise ContextMismatch("gcd over different contexts")
    if p.is_zero and q.is_zero:
        raise PolyError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.num.canonical_sign()
    if q.is_zero:
        return p.num.canonical_sign()
    return _gcd_rec(p.num, q.num).canonical_sign()


def _int_content_part(p: Polynomial) -> tuple[int, Polynomial]:
    c = p.content()
    if c in (0, 1):
        return c, p
    return c, Polynomial(p.ctx, tuple((e, k // c) for e, k in p.terms))


def _as_univariate(p: Polynomial, v: int) -> dict[int, Polynomial]:
    """Coefficients of powers of variable ``v`` (polynomials with v-slot zeroed)."""
    coeffs: dict[int, dict[Exponents, int]] = {}
    for e, c in p.terms:
        k = e[v]
        rest = list(e)
        rest[v] = 0
        coeffs.setdefault(k, {})[tuple(rest)] = c
    return {k: Polynomial(p.ctx, _sorted_terms(d)) for k, d in coeffs.items()}


def _content_pp(p: Polynomial, v: int) -> tuple[Polynomial, Polynomial]:
    """(content, primitive part) of p viewed in (Z[others])[x_v]."""
    coeffs = _as_univariate(p, v)
    vals = list(coeffs.values())
    g = vals[0]
    for other in vals[1:]:
        g = _gcd_rec(g, other)
        if g.is_unit:
            break
    g = g.canonical_sign()
    if g.is_unit:
        return Polynomial.const(p.ctx, 1), p
    pp = divide_exact(p, g)
    assert pp is not None
    return g, pp


def _pseudo_rem(p: Polynomial, q: Polynomial, v: int) -> Polynomial:
    dq = q.degree_in(v)
    lq = _as_univariate(q, v)[dq]
    r = p
    while not r.is_zero and r.degree_in(v) >= dq:
        dr = r.degree_in(v)
        lr = _as_univariate(r, v)[dr]
        shift = [0] * p.ctx.nvars
        shift[v] = dr - dq
        r = r.mul(lq).sub(q.mul(lr).times_monomial(shift))
    return r


def _gcd_rec(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    if p.terms == q.terms or p.terms == q.neg().terms:
        return p
    cp, pp = _int_content_part(p)
    cq, qq = _int_content_part(q)
    cg = math.gcd(cp, cq)
    if pp.is_constant or qq.is_constant:
        return Polynomial.const(p.ctx, cg)
    used = sorted(set(pp.involved_indices()) | set(qq.involved_indices()))
    v = used[-1]
    if not pp.involves(v) or not qq.involves(v):
        # one argument is free of the main variable: gcd divides the other's
        # content with respect to v
        with_v, without = (pp, qq) if pp.involves(v) else (qq, pp)
        cont, _ = _content_pp(with_v, v)
        return _gcd_rec(cont, without).mul_int(cg)
    ca, a = _content_pp(pp, v)
    cb, b = _content_pp(qq, v)
    cont = _gcd_rec(ca, cb)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b, v)
        if r.is_zero:
            a, b = b, r
            break
        _, r = _int_content_part(r)
        _, r = _content_pp(r, v)
        a, b = b, r
    _, a = _int_content_part(a)
    return cont.mul(a).mul_int(cg)


# -- irreducibility -----------------------------------------------------------

_IRR_CACHE: dict[tuple[tuple[str, ...], Terms], bool] = {}


def is_irreducible(p: Polynomial) -> bool:
    """Irreducibility in Z[cluster + frozen] up to the units +-1.

    Tier one is a set of exact fast certificates covering every shape the
    surface pipeline produces (binomials whose exponent gcd is 1, prime
    constants, the quadratic forms u^2 + c and u^2 + k v^2, and variable or
    integer content checks).  Everything else falls through to an exact
    factorization of the ordinary polynomial.
    """
    if p.is_zero or p.is_unit:
        raise PolyError("irreducibility of zero or a unit is undefined")
    if not p.is_ordinary:
        raise PolyError("irreducibility is defined for ordinary polynomials")
    key = (p.ctx.names, p.canonical_sign().terms)
    cached = _IRR_CACHE.get(key)
    if cached is not None:
        return cached
    result = _is_irreducible_impl(p.canonical_sign())
    _IRR_CACHE[key] = result
    return result


def _is_irreducible_impl(p: Polynomial) -> bool:
    if p.is_constant:
        return sympy.isprime(abs(p.constant_value()))
    if p.content() != 1:
        return False
    # variable content: some variable divides every term
    for i in p.involved_indices():
        if p.valuation_in(i) >= 1:
            # x itself is irreducible; anything bigger with a variable factor is not
            return len(p.terms) == 1 and p.total_degree() == 1 and abs(p.leading_coefficient()) == 1
    if len(p.terms) == 1:
        # monomial with no single-variable factor is impossible here
        return False
    if len(p.terms) == 2:
        verdict = _binomial_certificate(p)
        if verdict is not None:
            return verdict
    if _sum_of_squares_certificate(p):
        return True
    return _sympy_irreducible(p)


def _binomial_certificate(p: Polynomial) -> Optional[bool]:
    """Certificate for m1 + m2 with unit coefficients on disjoint supports."""
    (e1, c1), (e2, c2) = p.terms
    if abs(c1) != 1 or abs(c2) != 1:
        return None
    if any(a != 0 and b != 0 for a, b in zip(e1, e2)):
        return None  # shared variable; handled by the variable-content check or fallback
    g = 0
    for k in e1 + e2:
        g = math.gcd(g, k)
    if g == 1:
        return True
    return None  # gcd > 1 may still be irreducible (e.g. x^2 + y^2)


def _sum_of_squares_certificate(p: Polynomial) -> bool:
    """u^2 + c (c > 0) and u^2 + k*v^2 (k > 0) for single variables u, v."""
    if len(p.terms) != 2:
        return False
    (e1, c1), (e2, c2) = p.terms
    if c1 <= 0 or c2 <= 0:
        return False

    def is_pure_square(e: Exponents) -> Optional[int]:
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) == 1 and e[nz[0]] == 2:
            return nz[0]
        return None

    u = is_pure_square(e1)
    if u is None or c1 != 1:
        return False
    if all(k == 0 for k in e2):
        return True
    v = is_pure_square(e2)
    return v is not None and v != u


_SYMPY_GENS: dict[tuple[str, ...], tuple] = {}


def _sympy_irreducible(p: Polynomial) -> bool:
    names = p.ctx.names
    gens = _SYMPY_GENS.get(names)
    if gens is None:
        gens = sympy.symbols(" ".join(names), seq=True)
        _SYMPY_GENS[names] = gens
    used = p.involved_indices()
    sp = sympy.Poly.from_dict(
        {tuple(e[i] for i in used): c for e, c in p.terms},
        *[gens[i] for i in used],
        domain=sympy.ZZ,
    )
    content, factors = sp.factor_list()
    if abs(content) != 1:
        return False
    return len(factors) == 1 and factors[0][1] == 1


# -- the former value type --------------------------------------------------


class RationalFunction:
    """Name kept from the removed gcd-reduced rational-function value type.

    Cluster values are Laurent :class:`Polynomial` objects, printed through
    ``Polynomial.num`` and ``Polynomial.den``.  Nothing in lpsurf uses this
    class; it stays because the benchmark tracer (``bench/tracer.py``) looks
    up ``RationalFunction.make`` by name.  Delete it with that lookup.
    """

    @staticmethod
    def make(num: Polynomial, den: Polynomial) -> Polynomial:
        raise NotImplementedError("cluster values are Laurent Polynomials")


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        self.text = text
        self.pos = 0
        self.ctx = ctx

    def error(self, msg: str):
        raise PolyError(f"parse error at {self.pos} in {self.text!r}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Polynomial:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Polynomial:
        if self.eat("-"):
            p = self.term().neg()
        else:
            self.eat("+")
            p = self.term()
        while True:
            if self.eat("+"):
                p = p.add(self.term())
            elif self.eat("-"):
                p = p.sub(self.term())
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.eat("*"):
            p = p.mul(self.factor())
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.eat("^"):
            k = self.integer()
            if k >= 0:
                return base.pow(k)
            if not base.is_monomial:
                self.error("negative power of a non-monomial")
            e, c = base.terms[0]
            if abs(c) != 1:
                self.error("negative power of a non-unit coefficient")
            return Polynomial.monomial(self.ctx, tuple(k * x for x in e), c)
        return base

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def atom(self) -> Polynomial:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            p = self.expr()
            if not self.eat(")"):
                self.error("expected ')'")
            return p
        if ch.isdecimal():
            return Polynomial.const(self.ctx, self.integer())
        if ch in _NAME_START:
            start = self.pos
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos] in _NAME_CONT:
                self.pos += 1
            return Polynomial.variable(self.ctx, self.text[start:self.pos])
        self.error("expected a factor")
        raise AssertionError


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse the deterministic sorted-monomial text form (parentheses allowed)."""
    return _Parser(text, ctx).parse()
