"""Exact multivariate Laurent polynomial arithmetic over the integers.

Polynomials are sparse maps from integer exponent vectors (negative entries
allowed) to nonzero integer coefficients, over a fixed :class:`VariableContext`
that splits variables into mutable "cluster" names and coefficient-ring
"frozen" names.  Everything is immutable; term lists are kept in descending
graded-lexicographic order so equality, hashing and printing are canonical.
"""

from __future__ import annotations

import math
import operator
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "VariableContext",
    "Polynomial",
    "PolyError",
    "ContextMismatch",
    "divide_exact",
    "is_irreducible",
    "strip_laurent_monomial",
    "parse_polynomial",
]


class PolyError(ValueError):
    """Domain error raised by polynomial operations."""


class ContextMismatch(PolyError):
    """Operands live over different variable contexts."""


class Record:
    """Base of the value classes: equality, hashing and repr from ``_fields``.

    A subclass names its fields once, in order, in ``_fields``, and its
    ``__init__`` writes them straight into the instance ``__dict__``.  Two
    instances of one class are equal when their field tuples are, and any
    other class gets ``NotImplemented``; the hash is the field tuple's hash,
    and ``repr`` is ``Name(field=value, ...)`` over ``_repr_fields`` (by
    default every field).  An instance is frozen: assigning or deleting an
    attribute raises ``AttributeError``.  A class declared with
    ``frozen=False`` takes assignment and has no hash.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_tuple = operator.attrgetter(*cls._fields)
        if "_repr_fields" not in cls.__dict__:
            cls._repr_fields = cls._fields
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._field_tuple(self) == other._field_tuple(other)

    def __hash__(self):
        return hash(self._field_tuple(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class cached_attribute:
    """A value computed on first access and stored in the instance ``__dict__``.

    Like ``functools.cached_property``, it writes past a frozen
    :class:`Record`'s ``__setattr__`` and, not being a field, stays out of
    equality, hashing and JSON.  Unlike it on Python 3.11, it takes no lock:
    two threads racing on a first access may both compute the value, which
    is harmless for these pure functions.
    ``Polynomial`` caches its predicates, its variable support and its hash
    with it, ``LPSeed`` its violations and slot ranking and
    ``QuasiTriangulation`` its derived structure.  A value dropped by
    :func:`release_cached`, or stored by a caller that already holds it (a
    flipped state takes its parent's boundary data, a memo hit of
    :func:`lpsurf.lp_core.mutate` its stored verdict), is read the same way;
    a dropped one is rebuilt on its next use.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        owner._cached_names = (*getattr(owner, "_cached_names", ()), name)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def release_cached(obj) -> None:
    """Drop every :class:`cached_attribute` value ``obj`` holds.

    The BFS calls it on each node it has expanded, so a stored state keeps
    no derived structure it will not read again; a later read rebuilds it.
    """
    for name in getattr(type(obj), "_cached_names", ()):
        obj.__dict__.pop(name, None)


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789'")


def _check_name(name: str) -> None:
    if not name or name[0] not in _NAME_START or not _NAME_CONT.issuperset(name):
        raise PolyError(f"bad variable name {name!r}")


class VariableContext(Record):
    """Ordered cluster and frozen variable names with a fixed monomial order.

    The monomial order is graded lexicographic over the concatenation
    ``cluster + frozen``; it never changes for the lifetime of the context,
    which is what makes canonical unit normalization well defined.
    """

    _fields = ("cluster", "frozen")

    def __init__(self, cluster: Sequence[str], frozen: Sequence[str] = ()):
        cluster = tuple(cluster)
        frozen = tuple(frozen)
        d = self.__dict__
        d["cluster"] = cluster
        d["frozen"] = frozen
        for name in cluster + frozen:
            _check_name(name)
        names = cluster + frozen
        if len(set(names)) != len(names):
            raise PolyError("cluster and frozen names must be disjoint and duplicate-free")
        # derived once; not fields, so equality, hashing and repr ignore them
        d["names"] = names
        d["nvars"] = len(names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None


Exponents = tuple[int, ...]
Terms = tuple[tuple[Exponents, int], ...]

# Products and exact divisions of at least this many term pairs run on packed
# exponent vectors (see ``Polynomial.mul`` and ``_divide_ordinary``).  Packing
# pays for itself from about 64 pairs in a product and 330 in a division, but
# the first packed operation of a process also compiles ``lpsurf._packed``,
# and below this size an operation saves less than that costs.
PACKED_PAIRS = 2048


def _sorted_terms(d: Mapping[Exponents, int]) -> Terms:
    items = [(e, c) for e, c in d.items() if c != 0]
    items.sort(key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return tuple(items)


class Polynomial(Record):
    """Sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent vectors (over ``ctx.names``) to nonzero integer
    coefficients and is stored sorted by descending graded lex order.
    """

    _fields = ("ctx", "terms")

    def __init__(self, ctx: VariableContext, terms: Terms):
        d = self.__dict__
        d["ctx"] = ctx
        d["terms"] = terms

    def __hash__(self):
        return self._hash

    @cached_attribute
    def _hash(self) -> int:
        """``hash((ctx, terms))``, the hash :class:`Record` gives; computed once.

        Memo keys and seed keys hold polynomials, and a tuple of terms is
        hashed anew each time it is hashed.
        """
        return Record.__hash__(self)

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_attribute
    def is_ordinary(self) -> bool:
        """True when no exponent is negative (a true polynomial); computed once."""
        return all(min(exps, default=0) >= 0 for exps, _ in self.terms)

    @cached_attribute
    def exchange_defects(self) -> tuple[Optional[str], tuple[str, ...]]:
        """Why this polynomial is no exchange polynomial in any slot; computed once.

        ``(fatal, others)``.  ``fatal`` is "is zero", "has negative
        exponents" or "is a unit", which end the checks, or None; ``others``
        holds "is a cluster variable" and "is reducible" where they apply.
        :func:`lpsurf.lp_core.validate_seed` adds the one check that depends
        on the slot: whether the polynomial involves the slot's own variable.
        """
        if self.is_zero:
            return "is zero", ()
        if not self.is_ordinary:
            return "has negative exponents", ()
        if self.is_unit:
            return "is a unit", ()
        others = []
        (e, c), *rest = self.terms
        if not rest and abs(c) == 1 and sum(e) == 1 and e.index(1) < len(self.ctx.cluster):
            others.append("is a cluster variable")
        if not is_irreducible(self):  # through the public check, which tracing counts
            others.append("is reducible")
        return None, tuple(others)

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps, _ in self.terms)

    @property
    def is_unit(self) -> bool:
        """Unit of Z[vars]: the constants +1 and -1."""
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1) and not any(self.terms[0][0])

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

    @cached_attribute
    def den(self) -> "Polynomial":
        """The monic monomial prod x^max(0, -valuation) that clears the negative exponents.

        Computed once, for ``num`` and ``den`` alike.
        """
        exps = [0] * self.ctx.nvars
        for e, _ in self.terms:
            for i, k in enumerate(e):
                if k < -exps[i]:
                    exps[i] = -k
        return Polynomial(self.ctx, ((tuple(exps), 1),))

    @property
    def num(self) -> "Polynomial":
        """``self * den``, an ordinary polynomial that keeps its positive monomial content."""
        return self.times_monomial(self.den.terms[0][0])

    @cached_attribute
    def _support(self) -> int:
        """Bitmask of the variables with a nonzero exponent in some term; computed once."""
        columns = zip(*(e for e, _ in self.terms))
        return sum(1 << i for i, column in enumerate(columns) if any(column))

    def involves(self, i: int) -> bool:
        return self._support >> i & 1 == 1

    def involved_indices(self) -> tuple[int, ...]:
        support = self._support
        return tuple(i for i in range(self.ctx.nvars) if support >> i & 1)

    def content(self) -> int:
        """Nonnegative gcd of the integer coefficients (0 for the zero poly)."""
        g = 0
        for _, c in self.terms:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

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
        d = dict(self.terms)
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
        """The product; a one-term factor shifts the other's terms, which keeps their order.

        Grlex is a monomial order, so ``e1 > e2`` implies ``e1 + m > e2 + m``.
        Operands with at least ``PACKED_PAIRS`` term pairs multiply on packed
        exponent vectors (``lpsurf._packed.product``): one int per monomial,
        a total-degree field on top and then one field per variable, each
        biased to start at 0 and wide enough for the product's exponent
        range, so that adding two ints adds their exponents without a carry
        and comparing them compares in grlex order.  A polynomial times
        itself adds each cross product once, as ``2*ci*cj``.  Smaller
        operands multiply exponent tuples, which costs less than packing.
        """
        self._same_ctx(other)
        add = operator.add
        many, one = (other, self) if len(self.terms) == 1 else (self, other)
        if len(one.terms) == 1:
            (m, k), = one.terms
            if k == 1 and not any(m):
                return many
            terms = tuple((tuple(map(add, e, m)), c * k) for e, c in many.terms)
            return Polynomial(self.ctx, terms)
        if len(self.terms) * len(other.terms) >= PACKED_PAIRS:
            from . import _packed  # compiled only by a command that makes such a product

            return Polynomial(self.ctx, _packed.product(self.terms, other.terms))
        d: dict[Exponents, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
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
        """``self * x^exps``; ``self`` itself when every exponent is 0."""
        exps = tuple(exps)
        if len(exps) != self.ctx.nvars:
            raise PolyError("monomial exponent arity mismatch")
        if not any(exps):
            return self
        return Polynomial(
            self.ctx,
            tuple((tuple(map(operator.add, e, exps)), c) for e, c in self.terms),
        )

    def pow(self, k: int) -> "Polynomial":
        """``self**k`` by repeated squaring; a large square takes ``mul``'s packed path."""
        if k < 0:
            raise PolyError("negative power of a polynomial")
        if k == 0:
            return Polynomial.const(self.ctx, 1)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if not k:
                return result
            base = base.mul(base)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg
    __pow__ = pow

    # -- substitution ---------------------------------------------------

    def substitute(self, values: Mapping[int, "Polynomial"],
                   powers: Optional[dict] = None) -> "Polynomial":
        """Substitute every variable ``i`` of ``values`` by ``values[i]`` at once.

        The substituted variables must have no negative exponent in ``self``.
        The terms with equal exponents in them form one part, which is
        multiplied by the product of those powers of the values; each power
        ``values[i]**k`` is computed once and kept in ``powers`` under
        ``(i, k)``, a table a caller may share between substitutions of the
        same values.  Every part's products go into one sum, sorted once.  A
        polynomial that involves none of the variables is returned as it is.
        """
        powers = {} if powers is None else powers
        variables = tuple(values)
        parts: dict = {}
        for e, c in self.terms:
            rest = list(e)
            for i in variables:
                rest[i] = 0
            parts.setdefault(tuple(map(e.__getitem__, variables)), []).append((tuple(rest), c))
        add = operator.add
        out: dict = {}
        for ks, part in parts.items():
            factor = None
            for i, k in zip(variables, ks):
                if k:
                    if k < 0:
                        raise PolyError("substitution into a negative exponent")
                    power = powers.get((i, k))
                    if power is None:
                        self._same_ctx(values[i])
                        power = powers[i, k] = values[i].pow(k)
                    factor = power if factor is None else factor.mul(power)
            if factor is None:
                if len(parts) == 1:
                    return self  # no term involves a substituted variable
                for e, c in part:
                    out[e] = out.get(e, 0) + c
                continue
            for e2, c2 in factor.terms:
                for e1, c1 in part:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.ctx, _sorted_terms(out))

    def subs_zero(self, i: int) -> "Polynomial":
        """Set variable ``i`` to zero; requires its exponents to be >= 0."""
        if any(e[i] < 0 for e, _ in self.terms):
            raise PolyError("substituting 0 into a negative exponent")
        # the terms it keeps are a subsequence of sorted terms, so they stay sorted
        return Polynomial(self.ctx, tuple(t for t in self.terms if t[0][i] == 0))

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


def _least(terms: Terms) -> Exponents:
    """Each variable's least exponent over the (nonempty) terms."""
    return terms[0][0] if len(terms) == 1 else tuple(map(min, zip(*(e for e, _ in terms))))


def _strip_raw(p: Polynomial, indices: Iterable[int]) -> tuple[Polynomial, Exponents]:
    """Shift the chosen variables to valuation zero; returns (shifted, shift).

    ``shifted == p * x^shift`` exactly (no sign normalization).
    """
    if p.is_zero:
        raise PolyError("cannot strip the zero polynomial")
    low = _least(p.terms)
    shift = [0] * len(low)
    for i in indices:
        shift[i] = -low[i]
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
    are units of the Laurent ring, so divisibility is decided on the ordinary
    parts ``p / x^lo_p`` and ``q / x^lo_q``, with each variable's least
    exponent in ``lo``: ``_divide_ordinary`` divides the operands' own terms
    under those bounds, with no shifted copy of either.
    """
    if q.is_zero:
        raise PolyError("division by the zero polynomial")
    if p.ctx != q.ctx:
        raise ContextMismatch("divide_exact over different contexts")
    if p.is_zero:
        return p
    if len(q.terms) == 1:
        # a unit times a constant: the constant must divide every coefficient
        qe, qc = q.terms[0]
        if any(c % qc for _, c in p.terms):
            return None
        sub = operator.sub
        return Polynomial(p.ctx, tuple((tuple(map(sub, e, qe)), c // qc) for e, c in p.terms))
    return _divide_ordinary(p, q, _least(p.terms), _least(q.terms))


def _divide_ordinary(p: Polynomial, q: Polynomial, lo_p: Optional[Exponents] = None,
                     lo_q: Optional[Exponents] = None) -> Optional[Polynomial]:
    """Leading-term division over Z with bounded quotient exponents; None unless q divides p.

    A quotient term ``d = le - qe`` is admitted only when ``d >= lo_p - lo_q``
    in every variable (without bounds both are 0: ordinary division).  With
    each operand's least exponents this is the division of ``p / x^lo_p`` by
    ``q / x^lo_q`` times ``x^(lo_p - lo_q)``, since grlex is shift invariant
    and ``(le - lo_p) - (qe - lo_q) + (lo_p - lo_q) = le - qe``: the same
    terms, in the same order, and the same None verdicts.

    The remainder's terms wait in a heap keyed by descending grlex order
    (Monagan-Pearce, "Sparse polynomial division using a heap", J. Symb.
    Comput. 2011), so each quotient term is found without a scan of the
    remainder.  Deletion is lazy: a cancelled term stays in ``rem`` at 0
    and its entry is skipped when popped.  One that reappears needs no
    second entry: it lies below the leading term, so its first entry is
    still in the heap.  The leading terms, and so the quotient, are those of
    the plain greedy division.

    When ``len(p) * (len(q) - 1)`` is at least ``PACKED_PAIRS``, the same
    division runs on packed exponent vectors (``lpsurf._packed.quotient``):
    ints ordered as grlex, ``p`` and ``q`` each biased by its bound, with a
    field per variable sized by ``p``'s exponent range plus one guard bit,
    so that one subtraction and one mask test whether a quotient term
    keeps its bounds (a field where it does not borrows into its guard bit).
    """
    if lo_p is None:
        lo_p = lo_q = (0,) * p.ctx.nvars
    if len(p.terms) * (len(q.terms) - 1) >= PACKED_PAIRS:
        from . import _packed

        terms = _packed.quotient(p.terms, q.terms, lo_p, lo_q)
        return None if terms is None else Polynomial(p.ctx, terms)
    add, lt, neg, sub = operator.add, operator.lt, operator.neg, operator.sub
    floor = tuple(map(sub, lo_p, lo_q))
    rem = dict(p.terms)
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapify(heap)
    out = []
    qe, qc = q.terms[0]
    qrest = q.terms[1:]
    while heap:
        le = heappop(heap)[2]
        lc = rem.pop(le)
        if not lc:
            continue  # cancelled
        diff = tuple(map(sub, le, qe))
        if any(map(lt, diff, floor)) or lc % qc != 0:
            return None
        c = lc // qc
        out.append((diff, c))
        for e2, c2 in qrest:
            e = tuple(map(add, diff, e2))
            v = rem.get(e)
            if v is None:
                v = 0
                heappush(heap, (-sum(e), tuple(map(neg, e)), e))
            rem[e] = v - c * c2
    # each leading term is below the last, so the quotient is already sorted
    return Polynomial(p.ctx, tuple(out))


def _as_univariate(p: Polynomial, v: int) -> dict[int, Polynomial]:
    """Coefficients of powers of variable ``v`` (polynomials with v-slot zeroed)."""
    coeffs: dict[int, list[tuple[Exponents, int]]] = {}
    for e, c in p.terms:
        rest = list(e)
        rest[v] = 0
        coeffs.setdefault(e[v], []).append((tuple(rest), c))
    # the terms with one power x_v^k, divided by it, keep their order (see ``mul``)
    return {k: Polynomial(p.ctx, tuple(terms)) for k, terms in coeffs.items()}


# -- irreducibility -----------------------------------------------------------

_IRR_CACHE: dict[tuple[tuple[str, ...], Terms], bool] = {}


def is_irreducible(p: Polynomial) -> bool:
    """Irreducibility in Z[cluster + frozen] up to the units +-1.

    Exact native certificates decide first: integer and variable content,
    binomials whose exponent gcd is 1, and polynomials of degree 1 or 2 in
    some variable with a single-term coefficient in it, such as u^2 + c and
    u^2 + k*v^2 (see ``_low_degree_certificate``).  What they leave open
    falls through to an exact factorization in sympy, as does the primality
    of a constant; sympy is imported only then.  Zero, a unit and a
    polynomial with a negative exponent raise :class:`PolyError`.  After
    these checks the verdict is looked up in ``_IRR_CACHE``, by context and
    the terms of ``p`` up to sign, and kept there; each exchange polynomial
    asks once, through its cached ``exchange_defects``.
    """
    if p.is_zero or p.is_unit:
        raise PolyError("irreducibility of zero or a unit is undefined")
    if not p.is_ordinary:
        raise PolyError("irreducibility is defined for ordinary polynomials")
    q = p.canonical_sign()
    key = (p.ctx.names, q.terms)
    verdict = _IRR_CACHE.get(key)
    if verdict is None:
        verdict = _IRR_CACHE[key] = _is_irreducible_impl(q)
    return verdict


def _is_irreducible_impl(p: Polynomial) -> bool:
    if p.is_constant:
        import sympy  # loaded only here and in the factorization fallback

        return sympy.isprime(abs(p.constant_value()))
    if p.content() != 1:
        return False
    # variable content: some variable divides every term
    for i in p.involved_indices():
        if p.valuation_in(i) >= 1:
            # x itself is irreducible; anything bigger with a variable factor is not
            return len(p.terms) == 1 and p.total_degree() == 1 and abs(p.leading_coefficient()) == 1
    # so p is no monomial: one with content 1 and a variable has variable content
    if len(p.terms) == 2:
        verdict = _binomial_certificate(p)
        if verdict is not None:
            return verdict
    return _low_degree_certificate(p) or _sympy_irreducible(p)


def _binomial_certificate(p: Polynomial) -> Optional[bool]:
    """Certificate for m1 + m2 with unit coefficients.

    No variable divides ``p``, so the two monomials have disjoint supports,
    and the binomial is irreducible when the gcd of all exponents is 1.
    """
    (e1, c1), (e2, c2) = p.terms
    if abs(c1) == abs(c2) == 1 and math.gcd(*e1, *e2) == 1:
        return True
    return None  # gcd > 1 may still be irreducible (e.g. x^2 + y^2)


# Integer points for the quadratic case of _low_degree_certificate: variable i
# takes entry i of a point, cycling.  No entry is 0, so a monomial leading
# coefficient never vanishes; the later points give different variables
# different values, so that one such as y - z does not vanish at all of them.
_POINTS = ((2,), (3, 5, 7, 11, 13, 17, 19), (-1, 4, -3, 6, -5, 8))


def _low_degree_certificate(p: Polynomial) -> bool:
    """True when p has degree 1 or 2 in a variable w that proves it irreducible.

    Write p in R[w] with R = Z[other variables].  If p has integer content 1,
    no variable divides it, and one of its coefficients in w is a single
    term, then p is primitive there (its content over R is a unit): that
    content divides the term, so it is +-d*x^m, and d = 1 and m = 0 by the
    first two conditions.  Then both factors of a proper factorization have
    positive w-degree, since a factor free of w divides the content.  So
    such a p of w-degree 1 is irreducible.  One of w-degree 2 would
    split into two factors of w-degree 1, and these stay linear at any
    integer point of the other variables that keeps the leading coefficient
    a2 nonzero: then a1^2 - 4*a2*a0 is a square there.  A point where it is
    not one proves p irreducible; where a2 vanishes it is a1^2, a square, so
    such a point proves nothing.  False means "not proved", not "reducible".
    """
    used = p.involved_indices()
    if p.content() != 1 or any(p.valuation_in(i) for i in used):
        return False
    for w in used:
        degree = p.degree_in(w)
        if degree > 2:
            continue
        coeffs = _as_univariate(p, w)
        if not any(c.is_monomial for c in coeffs.values()):
            continue
        if degree == 1:
            return True
        zero = Polynomial.zero(p.ctx)
        for point in _POINTS:
            a2, a1, a0 = (_evaluate(coeffs.get(k, zero), point) for k in (2, 1, 0))
            disc = a1 * a1 - 4 * a2 * a0
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                return True
    return False


def _evaluate(p: Polynomial, point: tuple[int, ...]) -> int:
    """Value of an ordinary polynomial where variable i is point[i % len(point)]."""
    total = 0
    for e, c in p.terms:
        for i, k in enumerate(e):
            if k:
                c *= point[i % len(point)] ** k
        total += c
    return total


_SYMPY_GENS: dict[tuple[str, ...], tuple] = {}


def _sympy_irreducible(p: Polynomial) -> bool:
    content, factors = _sympy_factors(p)
    return abs(content) == 1 and [k for _, k in factors] == [1]


def _sympy_factors(p: Polynomial) -> tuple[int, list[tuple[Polynomial, int]]]:
    """``(c, [(f, k), ...])`` with p = c * prod f^k, each f irreducible and non-constant.

    An exact factorization of a non-constant ordinary polynomial in sympy.
    """
    import sympy  # about 0.35 s, paid only by polynomials no certificate decides

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
    out = []
    for f, k in factors:
        d = {}
        for exps, c in f.terms():
            e = [0] * p.ctx.nvars
            for i, x in zip(used, exps):
                e[i] = x
            d[tuple(e)] = int(c)
        out.append((Polynomial.from_dict(p.ctx, d), k))
    return int(content), out


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

# The parser refuses a polynomial, or a sum, product or power inside it, whose
# total degree (negative exponents counted by size) could pass MAX_DEGREE or
# whose number of terms could pass MAX_TERMS, before expanding it.  Every
# exponent counts toward the degree at least once, so constants stay small too.
MAX_DEGREE = 100
MAX_TERMS = 500


def _degree(p: Polynomial) -> int:
    return max((sum(map(abs, e)) for e, _ in p.terms), default=0)


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        self.text = text
        self.pos = 0
        self.ctx = ctx

    def error(self, msg: str):
        raise PolyError(f"parse error at {self.pos} in {self.text!r}: {msg}")

    def check_size(self, degree: int, terms: int) -> None:
        if degree > MAX_DEGREE:
            self.error(f"degree above the limit of {MAX_DEGREE}")
        if terms > MAX_TERMS:
            self.error(f"more than the limit of {MAX_TERMS} terms")

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
        try:
            p = self.expr()
        except RecursionError:
            self.error("nested too deeply")
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Polynomial:
        # the sum's nonzero terms so far, sorted once at the end
        acc: dict[Exponents, int] = {}
        sign = 1
        if self.eat("-"):
            sign = -1
        else:
            self.eat("+")
        while True:
            for e, c in self.term().terms:
                v = acc.pop(e, 0) + sign * c
                if v:
                    acc[e] = v
            self.check_size(0, len(acc))
            if self.eat("+"):
                sign = 1
            elif self.eat("-"):
                sign = -1
            else:
                return Polynomial(self.ctx, _sorted_terms(acc))

    def term(self) -> Polynomial:
        p = self.factor()
        while self.eat("*"):
            q = self.factor()
            self.check_size(_degree(p) + _degree(q), len(p.terms) * len(q.terms))
            p = p.mul(q)
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.eat("^"):
            k = self.integer()
            self.check_size(abs(k) * max(_degree(base), 1), 1)
            if k >= 0:
                # base^k has at most as many terms as there are k-multisets of base's terms
                self.check_size(0, math.comb(max(len(base.terms), 1) + k - 1, k))
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
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            self.error("integer too long")

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
