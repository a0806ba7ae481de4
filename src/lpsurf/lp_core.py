"""LP seeds: normalization, the three-step mutation, validity, and equality.

A seed keeps a fixed "slot" context (the initial cluster names plus the
frozen names).  Mutating slot ``i`` replaces the meaning of that slot: the
exchange polynomials stay written in slot symbols, the per-slot ``names``
carry the human-facing labels (``a`` becomes ``a'`` and so on), and
``values`` track each slot's value in the initial variables.

By the Laurent phenomenon for LP algebras (Lam-Pylyavskyy), every value is a
Laurent polynomial in the initial cluster with coefficients in Z[frozen], so
values are :class:`Polynomial` objects, canonical like any other.  Mutation
computes the new value by one exact division; a value that is not such a
Laurent polynomial raises :class:`LaurentViolation`.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Optional, Sequence

from .poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    Record,
    VariableContext,
    _as_univariate,
    _check_name,
    _divide_ordinary,
    _strip_raw,
    _sympy_factors,
    cached_attribute,
    divide_exact,
    is_irreducible,
    parse_polynomial,
)
from .schema import REQUIRED, SCHEMA_VERSION, fields

__all__ = [
    "LPSeed",
    "InvalidSeed",
    "MutationError",
    "LaurentViolation",
    "validate_seed",
    "normalize",
    "mutate",
    "seeds_equal",
    "seed_key",
    "seed_to_json",
    "seed_from_json",
]


# seed_from_json refuses a seed with more cluster variables, and
# surface_from_json a surface of higher rank: every exponent vector has one
# entry per variable, so the work of building a seed grows faster than the
# square of the rank.  A surface of rank MAX_RANK has at most MAX_RANK + 3
# marked points, the most frozen variables a seed may have.
MAX_RANK = 200


class InvalidSeed(PolyError):
    """Raised when an operation requires a valid seed and gets violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid LP seed: " + "; ".join(violations))
        self.violations = violations


class MutationError(PolyError):
    """Internal contract failure during mutation (should not happen on valid seeds)."""


class LaurentViolation(PolyError):
    """A new cluster value ``num / den`` is not Laurent with coefficients in Z[frozen]."""

    def __init__(self, name: str, num: Polynomial, den: Polynomial):
        super().__init__(f"value of {name} = ({num}) / ({den}) is not a Laurent polynomial")
        self.name = name
        self.num = num
        self.den = den


class LPSeed(Record):
    """Cluster slots with exchange polynomials, display names, tracked values."""

    _fields = ("ctx", "polys", "names", "values")

    def __init__(self, ctx: VariableContext, polys: tuple[Polynomial, ...],
                 names: tuple[str, ...], values: tuple[Polynomial, ...]):
        d = self.__dict__
        d["ctx"] = ctx
        d["polys"] = polys
        d["names"] = names
        d["values"] = values

    @property
    def n(self) -> int:
        return len(self.ctx.cluster)

    @staticmethod
    def initial(
        cluster: Sequence[str],
        frozen: Sequence[str],
        polys: Sequence[Polynomial | str],
    ) -> "LPSeed":
        ctx = VariableContext(tuple(cluster), tuple(frozen))
        parsed = tuple(
            parse_polynomial(p, ctx).canonical_sign() if isinstance(p, str) else p.canonical_sign()
            for p in polys
        )
        if not ctx.cluster:
            raise InvalidSeed(["empty cluster"])
        if len(parsed) != len(ctx.cluster):
            raise InvalidSeed(["cluster and exchange polynomial counts differ"])
        values = tuple(Polynomial.variable(ctx, name) for name in ctx.cluster)
        return LPSeed(ctx, parsed, tuple(ctx.cluster), values)

    @cached_attribute
    def violations(self) -> tuple[str, ...]:
        """Every violated seed condition (see :func:`validate_seed`), computed once.

        Validity is not a constructor invariant: ``validate_seed`` and the
        ``validate`` command must be able to build and report invalid seeds.
        """
        return tuple(validate_seed(self))

    @cached_attribute
    def _ranked(self) -> tuple[list[int], tuple[frozenset, ...]]:
        """The slots in value-rank order, and each slot's terms in rank order; computed once.

        A slot's rank is the place of its value when the values are sorted
        by terms.  One ``itemgetter`` moves the cluster exponents of every
        term into rank order, and each exchange polynomial's moved terms are
        kept as a frozenset, so no term list is sorted again.
        :func:`seed_key` and :func:`_exchange_token` read these.
        """
        n = self.n
        order = sorted(range(n), key=lambda i: self.values[i].terms)
        # itemgetter of one index gives no tuple, but one variable has one order
        if order == list(range(n)):
            return order, tuple(frozenset(p.terms) for p in self.polys)
        rank = operator.itemgetter(*order, *range(n, self.ctx.nvars))
        return order, tuple(frozenset([(rank(e), c) for e, c in p.terms]) for p in self.polys)

    def require_valid(self) -> "LPSeed":
        """This seed, or :class:`InvalidSeed` listing its violations."""
        if self.violations:
            raise InvalidSeed(list(self.violations))
        return self

    def with_values(self, values: Sequence[Polynomial]) -> "LPSeed":
        return LPSeed(self.ctx, self.polys, self.names, tuple(values))

    def slot_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"no cluster variable named {name!r}") from None

    def display_names(self) -> tuple[str, ...]:
        """Printing order for polynomial serialization: display cluster + frozen."""
        return self.names + self.ctx.frozen

    def poly_strings(self) -> tuple[str, ...]:
        return tuple(p.to_string(self.display_names()) for p in self.polys)

    def __repr__(self) -> str:
        cluster = ",".join(self.names)
        polys = "; ".join(self.poly_strings())
        return f"LPSeed([{cluster}] | {polys})"


# -- validity -----------------------------------------------------------------


def validate_seed(seed: LPSeed) -> list[str]:
    """Every violated seed condition, empty when the seed is valid."""
    out: list[str] = []
    n = seed.n
    if n < 1:
        out.append("empty cluster")
    if len(seed.polys) != n or len(seed.names) != n or len(seed.values) != n:
        out.append("cluster, polynomial, name and value counts disagree")
        return out
    if len(set(seed.names)) != n:
        out.append("duplicate cluster variable names")
    for i, f in enumerate(seed.polys):
        label = seed.names[i]
        fatal, defects = f.exchange_defects  # checked once per polynomial object
        if fatal:
            out.append(f"F_{label} {fatal}")
            continue
        if f.involves(i):
            out.append(f"F_{label} depends on x_{label}")
        out.extend(f"F_{label} {d}" for d in defects)
    return out


# -- normalization ------------------------------------------------------------


def normalize(seed: LPSeed, j: int) -> tuple[Polynomial, tuple[int, ...]]:
    """Normalized exchange polynomial of slot ``j`` and its exponent vector.

    Returns ``(Fhat_j, (a_1..a_n))`` with
    ``Fhat_j = F_j / prod_{k != j} x_k^{a_k}`` where ``a_k`` is maximal such
    that ``F_k^{a_k}`` divides ``F_j(x_k <- F_k / x)`` over ``Z[frozen]``
    (frozen variables are not units).  Writing ``F_j = sum_m c_m x_k^m``,
    that is ``a_k = min_m (m + v(c_m))`` with ``v`` the number of factors
    ``F_k`` in ``c_m``, counted by exact division in the polynomial ring.
    Raises :class:`InvalidSeed` on an invalid seed.

    Most powers are decided from the variable supports alone: when ``F_k``
    involves a variable that ``F_j`` does not, it divides no ``c_m`` (a
    multiple of ``F_k`` involves that variable too), so ``a_k`` is the
    least ``m``, ``F_j``'s valuation in ``x_k``.  That is 0, because a valid
    ``F_j`` is irreducible and no cluster variable, so no ``x_k`` divides it.
    Only the other powers are computed by division.
    """
    seed.require_valid()
    f = seed.polys[j]
    support = f._support
    exponents = [0] * seed.n
    for k, fk in enumerate(seed.polys):
        if k != j and not fk._support & ~support:
            exponents[k] = _power_of(fk, f, k)
    shift = [-a for a in exponents] + [0] * len(seed.ctx.frozen)
    return f.times_monomial(shift), tuple(exponents)


def _once(memo: Optional[dict], key: Callable[[], tuple], compute: Callable, *args):
    """``compute(*args)``, stored in ``memo`` under ``key()`` and looked up there first.

    Without a memo no key is built.  A call that raises stores nothing.
    """
    if memo is None:
        return compute(*args)
    k = key()
    hit = memo.get(k)
    if hit is None:
        hit = memo[k] = compute(*args)
    return hit


def _power_of(fk: Polynomial, f: Polynomial, k: int) -> int:
    """``min_m (m + v(c_m))`` over ``f = sum_m c_m x_k^m``; ``v`` counts factors ``fk``."""
    best: Optional[int] = None
    for m, c in sorted(_as_univariate(f, k).items()):
        if best is not None and m >= best:
            break
        a = m
        while (best is None or a < best) and (c := _divide_ordinary(c, fk)) is not None:
            a += 1
        best = a
    return best


# -- mutation -----------------------------------------------------------------


def _fresh_name(name: str) -> str:
    return name + "'"


def _new_value(seed: LPSeed, i: int, fhat: Polynomial, name: str) -> Polynomial:
    """``Fhat_i(values) / value_i`` as a Laurent polynomial, by one exact division.

    ``Fhat_i`` has no negative frozen exponent, so its ``den`` is a monomial
    in cluster variables, and the value is ``N / D`` with ``N = num(values)``
    and ``D = value_i * den(values)``: ``N`` has no negative powers of
    values.  Both substitutions share one table of powers of the values.
    """
    values = dict(enumerate(seed.values))
    powers: dict = {}
    numerator = fhat.num.substitute(values, powers)
    den = seed.values[i].mul(fhat.den.substitute(values, powers))
    value = divide_exact(numerator, den)
    if value is None or any(k < 0 for e, _ in value.terms for k in e[seed.n:]):
        raise LaurentViolation(name, numerator, den)
    return value


def _divide_out_common(h: Polynomial, p: Polynomial, strip: Iterable[int] = ()) -> Polynomial:
    """``h`` with every common non-unit factor with ``p`` divided out (step 2).

    ``p`` is a Laurent polynomial, whose monomials are units.  Write
    ``p = c * x^m * q`` with integer content ``c``, a Laurent monomial
    ``x^m`` and a primitive part ``q`` that no variable divides: ``h`` loses
    its common integer factors with ``c``, the variables that divide ``p``,
    and each irreducible factor of ``q`` (sympy factors a reducible ``q``).
    A ±1 monomial ``p`` has a unit ``q``, so it only strips variables; an
    irreducible ``p`` is its own ``q`` up to sign.  The variables of
    ``strip`` are stripped from ``h`` in the same shift.  The result's sign
    is not normalized.
    """
    c = p.content()
    primitive = p if c == 1 else divide_exact(p, Polynomial.const(p.ctx, c))
    q, shift = _strip_raw(primitive, range(p.ctx.nvars))
    # shift[k] < 0 exactly where x_k divides p
    h, _ = _strip_raw(h, {*strip, *(k for k, e in enumerate(shift) if e < 0)})
    while c != 1 and (d := math.gcd(c, h.content())) != 1:
        h = divide_exact(h, Polynomial.const(h.ctx, d))
    if q.is_unit:
        return h
    factors = [q] if is_irreducible(q) else [f for f, _ in _sympy_factors(q)[1]]
    for f in factors:
        # divide_exact treats monomials as units and never fails on one, so
        # this loop ends only because f is not a monomial
        while (r := divide_exact(h, f)) is not None:
            h = r
    return h


def mutate(
    seed: LPSeed, i: int, new_name: Optional[str] = None, *, memo: Optional[dict] = None
) -> LPSeed:
    """Three-step LP mutation of a seed in direction ``i``.

    The slot keeps its internal symbol; the new cluster variable gets
    ``new_name`` (default: the old display name with a prime appended), which
    must be a variable name not used by another slot or a frozen variable, and
    its tracked value ``Fhat_i(values) / value_i``, which raises
    :class:`LaurentViolation` when it is not a Laurent polynomial.  Raises
    :class:`InvalidSeed` on an invalid seed; the result is checked to be valid.

    With ``memo``, a dict the caller keeps, each distinct exchange is
    computed and checked once.  Its whole input is looked up first: the
    *signed* exchange polynomials and the values, the very objects the seed
    holds (a polynomial carries its context and keeps its hash), and ``i``.  Mutation chains revisit
    seeds and hit it.  An entry is stored only once its result has passed
    :func:`validate_seed`, and a hit builds a seed with this call's names
    that takes that verdict, no violations, without a second check.  That
    is exact: the verdict depends only on the counts, the polynomials (their
    ``exchange_defects`` are cached on them), which slot involves which
    variable, and the names being distinct, which the name checks above
    make sure of on every call.  A :class:`LaurentViolation` is remembered
    as its ``num`` and ``den`` and raised again under this call's name.  On
    a miss the exchange is computed in parts, and since the relation
    ``x_i * x_i' = Fhat_i`` is local, each part is looked up under only the
    data it depends on, the context coming with its polynomials: the new
    value under ``value_i`` and, per term of ``Fhat_i``, the signed
    coefficient, the frozen exponents and the values raised to a nonzero
    power with those powers; steps 1-3 for slot ``j`` under
    ``Fhat_i|_{x_j<-0}``, ``F_j`` and ``i``, so exchanges whose ``Fhat_i``
    differ only in terms divisible by ``x_j`` share them.  :func:`normalize`
    keeps nothing: the variable supports decide most of its powers with no
    division.  The
    seeds of one BFS never share a whole input, but they share these parts,
    and a memo made as :class:`_PartMemo` (the seed BFS's) keeps no whole
    inputs.
    A part that fails is not kept, and neither is a whole exchange that
    raises anything but a :class:`LaurentViolation`.  The input checks run
    on every call, and the result's validity check on every call that is
    no whole-input hit.  Without ``memo`` no part key is built.
    """
    seed.require_valid()
    if not 0 <= i < seed.n:
        raise PolyError(f"mutation direction {i} out of range")
    name = new_name if new_name is not None else _fresh_name(seed.names[i])
    _check_name(name)
    if name in seed.names[:i] + seed.names[i + 1:] + seed.ctx.frozen:
        raise PolyError(f"new variable name {name!r} is already in use")
    whole = memo is not None and type(memo) is not _PartMemo
    key = ("seed", seed.polys, seed.values, i)
    hit = memo.get(key) if whole else None
    if hit is None:
        try:
            polys, value = _exchange(seed, i, name, memo)
        except LaurentViolation as exc:
            if whole:
                memo[key] = (None, (exc.num, exc.den))
            raise
    elif hit[0] is None:
        raise LaurentViolation(name, *hit[1])
    else:
        polys, value = hit
    names = list(seed.names)
    names[i] = name
    values = list(seed.values)
    values[i] = value
    result = LPSeed(seed.ctx, polys, tuple(names), tuple(values))
    if hit is not None:
        vars(result)["violations"] = ()
    elif result.violations:
        raise MutationError("mutation produced an invalid seed: " + "; ".join(result.violations))
    elif whole:
        memo[key] = polys, value
    return result


class _PartMemo(dict):
    """A :func:`mutate` memo that keeps the parts of each exchange, not whole inputs.

    The seeds of one BFS never share a whole input, so those entries would
    only take memory: about 1.4 MB on M6.
    """


def _exchange(
    seed: LPSeed, i: int, name: str, memo: Optional[dict]
) -> tuple[tuple[Polynomial, ...], Polynomial]:
    """The exchange polynomials and slot ``i``'s value after mutating at ``i``.

    A function of the context, the polynomials, the values and ``i`` alone;
    ``name`` only labels a :class:`LaurentViolation`.  With ``memo``, each
    part is looked up by the data it depends on (see :func:`mutate`).
    """
    ctx = seed.ctx
    fhat_i, _ = normalize(seed, i)
    if fhat_i.is_zero:
        raise MutationError("normalized polynomial vanished")
    value = _once(memo, lambda: _value_key(seed, i, fhat_i), _new_value, seed, i, fhat_i, name)
    new_polys: list[Polynomial] = []
    for j, fj in enumerate(seed.polys):
        if j == i or not fj.involves(i):
            new_polys.append(fj)
        else:
            try:
                restricted = fhat_i.subs_zero(j)
            except PolyError as exc:
                raise MutationError(
                    "Fhat_i|_{x_j<-0} undefined; well-definedness guard violated"
                ) from exc
            new_polys.append(_once(memo, lambda: ("step", restricted, fj, i),
                                   _exchange_step, ctx, restricted, fj, i))
    return tuple(new_polys), value


def _value_key(seed: LPSeed, i: int, fhat: Polynomial) -> tuple:
    """What ``Fhat_i(values) / value_i`` depends on, with no slot numbers.

    ``value_i``, which carries the context, and per term of ``Fhat_i`` its
    signed coefficient, its frozen exponents and the values it raises to a
    nonzero power with those powers.
    """
    n, values = seed.n, seed.values
    return ("value", values[i], tuple(sorted(
        (c, e[n:], tuple(sorted((values[k].terms, e[k]) for k in range(n) if e[k])))
        for e, c in fhat.terms
    )))


def _exchange_step(
    ctx: VariableContext, numerator: Polynomial, fj: Polynomial, i: int
) -> Polynomial:
    """Steps 1-3: the new exchange polynomial of a slot ``j`` whose ``F_j`` involves ``x_i``.

    ``numerator`` is ``Fhat_i|_{x_j<-0}``, the only way steps 1-3 depend on
    ``Fhat_i`` and ``j``.
    """
    # Step 1: substitute x_i <- (Fhat_i|_{x_j<-0}) / x_i'
    if numerator.is_zero:
        raise MutationError("Fhat_i|_{x_j<-0} is zero")
    minus_i = tuple(-1 if t == i else 0 for t in range(ctx.nvars))
    g = fj.substitute({i: numerator.times_monomial(minus_i)})
    # Step 2: divide out all common non-unit factors with Fhat_i|_{x_j<-0};
    # monomials are units of the Laurent ring.  The same shift strips the
    # cluster variables, which step 3 would divide out.
    h = _divide_out_common(g, numerator, range(len(ctx.cluster)))
    # Step 3: the unique monic Laurent monomial making the result an
    # ordinary polynomial not divisible by any cluster variable, with the
    # canonical positive leading coefficient.  That monomial is 1 here.
    # The shift leaves h ordinary (F_j and Fhat_i have no negative frozen
    # exponents) with valuation 0 in every cluster variable.  The rest of
    # step 2 keeps this: it divides by integers and by polynomials that no
    # variable divides, and valuations add under products.  So only the
    # sign is left to normalize.
    return h.canonical_sign()


# -- equality up to units -------------------------------------------------------


def seed_key(seed: LPSeed) -> tuple:
    """Canonical key: values as a set, polynomials up to unit and slot relabeling.

    Slots are ranked by their values' terms, which are canonical for Laurent
    polynomials; exponent vectors of the exchange polynomials are moved
    into rank order (``LPSeed._ranked``) so that two seeds whose clusters
    coincide as sets of values compare equal exactly when the attached
    polynomials match up to sign.  The key lists the slots in rank order.
    """
    if len(set(seed.values)) != seed.n:
        raise PolyError("cluster values are not distinct; not a transcendence basis")
    order, ranked = seed._ranked
    return (seed.ctx.names, tuple((seed.values[s], _up_to_sign(ranked[s])) for s in order))


def _up_to_sign(terms: frozenset) -> frozenset:
    """``terms`` or their negatives, whichever is positive at the greatest exponent.

    Any fixed order of the exponents picks one sign; the zero polynomial,
    with no terms, is its own negative.
    """
    if max(terms, default=((), 1))[1] > 0:
        return terms
    return frozenset([(e, -c) for e, c in terms])


def _exchange_token(seed: LPSeed, i: int) -> tuple:
    """Slot ``i``'s value and *signed* exchange polynomial, slots in value-rank order.

    This is slot ``i``'s entry of :func:`seed_key` before the sign is
    normalized.  Two seeds with one key mutate at slots with one token to
    seeds with one key.  The sign must match too: ``seed_key`` ignores it,
    but the new value ``Fhat_i(values) / value_i`` does not.
    """
    return seed.values[i], seed._ranked[1][i]


def seeds_equal(s1: LPSeed, s2: LPSeed) -> bool:
    """Clusters agree as sets of tracked values; polynomials agree up to unit."""
    if s1.ctx != s2.ctx:
        raise ContextMismatch("seeds over different contexts")
    return seed_key(s1) == seed_key(s2)


# -- serialization ---------------------------------------------------------------


def seed_to_json(seed: LPSeed) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "cluster": list(seed.names),
        "frozen": list(seed.ctx.frozen),
        "polys": list(seed.poly_strings()),
    }


def seed_from_json(data: object) -> LPSeed:
    cluster, frozen, polys = fields(data, "seed", {
        "cluster": ([str], REQUIRED), "frozen": ([str], ()), "polys": ([str], REQUIRED),
    })
    for kind, names, limit in (("cluster", cluster, MAX_RANK), ("frozen", frozen, MAX_RANK + 3)):
        if len(names) > limit:
            raise PolyError(f"seed has {len(names)} {kind} variables, above the limit of {limit}")
    return LPSeed.initial(cluster, frozen, polys)
