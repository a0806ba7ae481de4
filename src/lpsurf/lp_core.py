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
from typing import Callable, Optional, Sequence

from .poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    Record,
    VariableContext,
    _as_univariate,
    _check_name,
    _divide_ordinary,
    _sympy_factors,
    cached_attribute,
    divide_exact,
    is_irreducible,
    parse_polynomial,
    strip_laurent_monomial,
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
    def _ranked_polys(self) -> tuple[Polynomial, ...]:
        """The exchange polynomials with cluster exponents in value-rank order; computed once.

        A slot's rank is the place of its value when the values are sorted
        by terms.  :func:`seed_key` and :func:`_exchange_token` read these.
        """
        ranks = [0] * self.n
        for rank, slot in enumerate(sorted(range(self.n), key=lambda i: self.values[i].terms)):
            ranks[slot] = rank
        return tuple(p.permute_cluster(ranks) for p in self.polys)

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


def normalize(
    seed: LPSeed, j: int, memo: Optional[dict] = None
) -> tuple[Polynomial, tuple[int, ...]]:
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
    Only the other powers are computed by division, and with ``memo`` (see
    :func:`mutate`) each of those once per ``F_k``, ``F_j`` and ``k``.
    """
    seed.require_valid()
    f = seed.polys[j]
    support = f._support
    exponents = [0] * seed.n
    for k, fk in enumerate(seed.polys):
        if k != j and not fk._support & ~support:
            exponents[k] = _once(memo, lambda: ("power", fk.terms, f.terms, k), _power_of, fk, f, k)
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

    With ``b_k = max(0, -valuation_k(Fhat_i))`` borrowed powers, the numerator
    ``N = sum c * frozen^e * prod_k value_k^(e_k + b_k)`` has no negative
    powers of values, and the value is ``N / (value_i * prod_k value_k^b_k)``.
    """
    n = seed.n
    borrow = [max(0, -fhat.valuation_in(k)) for k in range(n)]
    powers: dict[tuple[int, int], Polynomial] = {}

    def power(k: int, m: int) -> Polynomial:
        if (k, m) not in powers:
            powers[(k, m)] = seed.values[k].pow(m)
        return powers[(k, m)]

    num: dict[tuple[int, ...], int] = {}
    for e, c in fhat.terms:
        term = Polynomial(seed.ctx, (((0,) * n + e[n:], c),))
        for k in range(n):
            if e[k] + borrow[k]:
                term = term.mul(power(k, e[k] + borrow[k]))
        for te, tc in term.terms:
            num[te] = num.get(te, 0) + tc
    numerator = Polynomial.from_dict(seed.ctx, num)
    den = seed.values[i]
    for k in range(n):
        if borrow[k]:
            den = den.mul(power(k, borrow[k]))
    value = divide_exact(numerator, den)
    if value is None or any(k < 0 for e, _ in value.terms for k in e[n:]):
        raise LaurentViolation(name, numerator, den)
    return value


def _divide_out_common(h: Polynomial, p: Polynomial) -> Polynomial:
    """``h`` with every common non-unit factor with ``p`` divided out (step 2).

    The prime factors of a ±1 monomial ``p`` are its variables, which are
    stripped from ``h``; an irreducible ``p`` is divided out while it
    divides.  Any other ``p`` is ``c * x^m * q`` with integer content ``c``
    and a primitive part ``q`` that no variable divides: ``h`` loses its
    common integer factors with ``c``, the variables of ``x^m``, and each
    irreducible factor of ``q`` (sympy factors a reducible ``q``).
    """
    if p.is_monomial and abs(p.leading_coefficient()) == 1:
        return strip_laurent_monomial(h, [k for k, e in enumerate(p.terms[0][0]) if e])[0]
    if not p.is_monomial and p.is_ordinary and is_irreducible(p):
        # divide_exact treats monomials as units and never fails on one, so
        # this loop ends only because p is not a monomial
        while (q := divide_exact(h, p)) is not None:
            h = q
        return h
    c = p.content()
    q, shift = strip_laurent_monomial(p if c == 1 else divide_exact(p, Polynomial.const(p.ctx, c)))
    while (d := math.gcd(c, h.content())) != 1:
        h = divide_exact(h, Polynomial.const(h.ctx, d))
    # shift[k] < 0 exactly where x_k divides p
    h, _ = strip_laurent_monomial(h, [k for k, e in enumerate(shift) if e < 0])
    if q.is_unit:
        return h
    factors = [q] if is_irreducible(q) else [f for f, _ in _sympy_factors(q)[1]]
    for f in factors:
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
    computed once.  Its whole input is looked up first: the context, the
    *signed* exchange polynomials, the values and ``i``.  Mutation chains
    revisit seeds and hit it; a :class:`LaurentViolation` is remembered as
    its ``num`` and ``den`` and raised again under this call's name.  On a
    miss the exchange is computed in parts, and since the relation
    ``x_i * x_i' = Fhat_i`` is local, each part is looked up under only the
    data it depends on: a power ``a_k`` of :func:`normalize` that the
    variable supports leave open (they decide most, with no key) under
    ``F_k``, ``F_i`` and ``k``; the new value under the context, ``value_i``
    and, per term of ``Fhat_i``, the signed coefficient, the frozen
    exponents and the values raised to a nonzero power with those powers;
    steps 1-3 for slot ``j`` under the context, ``Fhat_i|_{x_j<-0}``,
    ``F_j`` and ``i``, so exchanges whose ``Fhat_i`` differ only in terms
    divisible by ``x_j`` share them.  The seeds of one BFS never share a
    whole input, but they share these parts, and a memo made as
    :class:`_PartMemo` (the seed BFS's) keeps no whole inputs.
    A part that fails is not kept.  The checks above and the result's
    validity check run on every call.  Without ``memo`` no key is built.
    """
    seed.require_valid()
    if not 0 <= i < seed.n:
        raise PolyError(f"mutation direction {i} out of range")
    name = new_name if new_name is not None else _fresh_name(seed.names[i])
    _check_name(name)
    if name in seed.names[:i] + seed.names[i + 1:] + seed.ctx.frozen:
        raise PolyError(f"new variable name {name!r} is already in use")
    if memo is None or type(memo) is _PartMemo:
        polys, value = _exchange(seed, i, name, memo)
    else:
        key = ("seed", seed.ctx.names, tuple(p.terms for p in seed.polys),
               tuple(v.terms for v in seed.values), i)
        hit = memo.get(key)
        if hit is None:
            try:
                hit = _exchange(seed, i, name, memo)
            except LaurentViolation as exc:
                hit = (None, (exc.num, exc.den))
            memo[key] = hit
        polys, value = hit
        if polys is None:
            raise LaurentViolation(name, *value)
    names = list(seed.names)
    names[i] = name
    values = list(seed.values)
    values[i] = value
    result = LPSeed(seed.ctx, polys, tuple(names), tuple(values))
    if result.violations:
        raise MutationError("mutation produced an invalid seed: " + "; ".join(result.violations))
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
    fhat_i, _ = normalize(seed, i, memo)
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
            new_polys.append(_once(memo, lambda: ("step", ctx.names, restricted.terms, fj.terms, i),
                                   _exchange_step, ctx, restricted, fj, i))
    return tuple(new_polys), value


def _value_key(seed: LPSeed, i: int, fhat: Polynomial) -> tuple:
    """What ``Fhat_i(values) / value_i`` depends on, with no slot numbers.

    The context, ``value_i``, and per term of ``Fhat_i`` its signed
    coefficient, its frozen exponents and the values it raises to a nonzero
    power with those powers.
    """
    n, values = seed.n, seed.values
    return ("value", seed.ctx.names, values[i].terms, tuple(sorted(
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
    cluster_idx = ctx.cluster_indices()
    # Step 1: substitute x_i <- (Fhat_i|_{x_j<-0}) / x_i'
    if numerator.is_zero:
        raise MutationError("Fhat_i|_{x_j<-0} is zero")
    minus_i = tuple(-1 if t == i else 0 for t in range(ctx.nvars))
    g = fj.subs_poly(i, numerator.times_monomial(minus_i))
    # Step 2: divide out all common (non-unit, non-monomial) factors with
    # Fhat_i|_{x_j<-0}; monomials are units of the Laurent ring.
    h, _ = strip_laurent_monomial(g, cluster_idx)
    n_stripped, _ = strip_laurent_monomial(numerator, cluster_idx)
    h = _divide_out_common(h, n_stripped)
    # Step 3: the unique monic Laurent monomial making the result an
    # ordinary polynomial not divisible by any cluster variable, with the
    # canonical positive leading coefficient.  That monomial is 1 here.
    # Step 1 leaves h ordinary (F_j and Fhat_i have no negative frozen
    # exponents) with valuation 0 in every cluster variable.  Step 2 keeps
    # this: it strips variables to valuation 0, divides by integers, and
    # divides by polynomials that no variable divides, and valuations add
    # under products.  So only the sign is left to normalize.
    return h.canonical_sign()


# -- equality up to units -------------------------------------------------------


def seed_key(seed: LPSeed) -> tuple:
    """Canonical key: values as a set, polynomials up to unit and slot relabeling.

    Slots are ranked by their values' terms, which are canonical for Laurent
    polynomials; exponent vectors of the exchange polynomials are permuted
    into rank order so that two seeds whose clusters coincide as sets of
    values compare equal exactly when the attached polynomials match up to
    sign.
    """
    keys = [v.terms for v in seed.values]
    if len(set(keys)) != len(keys):
        raise PolyError("cluster values are not distinct; not a transcendence basis")
    ranked = seed._ranked_polys
    return (seed.ctx.names, tuple(sorted(
        (keys[i], ranked[i].canonical_sign().terms) for i in range(seed.n)
    )))


def _exchange_token(seed: LPSeed, i: int) -> tuple:
    """Slot ``i``'s value and *signed* exchange polynomial, slots in value-rank order.

    This is slot ``i``'s entry of :func:`seed_key` before the sign is
    normalized.  Two seeds with one key mutate at slots with one token to
    seeds with one key.  The sign must match too: ``seed_key`` ignores it,
    but the new value ``Fhat_i(values) / value_i`` does not.
    """
    return seed.values[i].terms, seed._ranked_polys[i].terms


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
    return LPSeed.initial(cluster, frozen, polys)
