"""LP seeds: normalization, the three-step mutation, validity, and equality.

A seed keeps a fixed "slot" context (the initial cluster names plus the
frozen names).  Mutating slot ``i`` replaces the meaning of that slot: the
exchange polynomials stay written in slot symbols, the per-slot ``names``
carry the human-facing labels (``a`` becomes ``a'`` and so on), and
``values`` track each slot's rational function in the initial variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .poly import (
    ContextMismatch,
    PolyError,
    Polynomial,
    RationalFunction,
    VariableContext,
    divide_exact,
    evaluate,
    is_irreducible,
    parse_polynomial,
    poly_gcd,
    strip_laurent_monomial,
)
from .schema import REQUIRED, SCHEMA_VERSION, fields

__all__ = [
    "LPSeed",
    "InvalidSeed",
    "MutationError",
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


@dataclass(frozen=True)
class LPSeed:
    """Cluster slots with exchange polynomials, display names, tracked values."""

    ctx: VariableContext
    polys: tuple[Polynomial, ...]
    names: tuple[str, ...]
    values: tuple[RationalFunction, ...]
    provenance: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.ctx.cluster)

    @staticmethod
    def initial(
        cluster: Sequence[str],
        frozen: Sequence[str],
        polys: Sequence[Polynomial | str],
        provenance: Optional[str] = None,
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
        values = tuple(RationalFunction.var(ctx, name) for name in ctx.cluster)
        return LPSeed(ctx, parsed, tuple(ctx.cluster), values, provenance)

    def with_values(self, values: Sequence[RationalFunction]) -> "LPSeed":
        return replace(self, values=tuple(values))

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
        if f.is_zero:
            out.append(f"F_{label} is zero")
            continue
        if not f.is_ordinary:
            out.append(f"F_{label} has negative exponents")
            continue
        if f.is_unit:
            out.append(f"F_{label} is a unit")
            continue
        if f.involves(i):
            out.append(f"F_{label} depends on x_{label}")
        if _is_cluster_variable(seed.ctx, f):
            out.append(f"F_{label} is a cluster variable")
        try:
            if not is_irreducible(f):
                out.append(f"F_{label} is reducible")
        except PolyError:
            pass  # already reported above
    return out


def _is_cluster_variable(ctx: VariableContext, f: Polynomial) -> bool:
    if len(f.terms) != 1:
        return False
    e, c = f.terms[0]
    if abs(c) != 1 or sum(abs(k) for k in e) != 1:
        return False
    i = next(j for j, k in enumerate(e) if k)
    return e[i] == 1 and ctx.is_cluster_index(i)


def _require_valid(seed: LPSeed) -> None:
    violations = validate_seed(seed)
    if violations:
        raise InvalidSeed(violations)


# -- normalization ------------------------------------------------------------

_AUX = "_normalization_aux"


def normalize(seed: LPSeed, j: int, check: bool = True) -> tuple[Polynomial, tuple[int, ...]]:
    """Normalized exchange polynomial of slot ``j`` and its exponent vector.

    Returns ``(Fhat_j, (a_1..a_n))`` with
    ``Fhat_j = F_j / prod_{k != j} x_k^{a_k}`` where ``a_k`` is maximal such
    that ``F_k^{a_k}`` exactly divides ``F_j`` after the substitution
    ``x_k <- F_k / x`` in an auxiliary variable ``x``.
    """
    if check:
        _require_valid(seed)
    f = seed.polys[j]
    ctx = seed.ctx
    # a Laurent entry (an already-normalized polynomial) is handled on its
    # denominator-cleared part: clearing x_k^-m trades m powers of F_k away
    borrowed = [0] * ctx.nvars
    if not f.is_ordinary:
        for k in range(ctx.nvars):
            v = f.valuation_in(k)
            if v < 0:
                borrowed[k] = -v
        f = f.times_monomial(borrowed)
    exts = ctx.extended(_AUX)
    aux = exts.nvars - 1
    exponents = [0] * seed.n
    for k in range(seed.n):
        if k == j:
            continue
        fk = seed.polys[k]
        if f.involves(k):
            value = fk.map_context(exts).times_monomial(
                tuple(-1 if t == aux else 0 for t in range(exts.nvars))
            )
            s = f.map_context(exts).subs_poly(k, value)
        else:
            s = f.map_context(exts)
        fk_ext = fk.map_context(exts)
        a = 0
        while True:
            nxt = divide_exact(s, fk_ext)
            if nxt is None:
                break
            s = nxt
            a += 1
        exponents[k] = max(0, a - borrowed[k])
    shift = [-borrowed[k] for k in range(ctx.nvars)]
    for k in range(seed.n):
        shift[k] -= exponents[k]
    return f.times_monomial(shift), tuple(exponents)


# -- mutation -----------------------------------------------------------------


def _fresh_name(name: str) -> str:
    return name + "'"


def mutate(
    seed: LPSeed,
    i: int,
    new_name: Optional[str] = None,
    validate: bool = True,
) -> LPSeed:
    """Three-step LP mutation of a seed in direction ``i``.

    The slot keeps its internal symbol; the new cluster variable gets
    ``new_name`` (default: the old display name with a prime appended) and its
    tracked value ``Fhat_i(values) / value_i``.  The result is validated.
    """
    if validate:
        _require_valid(seed)
    if not 0 <= i < seed.n:
        raise PolyError(f"mutation direction {i} out of range")
    ctx = seed.ctx
    fhat_i, _ = normalize(seed, i, check=False)

    value_map = {k: v for k, v in enumerate(seed.values)}
    new_value = evaluate(fhat_i, value_map).div(seed.values[i])

    cluster_idx = list(ctx.cluster_indices())
    new_polys: list[Polynomial] = []
    for j, fj in enumerate(seed.polys):
        if j == i or not fj.involves(i):
            new_polys.append(fj)
            continue
        # Step 1: substitute x_i <- (Fhat_i|_{x_j<-0}) / x_i'
        if fhat_i.is_zero:
            raise MutationError("normalized polynomial vanished")
        try:
            numerator = fhat_i.subs_zero(j)
        except PolyError as exc:
            raise MutationError(
                "Fhat_i|_{x_j<-0} undefined; well-definedness guard violated"
            ) from exc
        if numerator.is_zero:
            raise MutationError("Fhat_i|_{x_j<-0} is zero")
        minus_i = tuple(-1 if t == i else 0 for t in range(ctx.nvars))
        g = fj.subs_poly(i, numerator.times_monomial(minus_i))
        # Step 2: divide out all common (non-unit, non-monomial) factors with
        # Fhat_i|_{x_j<-0}; monomials are units of the Laurent ring.
        h, _ = strip_laurent_monomial(g, cluster_idx)
        n_stripped, _ = strip_laurent_monomial(numerator, cluster_idx)
        while True:
            d = poly_gcd(h, n_stripped)
            if d.is_unit:
                break
            nxt = divide_exact(h, d)
            assert nxt is not None
            h = nxt
        # Step 3: the unique monic Laurent monomial making the result an
        # ordinary polynomial not divisible by any cluster variable, with the
        # canonical positive leading coefficient.
        fj_new, _ = strip_laurent_monomial(h, cluster_idx)
        if not fj_new.is_ordinary:
            raise MutationError("mutated exchange polynomial left the coefficient ring")
        new_polys.append(fj_new)

    names = list(seed.names)
    names[i] = new_name if new_name is not None else _fresh_name(seed.names[i])
    values = list(seed.values)
    values[i] = new_value
    result = LPSeed(ctx, tuple(new_polys), tuple(names), tuple(values), seed.provenance)
    if validate:
        violations = validate_seed(result)
        if violations:
            raise MutationError("mutation produced an invalid seed: " + "; ".join(violations))
    return result


# -- equality up to units -------------------------------------------------------


def seed_key(seed: LPSeed) -> tuple:
    """Canonical key: values as a set, polynomials up to unit and slot relabeling.

    Slots are ranked by their tracked values' canonical forms; exponent
    vectors of the exchange polynomials are permuted into rank order so that
    two seeds whose clusters coincide as sets of rational functions compare
    equal exactly when the attached polynomials match up to sign.
    """
    ranked = sorted(range(seed.n), key=lambda i: seed.values[i].key())
    keys = [seed.values[i].key() for i in ranked]
    if len(set(keys)) != len(keys):
        raise PolyError("cluster values are not distinct; not a transcendence basis")
    perm = [0] * seed.n
    for rank, slot in enumerate(ranked):
        perm[slot] = rank
    entries = []
    for rank, slot in enumerate(ranked):
        poly = seed.polys[slot].permute_cluster(perm).canonical_sign()
        entries.append((keys[rank], poly.terms))
    return (seed.ctx.names, tuple(entries))


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
