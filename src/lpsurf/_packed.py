"""Large products and exact divisions on packed exponent vectors.

:mod:`lpsurf.poly` imports this module on its first product or division of
at least ``poly.PACKED_PAIRS`` term pairs, so a command that never makes one
compiles none of it.  Both kernels take and return ``Polynomial.terms``
tuples, sorted in descending graded lex order.

A packed key is one int that holds an exponent vector ``e`` under a bias
``lo`` (Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors", CASC 2007).  Field ``i`` holds ``e[i] - lo[i]``,
which the bias keeps at 0 or more, in ``r.bit_length() + 1`` bits, where
``r`` bounds it; the extra top bit is the field's guard bit, which
:func:`quotient` uses to test divisibility.  Variable 0 has the highest
field, and the biased total degree ``sum(e) - sum(lo)`` sits above all of
them with no upper bound.  While no field carries into the next, two keys
with one bias therefore compare as their total degrees and then as their
exponents in index order: graded lex order, the order of ``terms``.

A key is linear in ``e``: ``key(e) = sum(e[i] * w[i]) - sum(lo[i] * w[i])``
with ``w[i] = 2**shift[i] + 2**top``.  So the product of two monomials packed
under biases ``lo1`` and ``lo2`` is the sum of their keys, which is the key
of the product under the bias ``lo1 + lo2``, and a quotient is the
difference of keys, under the bias ``lo1 - lo2``.  The fields are sized from
the operands' exponent bounds, so no sum carries, and exponents need no
limit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, gt, mul, sub
from typing import Optional


def _layout(ranges: list[int]) -> tuple[list[int], list[int]]:
    """``(weights, shifts)`` for fields that hold ``0..ranges[i]`` and a guard bit each."""
    shifts = []
    top = 0
    for r in reversed(ranges):
        shifts.append(top)
        top += r.bit_length() + 1
    shifts.reverse()
    return [(1 << s) + (1 << top) for s in shifts], shifts


def _bounds(terms) -> tuple[list[int], list[int]]:
    """Each variable's least and greatest exponent over the terms."""
    columns = list(zip(*(e for e, _ in terms)))
    return list(map(min, columns)), list(map(max, columns))


def _pack(terms, weights: list[int], lo: list[int]) -> list[tuple[int, int]]:
    """``(key, coefficient)`` of each term, packed under the bias ``lo``."""
    bias = sum(map(mul, lo, weights))
    return [(sum(map(mul, e, weights)) - bias, c) for e, c in terms]


def _unpack(keys: list[int], coeffs: list[int], shifts: list[int], ranges: list[int],
            lo: list[int]):
    """The terms of the keys, each field read back and unbiased one variable at a time."""
    fields = [(s, (1 << r.bit_length()) - 1, b) for s, r, b in zip(shifts, ranges, lo)]
    columns = [[(k >> s & m) + b for k in keys] for s, m, b in fields]
    return tuple(zip(zip(*columns), coeffs))


def product(p, q):
    """The terms of ``p * q``; when ``q is p``, each cross product is added once, doubled."""
    lo_p, hi_p = _bounds(p)
    lo_q, hi_q = (lo_p, hi_p) if q is p else _bounds(q)
    ranges = [a - b + c - d for a, b, c, d in zip(hi_p, lo_p, hi_q, lo_q)]
    weights, shifts = _layout(ranges)
    pk = _pack(p, weights, lo_p)
    acc: dict[int, int] = {}
    get = acc.get
    if q is p:
        for i, (a, ca) in enumerate(pk):
            k = a + a
            acc[k] = get(k, 0) + ca * ca
            ca += ca
            for b, cb in pk[i + 1:]:
                k = a + b
                acc[k] = get(k, 0) + ca * cb
    else:
        qk = _pack(q, weights, lo_q)
        for a, ca in pk:
            for b, cb in qk:
                k = a + b
                acc[k] = get(k, 0) + ca * cb
    keys = sorted([k for k, c in acc.items() if c], reverse=True)
    return _unpack(keys, [acc[k] for k in keys], shifts, ranges, list(map(add, lo_p, lo_q)))


def quotient(p, q, lo_p, lo_q) -> Optional[tuple]:
    """The terms of ``p / q`` with exponents at least ``lo_p - lo_q``; None unless exact.

    The greedy heap division of ``poly._divide_ordinary``.  ``p`` is packed
    under the bias ``lo_p`` and ``q`` under ``lo_q``, in fields sized by
    ``p``'s range ``hi_p - lo_p`` in each variable (a ``q`` with a wider
    range in some variable does not divide ``p``), so ``le - qe`` is the key
    of the quotient term ``d`` under the bias ``lo_p - lo_q``.  One mask
    decides each ``d``: if it is below ``lo_p - lo_q`` in some variable, the
    lowest such field borrows and sets its guard bit.  Otherwise a guard bit
    is set only where ``d - (lo_p - lo_q)`` exceeds ``p``'s range, and no
    term of an exact quotient does, since ranges add.
    Either way the division is not exact.  A term that passes has every
    field below the guard bit, so a product ``d + e2`` stays below twice
    that and carries into no other field.
    """
    ranges = list(map(sub, _bounds(p)[1], lo_p))
    if any(map(gt, map(sub, _bounds(q)[1], lo_q), ranges)):
        return None
    weights, shifts = _layout(ranges)
    guard = sum(1 << (s + r.bit_length()) for s, r in zip(shifts, ranges))
    rem = dict(_pack(p, weights, lo_p))
    (qe, qc), *qrest = _pack(q, weights, lo_q)
    heap = [-k for k in rem]
    heapify(heap)
    keys, coeffs = [], []
    while heap:
        le = -heappop(heap)
        lc = rem.pop(le)
        if not lc:
            continue  # cancelled
        d = le - qe
        if d & guard or lc % qc:
            return None
        c = lc // qc
        keys.append(d)
        coeffs.append(c)
        for e2, c2 in qrest:
            e = d + e2
            v = rem.get(e)
            if v is None:
                v = 0
                heappush(heap, -e)
            rem[e] = v - c * c2
    return _unpack(keys, coeffs, shifts, ranges, list(map(sub, lo_p, lo_q)))
