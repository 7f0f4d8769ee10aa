"""The named families as affine lattices, and the partners that solve a 2 x k system.

The realization search asks, for one block and one named family, which
family parameters give their fiber sum the target's A and B.  Every
``catalog.FAMILIES`` row is affine in its parameters: :func:`family_steps`
reads its base point and steps from the row's signature, and
:func:`family_partners` solves, for each block, the 2 x k integer system
its partners' offsets satisfy over a box, which :func:`box_solutions`
solves with exact ``int`` arithmetic.  Only the search loads this module,
from ``geography.search_realizations`` when it runs, so that a process
that never searches does not compile it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .catalog import FAMILIES
from .invariants import LefschetzBlock


def family_steps(family: str) -> tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...]]:
    """A row's (chi_h, c1^2, fiber genus) at its least parameters, and one step up in each.

    Both are read from the row's signature: ``base`` at the least values, and
    ``steps[k]`` as the signature one above the least value of parameter k,
    less ``base``.  The search takes every row to be affine in its parameters,
    so that the block at offsets d from the least values is
    base + sum(d[k] * steps[k]).
    """
    _, params, signature = FAMILIES[family]
    least = [lo for lo, _, _ in params.values()]
    base = signature(*least)
    steps = []
    for k in range(len(least)):
        above = signature(*least[:k], least[k] + 1, *least[k + 1:])
        steps.append(tuple(up - at for up, at in zip(above, base)))
    return base, tuple(steps)


def family_partners(
    blocks: list[LefschetzBlock], a: int, b: int, family: str, spans: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every (i, d) such that blocks[i] fiber-summed with the family at offsets d has A = a, B = b.

    a = c1c2/24 and b = c1^3/6 are a target's, which the caller has checked
    is on the construction's image.  With X1 fixed, A and B of
    ``fibersum.halic_construction`` are linear in the partner's (chi_h,
    c1^2, f = 1 - g):

        A = f1*chi2 + (chi1 - f1)*f2
        B = f1*c1sq2 + (c1sq1 - 8*f1)*f2

    and the partner at offsets d, 0 <= d[k] <= spans[k], is base +
    sum(d[k] * steps[k]) by :func:`family_steps`.  So d solves a 2 x k
    integer system for each block, which :func:`box_solutions` solves.  The
    pairs are yielded one block at a time, in block order, each block's
    offsets in no set order, so that a caller can stop early; the blocks
    are not validated.
    """
    (chi0, c1sq0, g0), steps = family_steps(family)
    f0 = 1 - g0
    for i, block in enumerate(blocks):
        x1 = block.invariants  # read by name (see the invariants module)
        f1 = 1 - block.fiber_genus
        p, q = x1.chi_h - f1, x1.c1_sq - 8 * f1  # the coefficients of f2 in A and in B
        # A step raises f by -dg, so it adds f1*dchi - p*dg to A and f1*dsq - q*dg to B.
        # A loop, not a list comprehension, which on CPython 3.11 is a call per block.
        columns = []
        for dchi, dsq, dg in steps:
            columns.append((f1 * dchi - p * dg, f1 * dsq - q * dg))
        for d in box_solutions(columns, a - f1 * chi0 - p * f0, b - f1 * c1sq0 - q * f0, spans):
            yield i, d


def box_solutions(columns: list, rest_a: int, rest_b: int, spans: tuple) -> list[tuple[int, ...]]:
    """Every d, 0 <= d[k] <= spans[k], with sum(d[k] * columns[k]) == (rest_a, rest_b).

    One column is solved directly, two by Cramer's rule when they are
    independent; otherwise the shortest range is walked and the other
    columns are solved at each of its values.  Nothing is divided before
    its remainder is checked.
    """
    if not columns:
        return [()] if rest_a == rest_b == 0 else []
    if len(columns) == 1:
        ((ca, cb),) = columns
        if not (ca or cb):  # the parameter moves neither equation: all values or none
            return [(v,) for v in range(spans[0] + 1)] if rest_a == rest_b == 0 else []
        c, rest = (ca, rest_a) if ca else (cb, rest_b)
        if rest % c:
            return []
        v = rest // c
        ok = v * ca == rest_a and v * cb == rest_b and 0 <= v <= spans[0]
        return [(v,)] if ok else []
    if len(columns) == 2:
        (ca1, cb1), (ca2, cb2) = columns
        det = ca1 * cb2 - ca2 * cb1
        if det:
            n1, n2 = rest_a * cb2 - ca2 * rest_b, ca1 * rest_b - rest_a * cb1
            if n1 % det or n2 % det:
                return []
            v1, v2 = n1 // det, n2 // det
            return [(v1, v2)] if 0 <= v1 <= spans[0] and 0 <= v2 <= spans[1] else []
    w = min(range(len(spans)), key=spans.__getitem__)
    ca, cb = columns[w]
    others, other_spans = columns[:w] + columns[w + 1:], spans[:w] + spans[w + 1:]
    return [
        (*d[:w], v, *d[w:])
        for v in range(spans[w] + 1)
        for d in box_solutions(others, rest_a - v * ca, rest_b - v * cb, other_spans)
    ]
