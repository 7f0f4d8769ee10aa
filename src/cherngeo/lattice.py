"""The named families as affine lattices, and the box points that solve a 2 x k system.

The realization search asks, for one block and one named family, which
family parameters give their fiber sum the target's A and B.  Every
``catalog.FAMILIES`` row is affine in its parameters: :func:`family_steps`
reads its base point and steps from the row's signature, and the
parameters then solve a 2 x k integer system over a box of offsets, which
:func:`box_solutions` solves with exact ``int`` arithmetic.  Only the
search loads this module, from ``geography.search_realizations`` and
``fibersum.fiber_sum_partners`` when they run, so that a process that
never searches does not compile it.
"""

from __future__ import annotations

from .catalog import FAMILIES


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
