"""Vector clocks and the race check on them.

Clocks are plain tuples of nonnegative integers, one entry per component
of the model, so they are immutable and hashable.
"""

from __future__ import annotations

VectorClock = tuple


def clock_bump(v: VectorClock, index: int) -> VectorClock:
    """Increment one entry by exactly 1."""
    return v[:index] + (v[index] + 1,) + v[index + 1 :]


def clock_max(v: VectorClock, w: VectorClock) -> VectorClock:
    """Pointwise maximum (receiver-side merge)."""
    return tuple(max(a, b) for a, b in zip(v, w))


def first_concurrent_pair(clocks) -> tuple | None:
    """Lexicographically smallest (i, j), i < j, with incomparable clocks.

    Precondition: the clocks were built by ``engine.successors`` from the
    all-zero root.  Every change to ``c[k]`` bumps ``c[k][k]``, and a merge
    passes a whole clock on, so ``c[a][k] <= c[k][k]`` and ``c[k] <= c[a]``
    pointwise exactly when ``c[a][k] == c[k][k]`` (Fidge 1988; Mattern
    1989).  So ``i`` and ``j`` race iff ``c[i][j] < c[j][j]`` and
    ``c[j][i] < c[i][i]``: two comparisons per pair, not two clock scans.
    """
    for i, ci in enumerate(clocks):
        own = ci[i]
        for j in range(i + 1, len(clocks)):
            cj = clocks[j]
            if ci[j] < cj[j] and cj[i] < own:
                return (i, j)
    return None
