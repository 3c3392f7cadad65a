"""Exact integer arithmetic for minimum quadrangulation orders.

Every ceiling or floor of a square-root expression is evaluated through
integer-square comparisons; no floating point is used anywhere in this
module, so results stay exact for arbitrarily large genus.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from .graph import _Value

__all__ = [
    "MinOrderResult",
    "min_spine_size",
    "order_lower_bound",
    "certified_minimal",
    "min_order",
    "min_order_runs",
    "spectrum",
]

# Minimum quadrangulation orders for the sphere, torus, and double torus.
# These three are settled directly; the general machinery starts at genus 3.
_SMALL_GENUS_MIN_ORDER = {0: 4, 1: 5, 2: 7}


class MinOrderResult(_Value):
    """Minimum order of a quadrangulation of a closed orientable surface, as
    the proven interval lower..upper: exact where the interval is closed.

    ``source`` names the rule that settled the interval:
    "small-genus-table", "complete-spine", "matched-bounds", or "bounds".
    """

    __slots__ = _fields = ("lower", "upper", "source")
    lower: int
    upper: int
    source: str

    def __init__(self, lower: int, upper: int, source: str) -> None:
        if lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "source", source)

    @property
    def kind(self) -> str:
        """Either "exact", where the interval is closed, or "bounds"."""
        return "exact" if self.lower == self.upper else "bounds"

    @property
    def value(self) -> int | None:
        """The minimum order where the interval is closed, else None."""
        return self.upper if self.lower == self.upper else None

    def minimal(self, order: int) -> bool | None:
        """Whether a quadrangulation of this order has the minimum order:
        True where the interval is closed at it, False where a smaller order
        is proven possible, None where the interval leaves it open."""
        if self.upper < order:
            return False
        return True if self.lower == order == self.upper else None


def _ceil_sqrt(n: int) -> int:
    """Smallest s with s*s >= n, for n >= 0."""
    s = isqrt(n)
    return s if s * s == n else s + 1


def min_spine_size(genus: int) -> int:
    """Smallest p >= 2 whose complete graph has cycle rank at least g.

    Equivalently the least p with (p-1)(p-2)/2 >= genus, found as the least
    p with (2p-3)^2 >= 8*genus+1.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    s = _ceil_sqrt(8 * genus + 1)
    return max((s + 4) // 2, 2)


def order_lower_bound(genus: int) -> int:
    """Smallest n with (2n-5)^2 >= 32*genus-7.

    No genus-g quadrangulation can have fewer vertices: the forced edge
    count 2(n-2+2g) would exceed what a simple graph on n vertices holds.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1; genus 0 is table-driven")
    s = _ceil_sqrt(32 * genus - 7)
    return (s + 6) // 2


def certified_minimal(p: int, m: int) -> bool | None:
    """Whether the spinal quadrangulation whose spine is K_p minus m edges
    has the minimum order for its genus C(p-1, 2) - m: min_order's answer
    for the order 2p, with None where min_order only brackets it."""
    if p < 2:
        raise ValueError("spine needs at least 2 vertices")
    rank = (p - 1) * (p - 2) // 2
    if not 0 <= m <= rank:
        raise ValueError(f"m must be in 0..{rank} for a {p}-vertex spine")
    return min_order(rank - m).minimal(2 * p)


def _classify(genus: int) -> tuple[MinOrderResult, int]:
    """min_order(genus), and the last genus of the run of genera sharing
    that answer.

    Past genus 2 the answer is the interval from the lower bound n to the
    spinal order 2p, p = min_spine_size(g): exact where n == 2p, and then
    from a complete spine when g is C(p-1, 2).  So it depends only on n, p
    and whether g is that complete-spine genus: a run ends before that
    genus, or where n grows, at the last genus with (2n-5)^2 >= 32g-7.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if genus <= 2:
        order = _SMALL_GENUS_MIN_ORDER[genus]
        return MinOrderResult(order, order, "small-genus-table"), genus
    p = min_spine_size(genus)
    n = order_lower_bound(genus)
    complete = (p - 1) * (p - 2) // 2
    if n < 2 * p:
        source = "bounds"
    else:
        source = "complete-spine" if genus == complete else "matched-bounds"
    result = MinOrderResult(n, 2 * p, source)
    if genus == complete:
        return result, genus
    return result, min(complete - 1, ((2 * n - 5) ** 2 + 7) // 32)


def min_order(genus: int) -> MinOrderResult:
    """Minimum order of a quadrangulation of the genus-g orientable surface.

    Known exactly for genus 0..2, and for any genus where the lower and
    spinal upper bounds meet (in particular whenever a complete spine fits
    the genus exactly); otherwise the two proven bounds are returned
    unresolved, never a guess.
    """
    return _classify(genus)[0]


def min_order_runs(first: int, last: int) -> Iterator[tuple[int, int, MinOrderResult]]:
    """Maximal runs of genera in first..last that share one minimum-order
    answer, ascending: (start, stop, min_order(start)) for each.

    Every genus g in start..stop has min_order(g) equal to the run's result,
    and neighbouring runs differ.  Yields nothing when last < first.
    """
    start = first
    while start <= last:
        result, stop = _classify(start)
        stop = min(stop, last)
        yield start, stop, result
        start = stop + 1


def spectrum(genus: int, p_max: int) -> range:
    """All orders 2p with 2 <= p <= p_max realizable by a spinal
    quadrangulation of genus g, ascending, as a range: its size does not
    grow with p_max."""
    smallest = min_spine_size(genus)  # rejects a negative genus
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    return range(2 * smallest, 2 * p_max + 1, 2)
