from __future__ import annotations

from itertools import islice

import pytest

from qforge.formulas import (
    MinOrderResult,
    certified_minimal,
    min_order,
    min_order_runs,
    min_spine_size,
    order_lower_bound,
    spectrum,
)
from qforge.graph import betti, complete_graph

from _reference import bounds_agree, complete_spine_order, half_order_cap, spine_inequality


def test_min_spine_size_examples():
    assert min_spine_size(0) == 2
    assert min_spine_size(1) == 3
    assert min_spine_size(2) == 4
    assert min_spine_size(3) == 4
    assert min_spine_size(4) == 5
    assert min_spine_size(53) == 12
    with pytest.raises(ValueError):
        min_spine_size(-1)


def test_min_spine_size_is_smallest_sufficient_rank():
    """Independent route: the smallest p whose complete graph reaches the
    genus, checked through the graph module's cycle rank."""
    for genus in range(0, 400):
        p = min_spine_size(genus)
        assert betti(complete_graph(max(p, 2))) >= genus
        if p > 2:
            assert betti(complete_graph(p - 1)) < genus


def test_half_order_cap_examples():
    assert half_order_cap(1) == 2
    assert half_order_cap(3) == 4
    assert half_order_cap(4) == 4
    assert half_order_cap(53) == 12
    with pytest.raises(ValueError):
        half_order_cap(0)


def test_half_order_cap_is_largest_q():
    for genus in range(1, 400):
        q = half_order_cap(genus)
        assert (4 * q - 7) ** 2 <= 32 * genus - 15
        assert (4 * (q + 1) - 7) ** 2 > 32 * genus - 15


def test_bounds_agree_examples():
    assert bounds_agree(3)
    assert not bounds_agree(4)
    assert bounds_agree(53)
    assert bounds_agree(55)
    with pytest.raises(ValueError):
        bounds_agree(2)


def test_bounds_agree_matches_window_scan():
    """The two aux quantities meet exactly when some integer p satisfies
    both square comparisons at once."""
    for genus in range(3, 600):
        window = any(
            (2 * p - 3) ** 2 >= 8 * genus + 1 and (4 * p - 7) ** 2 <= 32 * genus - 15
            for p in range(2, 40)
        )
        assert bounds_agree(genus) == window


def test_bounds_agree_means_bounds_pinch():
    for genus in range(3, 2000):
        pinched = order_lower_bound(genus) == 2 * min_spine_size(genus)
        assert bounds_agree(genus) == pinched


def test_complete_spine_order_examples():
    assert complete_spine_order(3) == (8, 4)
    assert complete_spine_order(6) == (10, 5)
    assert complete_spine_order(55) == (24, 12)
    assert complete_spine_order(1) is None
    assert complete_spine_order(4) is None
    with pytest.raises(ValueError):
        complete_spine_order(0)


def test_order_lower_bound_examples():
    assert order_lower_bound(1) == 5
    assert order_lower_bound(2) == 7
    assert order_lower_bound(4) == 8
    assert order_lower_bound(53) == 24
    with pytest.raises(ValueError):
        order_lower_bound(0)


def test_order_lower_bound_is_smallest_n():
    for genus in range(1, 400):
        n = order_lower_bound(genus)
        assert (2 * n - 5) ** 2 >= 32 * genus - 7
        assert (2 * (n - 1) - 5) ** 2 < 32 * genus - 7


def test_certified_minimal():
    assert certified_minimal(4, 0) is True
    assert certified_minimal(12, 2) is True
    assert certified_minimal(7, 1) is None  # min_order(14) is [13, 14]
    assert certified_minimal(8, 1) is True
    assert certified_minimal(2, 0) is True  # the 4-cycle on the sphere
    assert certified_minimal(3, 0) is False  # the torus has minimum order 5
    with pytest.raises(ValueError):
        certified_minimal(4, 7)
    with pytest.raises(ValueError):
        certified_minimal(4, -1)


def test_min_order_result_minimal():
    exact = MinOrderResult(10, 10, "matched-bounds")
    assert [exact.minimal(n) for n in (9, 10, 12)] == [None, True, False]
    bracket = MinOrderResult(13, 14, "bounds")
    assert [bracket.minimal(n) for n in (12, 13, 14, 16)] == [None, None, None, False]


def test_minimal_rule_is_the_spine_inequality():
    # every spine K_p minus m edges with p < 100: yes exactly where the
    # inequality holds (and for the sphere's 4-cycle), and never unknown
    # where min_order is exact
    for p in range(2, 100):
        rank = (p - 1) * (p - 2) // 2
        for m in range(rank + 1):
            result = min_order(rank - m)
            flag = result.minimal(2 * p)
            assert (flag is True) == (spine_inequality(p, m) or (p, m) == (2, 0)), (p, m)
            assert flag is not None or result.kind == "bounds", (p, m)


def test_min_order_table_and_kinds():
    assert min_order(0) == MinOrderResult(4, 4, "small-genus-table")
    assert min_order(1).value == 5
    assert min_order(2).value == 7
    r3 = min_order(3)
    assert (r3.kind, r3.value, r3.source) == ("exact", 8, "complete-spine")
    r4 = min_order(4)
    assert (r4.kind, r4.lower, r4.upper, r4.source) == ("bounds", 8, 10, "bounds")
    assert min_order(53).value == 24
    assert min_order(53).source == "matched-bounds"
    assert min_order(55).value == 24
    assert min_order(55).source == "complete-spine"
    with pytest.raises(ValueError):
        min_order(-1)


def test_min_order_exact_parity():
    # Exact values from the general rules are even; only the torus and
    # double-torus table entries are odd.
    for genus in range(3, 3000):
        result = min_order(genus)
        if result.kind == "exact":
            assert result.value is not None and result.value % 2 == 0


def test_min_order_result_guards():
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        MinOrderResult(6, 5, "bounds")


def test_kind_and_value_are_read_from_the_interval():
    for _, _, result in min_order_runs(0, 20_000):
        closed = result.lower == result.upper
        assert (result.kind == "exact") == closed, result
        assert result.value == (result.upper if closed else None), result
    # a closed interval is the minimum order whatever rule closed it
    for source in ("small-genus-table", "complete-spine", "matched-bounds", "bounds"):
        closed = MinOrderResult(14, 14, source)
        assert [closed.minimal(n) for n in (13, 14, 16)] == [None, True, False], source


def _check_runs(first, last, near=None):
    """Check that min_order_runs tiles first..last with maximal runs of one
    answer.  Every genus is compared when near is None; otherwise only the
    genera within near of either end of a run, and its midpoint."""
    runs = []
    for start, stop, result in min_order_runs(first, last):
        # checked as they come, so a run that fails to advance cannot loop forever
        assert start == (runs[-1][1] + 1 if runs else first)
        assert start <= stop <= last and result == min_order(start)
        runs.append((start, stop, result))
        if near is None:
            genera = range(start, stop + 1)
        else:
            genera = {*range(start, min(start + near, stop) + 1), (start + stop) // 2}
            genera |= set(range(max(stop - near, start), stop + 1))
        for g in genera:
            assert min_order(g) == result, g
        if stop != last:
            assert min_order(stop + 1) != result, stop
    assert runs[-1][1] == last
    return runs


def test_min_order_runs_small_genera():
    runs = [(start, stop) for start, stop, _ in islice(min_order_runs(0, 20), 17)]
    assert runs == [
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 9),
        (10, 10), (11, 11), (12, 14), (15, 15), (16, 16), (17, 19), (20, 20),
    ]  # fmt: skip


def test_min_order_runs_cover_every_genus_to_20000():
    assert len(_check_runs(0, 20_000)) > 400


@pytest.mark.parametrize("first", [10**6, 10**12, 10**30])
def test_min_order_runs_at_large_genus(first):
    # every genus of a 2000-genus window, then a window of 4n genera, where n
    # is the lower bound, checked near each of its run boundaries: the lower
    # bound grows every n/4 genera or so and the spine size every n/2
    _check_runs(first, first + 2_000)
    runs = _check_runs(first + 7, first + 7 + 4 * order_lower_bound(first), near=50)
    assert len(runs) > 20


def _large_genus_sample(first, near=50):
    """The genera test_min_order_runs_at_large_genus checks: all of a
    2000-genus window, then those within `near` of each run boundary of a
    window of 4n genera, and each run's middle."""
    genera = set(range(first, first + 2_001))
    window = (first + 7, first + 7 + 4 * order_lower_bound(first))
    for start, stop, _ in min_order_runs(*window):
        genera.update(range(start, min(start + near, stop) + 1), [(start + stop) // 2])
        genera.update(range(max(stop - near, start), stop + 1))
    return sorted(genera)


@pytest.mark.parametrize("first", [3, 10**6, 10**12, 10**30])
def test_min_order_matches_the_public_exactness_rules(first):
    # min_order decides exactness and source on its own; the closed forms
    # in _reference are the independent references it must agree with
    kinds = set()
    for g in _large_genus_sample(first):
        result = min_order(g)
        assert (result.kind == "exact") == bounds_agree(g), g
        spine = complete_spine_order(g)
        assert (result.source == "complete-spine") == (spine is not None), g
        if spine is not None:
            assert result.value == spine[0]
        kinds.add(result.source)
    assert kinds == {"complete-spine", "matched-bounds", "bounds"}


def test_min_order_runs_edge_cases():
    assert list(islice(min_order_runs(9, 9), 2)) == [(9, 9, min_order(9))]
    assert list(islice(min_order_runs(13, 13), 2)) == [(13, 13, min_order(13))]  # in 12..14
    assert list(islice(min_order_runs(5, 4), 1)) == []
    with pytest.raises(ValueError):
        next(min_order_runs(-1, 5))


def test_spectrum():
    assert list(spectrum(0, 5)) == [4, 6, 8, 10]
    assert list(spectrum(5, 10)) == [10, 12, 14, 16, 18, 20]
    assert list(spectrum(55, 12)) == [24]
    assert list(spectrum(56, 12)) == []
    assert spectrum(0, 10**30)[-1] == 2 * 10**30  # the orders are never listed
    with pytest.raises(ValueError):
        spectrum(1, 1)


def test_spinal_min_order_examples():
    """The minimum order over spinal quadrangulations of a genus is the
    first order of its spectrum."""
    assert spectrum(0, 40)[0] == 4
    assert spectrum(1, 40)[0] == 6
    assert spectrum(2, 40)[0] == 8
    assert spectrum(53, 40)[0] == 24
    with pytest.raises(ValueError):
        spectrum(-1, 40)


def test_spectrum_minimum_is_twice_min_spine_size():
    for genus in range(0, 80):
        orders = spectrum(genus, 40)
        assert orders
        assert orders[0] == 2 * min_spine_size(genus)
