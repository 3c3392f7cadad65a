from __future__ import annotations

import hashlib
import inspect
import random
import sys
import time
import tracemalloc
from itertools import combinations, islice, permutations, product
from types import SimpleNamespace

import pytest

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped without hypothesis
    given = None

from qforge import cli, oracle
from qforge.embedding import RotationSystem, embedding_to_document, validate_quadrangulation
from qforge.formulas import order_lower_bound
from qforge.graph import Graph, _connected, canonical_json, is_connected
from qforge.oracle import (
    BudgetExhausted,
    SearchBudget,
    _candidate_graphs,
    _corners_linked,
    _FaceAssembler,
    _Ticker,
    min_order_bruteforce,
    quad_edge_count,
    search_quadrangulation,
)
from qforge.spinal import build_instance

from _reference import rotation_options


# ============================================================
# Mini oracle: a from-scratch cross-check for tiny orders
# ============================================================
#
# Enumerates every connected labeled graph on n vertices with the forced
# edge count, then every rotation system (one representative per cyclic
# order: the first entry is pinned to the smallest neighbor), traces faces
# with its own walker, and accepts only all-quad embeddings of the right
# genus.  Shares no search code with the package, so agreement is evidence.


def _mini_connected(n, edges):
    if n == 0:
        return True
    adj = {v: [] for v in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _mini_rotations(adjacency):
    per_vertex = []
    for neighbors in adjacency:
        if not neighbors:
            per_vertex.append([()])
            continue
        first, rest = neighbors[0], neighbors[1:]
        per_vertex.append([(first,) + tail for tail in permutations(rest)])
    return product(*per_vertex)


def _mini_faces(rotations):
    succ = {}
    for v, rot in enumerate(rotations):
        for i, u in enumerate(rot):
            succ[v, u] = rot[(i + 1) % len(rot)]
    darts = sorted(succ)
    seen = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            seen.add(dart)
            dart = (dart[1], succ[dart[1], dart[0]])
            if dart == start:
                break
        faces.append(walk)
    return faces


def _mini_exists(n, genus):
    target = 2 * (n - 2 + 2 * genus)
    pairs = list(combinations(range(n), 2))
    if target < n - 1 or target > len(pairs):
        return False
    for edges in combinations(pairs, target):
        if not _mini_connected(n, edges):
            continue
        adjacency = [[] for _ in range(n)]
        for i, j in edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        for rotations in _mini_rotations(adjacency):
            faces = _mini_faces(rotations)
            good = all(
                len(walk) == 4
                and len({d[0] for d in walk}) == 4
                and len({frozenset(d) for d in walk}) == 4
                for walk in faces
            )
            if not good:
                continue
            chi = n - target + len(faces)
            if chi % 2 == 0 and (2 - chi) // 2 == genus:
                return True
    return False


def _masks(graph):
    """The neighbour masks the oracle's internals take: bit w of entry v is the edge vw."""
    nmask = [0] * graph.vertex_count
    for u, w in graph.edges:
        nmask[u] |= 1 << w
        nmask[w] |= 1 << u
    return nmask


def _matrix(nmask):
    """The neighbour masks packed into one integer, row v at bits v*n .. v*n + n - 1."""
    return sum(near << v * len(nmask) for v, near in enumerate(nmask))


def _assemble(nmask, ticker):
    """A face assembler on a graph, whether or not it passes the corner-link
    test.  Its None proves nothing unless the graph is labelled as
    ``_candidate_graphs`` lists it: the rotation at the anchor is fixed."""
    return _FaceAssembler(nmask, ticker, _matrix(nmask))


def _edges(nmask):
    return frozenset((u, w) for u, w in combinations(range(len(nmask)), 2) if nmask[u] >> w & 1)


def test_mini_oracle_agrees_with_search():
    for n in range(3, 6):
        for genus in range(0, 5):
            found = search_quadrangulation(n, genus) is not None
            assert found == _mini_exists(n, genus), (n, genus)


def test_mini_oracle_small_genus_spectrum():
    assert {g for g in range(5) if _mini_exists(3, g)} == set()
    assert {g for g in range(5) if _mini_exists(4, g)} == {0}
    assert {g for g in range(5) if _mini_exists(5, g)} == {0, 1}


# ============================================================
# Reference enumerator: every combination of missing edges, then filters
# ============================================================
#
# The generate-and-filter enumerator that _candidate_graphs replaced.  It
# lists all combinations and only then applies the degree test, so it is
# slow but obviously complete, and it keeps every labelling; _candidate_graphs
# lists only those that obey its labelling rule.  Neither tests connectivity:
# the search reads that off an assembled witness, so a caller that needs
# connected graphs filters with _mini_connected.


def _reference_candidates(n, edge_target, min_degree):
    pairs = list(combinations(range(n), 2))
    for removed in combinations(range(len(pairs)), len(pairs) - edge_target):
        deficit = [0] * n
        for k in removed:
            i, j = pairs[k]
            deficit[i] += 1
            deficit[j] += 1
        if any(n - 1 - d < min_degree for d in deficit):
            continue
        yield frozenset(pairs[k] for k in range(len(pairs)) if k not in removed)


def _connected_reference_candidates(n, edge_target, min_degree):
    for edges in _reference_candidates(n, edge_target, min_degree):
        if _mini_connected(n, edges):
            yield edges


def _anchor_canonical(n, edges):
    """The labelling rule: vertex n - 1 has the largest degree d and is
    adjacent to exactly 0..d-1 (vacuous on the empty graph)."""
    if not n:
        return True
    degree = [0] * n
    for u, w in edges:
        degree[u] += 1
        degree[w] += 1
    d = degree[-1]
    near = {u for u, w in edges if w == n - 1}
    return max(degree) == d and near == set(range(d))


def test_candidate_graphs_match_reference_enumerator():
    for n in range(7):
        for edge_target in range(n * (n - 1) // 2 + 1):
            for min_degree in (2, 3):
                ticker = _Ticker(SearchBudget())
                pruned = [_edges(m) for m in _candidate_graphs(n, edge_target, min_degree, ticker)]
                reference = _reference_candidates(n, edge_target, min_degree)
                expected = [edges for edges in reference if _anchor_canonical(n, edges)]
                assert pruned == expected, (n, edge_target, min_degree)
                assert ticker.nodes == 0  # the pairs considered are not search nodes


def _relabelled_at_anchor(graph, rotations):
    """The relabelling of the soundness argument: a largest-degree vertex x
    becomes n - 1, its neighbours 0..d-1 in rotation order, and the other
    vertices d..n-2 in ascending order.  Returns the graph and rotations."""
    n = graph.vertex_count
    x = max(range(n), key=lambda v: len(rotations[v]))
    ring = rotations[x]
    order = list(ring) + [v for v in range(n) if v != x and v not in ring] + [x]
    label = {v: i for i, v in enumerate(order)}
    edges = frozenset(tuple(sorted((label[u], label[w]))) for u, w in graph.edges)
    relabelled = [None] * n
    for v, rotation in enumerate(rotations):
        relabelled[label[v]] = tuple(label[u] for u in rotation)
    return Graph(n, edges), tuple(relabelled)


def test_anchor_canonical_candidates_lose_no_quadrangulation():
    # every order up to 7 and every genus whose edge count fits, and order 8
    # at genus 1: the search answers None exactly when the assembler embeds
    # no connected graph the reference enumerator lists, every labelling
    # included.
    # Order 8 is sliced to the first 1,691 reference graphs (which include
    # the first that embeds); its reference at genus 0 is slow to start.
    searches = [(n, genus, None) for n in range(4, 8) for genus in range(3)] + [(8, 1, 1691)]
    for n, genus, count in searches:
        edge_target = quad_edge_count(n, genus)
        if edge_target is None:
            continue
        min_degree = 2 if genus == 0 else 3
        reference = islice(_connected_reference_candidates(n, edge_target, min_degree), count)
        ticker = _Ticker(SearchBudget())
        embeds = any(
            _assemble(_masks(Graph(n, edges)), ticker).search() is not None
            for edges in reference
        )
        assert (search_quadrangulation(n, genus) is None) == (not embeds), (n, genus)
    # the argument itself, graph by graph: every labelled graph up to order 6
    # and at order 7, genus 2 that the assembler embeds, relabelled at a
    # largest-degree vertex, is a listed candidate that the assembler embeds
    # with the relabelled rotation at its anchor
    embedded = 0
    for n, genus in ((4, 0), (5, 0), (5, 1), (6, 0), (6, 1), (7, 2)):
        edge_target = quad_edge_count(n, genus)
        min_degree = 2 if genus == 0 else 3
        ticker = _Ticker(SearchBudget())
        listed = {_edges(m) for m in _candidate_graphs(n, edge_target, min_degree, ticker)}
        for edges in _connected_reference_candidates(n, edge_target, min_degree):
            graph = Graph(n, edges)
            rotations = _assemble(_masks(graph), ticker).search()
            if rotations is None:
                continue
            embedded += 1
            canonical, relabelled = _relabelled_at_anchor(graph, rotations)
            system = RotationSystem(relabelled)
            assert system.graph == canonical
            assert validate_quadrangulation(system).genus == genus
            assert canonical.edges in listed, (n, genus, sorted(edges))
            assert relabelled[-1] == tuple(range(len(relabelled[-1])))
            found = _assemble(_masks(canonical), ticker).search()
            assert found is not None, (n, genus, sorted(canonical.edges))
    assert embedded == 3 + 10 + 1 + 105 + 40 + 54


class _ClockCount:
    """A ticker stub that counts the enumerator's clock readings."""

    def __init__(self) -> None:
        self.readings = 0

    def clock(self) -> None:
        self.readings += 1


def test_candidate_enumeration_obeys_time_cap():
    # 14 edges cannot give 12 vertices degree 3, so nothing is ever yielded and
    # only the clock the enumerator reads between pairs can stop the search
    ticker = _Ticker(SearchBudget(time_cap=1e-9))
    with pytest.raises(BudgetExhausted, match="time cap"):
        for _ in _candidate_graphs(12, 14, 3, ticker):
            pass
    assert ticker.nodes == 0
    # the clock is read at every 4096th pair considered: these full listings
    # consider 18,363 and 27,394 pairs
    for edge_target, readings in ((11, 4), (12, 6)):
        counter = _ClockCount()
        for _ in _candidate_graphs(7, edge_target, 3, counter):
            pass
        assert counter.readings == readings, edge_target


def test_candidate_enumeration_meets_its_budget_before_listing_every_pair():
    # order 2000 has about two million vertex pairs; the first budget check
    # must come before anything proportional to them is allocated
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(BudgetExhausted, match="time cap"):
            search_quadrangulation(2000, 3, SearchBudget(time_cap=0.01))
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 5 * 2**20


def test_enumeration_far_above_the_minimum_order_reads_no_adjacency_lists():
    # order 600 at genus 44,028 misses 2,392 edges of K_600, enough to cut
    # off a part of minimum degree 3; the first candidate goes straight to
    # the corner-link test, which reads the clock, and is not first turned
    # into adjacency lists of its 177,308 edges to prove it connected
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(BudgetExhausted, match="time cap"):
            search_quadrangulation(600, 44028, SearchBudget(time_cap=0.2))
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 4 * 2**20


class _StepLimit:
    """A ticker stub that ends the budget at the first clock reading after
    a given number of pairs considered (one reading per 4096 pairs), so a
    test can run the enumerator for a set amount of work without a clock."""

    def __init__(self, steps: int) -> None:
        self.left = steps // 4096

    def clock(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExhausted("step limit reached")


def test_candidate_enumeration_memory_grows_with_steps_not_order():
    # far above the minimum order nearly every pair considered is dropped, so
    # the dropped pairs must be stored compactly; and the per-vertex spare
    # counts must not be allocated for all n vertices up front
    for n, steps, limit in ((20_000, 200_000, 5 * 2**20), (10**7, 100_000, 8 * 2**20)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExhausted, match="step limit"):
                next(_candidate_graphs(n, quad_edge_count(n, 3), 3, _StepLimit(steps)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (n, steps, peak)


def test_candidate_enumeration_depth_is_not_bounded_by_recursion_limit():
    # order 50 on the sphere misses 1129 of the 1225 edges of K_50; an
    # enumerator recursing per missing edge needs more than the 100 frames left
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        ticker = _Ticker(SearchBudget())
        first = next(_candidate_graphs(50, quad_edge_count(50, 0), 2, ticker))
    finally:
        sys.setrecursionlimit(limit)
    degrees = [near.bit_count() for near in first]
    assert (len(first), sum(degrees) // 2) == (50, 96)
    assert min(degrees) >= 2
    assert ticker.nodes == 0


# ============================================================
# Reference assembler: the first open dart in ascending order
# ============================================================
#
# The face assembler before most-constrained-first branching: it always
# extends the lexicographically first dart not yet in a face and tests each
# successor assignment by walking the partial rotation.  Branching order
# changes which witness is found, never whether one exists.


class _ReferenceAssembler:
    def __init__(self, graph):
        n = self.n = graph.vertex_count
        adjacency = self.adjacency = graph.adjacency()
        self.neighbor_sets = [set(row) for row in adjacency]
        self.degree = [len(row) for row in adjacency]
        self.succ = [{} for _ in range(n)]
        self.pred = [{} for _ in range(n)]
        self.used = set()
        self.darts = [(u, v) for u in range(n) for v in adjacency[u]]
        anchor = min(range(n), key=lambda v: (-self.degree[v], -v))  # the last of largest degree
        ring = adjacency[anchor]
        for i, u in enumerate(ring):
            self._assign(anchor, u, ring[(i + 1) % len(ring)])

    def _can_assign(self, v, u, w):
        if u in self.succ[v] or w in self.pred[v]:
            return False
        if len(self.succ[v]) + 1 == self.degree[v]:
            return True  # completing the rotation closes its cycle
        x = w
        while x is not None:
            if x == u:
                return False  # would close a cycle that misses a neighbor
            x = self.succ[v].get(x)
        return True

    def _assign(self, v, u, w):
        self.succ[v][u] = w
        self.pred[v][w] = u

    def _unassign(self, v, u):
        del self.pred[v][self.succ[v].pop(u)]

    def search(self):
        if not self._extend():
            return None
        rotations = []
        for v in range(self.n):
            out = [self.adjacency[v][0]]
            while len(out) < self.degree[v]:
                out.append(self.succ[v][out[-1]])
            rotations.append(tuple(out))
        return tuple(rotations)

    def _corner_options(self, at, from_vertex, forbidden):
        forced = self.succ[at].get(from_vertex)
        if forced is not None:
            if forced not in forbidden:
                yield forced
            return
        for w in self.adjacency[at]:
            if w not in forbidden and self._can_assign(at, from_vertex, w):
                yield w

    def _extend(self):
        dart = next((d for d in self.darts if d not in self.used), None)
        if dart is None:
            return True
        a, b = dart
        for c in self._corner_options(b, a, forbidden=(a, b)):
            for d in self._corner_options(c, b, forbidden=(a, b, c)):
                if a in self.neighbor_sets[d] and self._try_face(a, b, c, d):
                    return True
        return False

    def _try_face(self, a, b, c, d):
        newly = []
        for v, u, w in ((b, a, c), (c, b, d), (d, c, a), (a, d, b)):
            current = self.succ[v].get(u)
            if current is None and self._can_assign(v, u, w):
                self._assign(v, u, w)
                newly.append((v, u))
            elif current != w:
                break
        else:
            face_darts = ((a, b), (b, c), (c, d), (d, a))
            self.used.update(face_darts)
            if self._extend():
                return True
            self.used.difference_update(face_darts)
        for v, u in reversed(newly):
            self._unassign(v, u)
        return False


def test_assembler_verdicts_match_reference_on_graph_atlas():
    nx = pytest.importorskip("networkx")
    verdicts, rejected = [], 0
    for small in nx.graph_atlas_g():
        n, m = small.number_of_nodes(), small.number_of_edges()
        if not 4 <= n <= 7 or m % 2 or min(d for _, d in small.degree()) < 2:
            continue
        if not nx.is_connected(small):
            continue
        graph = Graph(n, frozenset(tuple(sorted(e)) for e in small.edges()))
        # the verdicts match on the atlas's own labellings; a relabelling
        # the enumerator would not list may lose a quadrangulation
        found = _assemble(_masks(graph), _Ticker(SearchBudget())).search()
        reference = _ReferenceAssembler(graph).search()
        assert (found is None) == (reference is None), sorted(graph.edges)
        # the corner-link test never rejects a graph that quadrangulates
        if _corners_linked(_masks(graph), _Ticker(SearchBudget())) is None:
            assert reference is None, sorted(graph.edges)
            rejected += 1
        for rotations in (found, reference):
            if rotations is not None:
                system = RotationSystem(rotations)
                assert system.graph == graph
                assert validate_quadrangulation(system).is_quadrangulation
        verdicts.append(found is not None)
    assert (verdicts.count(True), verdicts.count(False)) == (10, 281)
    assert rejected == 177  # of the 281 that do not quadrangulate


def _reference_corners_linked(nmask):
    """The corner-link test pair by pair: every neighbour u of every vertex
    v has min(2, deg v - 1) other neighbours w of v with two common
    neighbours."""
    n = len(nmask)
    neighbours = [[w for w in range(n) if near >> w & 1] for near in nmask]
    for v, around in enumerate(neighbours):
        for u in around:
            partners = [w for w in around if w != u and (nmask[u] & nmask[w]).bit_count() >= 2]
            if len(partners) < min(2, len(around) - 1):
                return False
    return True


def test_corner_link_test_matches_the_pairwise_reference():
    rng = random.Random(1717)
    ticker = _Ticker(SearchBudget())
    for _ in range(3000):
        n = rng.randint(0, 13)
        density = rng.random()
        edges = [(u, w) for u, w in combinations(range(n), 2) if rng.random() < density]
        nmask = _masks(Graph(n, frozenset(edges)))
        linked = _corners_linked(nmask, ticker)
        assert (linked is not None) == _reference_corners_linked(nmask), (n, edges)
        # a graph that passes comes with its packed adjacency matrix
        assert linked in (None, _matrix(nmask)), (n, edges)
    for n, genus in ((6, 0), (8, 1), (9, 3)):
        candidates = _candidate_graphs(n, quad_edge_count(n, genus), 3 if genus else 2, ticker)
        for nmask in islice(candidates, 500):
            expected = _reference_corners_linked(nmask)
            assert (_corners_linked(nmask, ticker) is not None) == expected, (n, genus, nmask)


def test_corner_link_rejections_are_sound_at_small_orders():
    # every labelled graph of every search up to order 6, with the minimum
    # degree the search uses, and the first 1,691 labelled graphs of order 8,
    # genus 1: no graph the test rejects has a quadrangulation.  The graphs
    # come from the reference enumerator, which keeps every labelling.
    searches = [(n, genus, None) for n in range(4, 7) for genus in range(3)] + [(8, 1, 1691)]
    rejected = 0
    for n, genus, count in searches:
        edge_target = quad_edge_count(n, genus)
        if edge_target is None:
            continue
        ticker = _Ticker(SearchBudget())
        candidates = _reference_candidates(n, edge_target, 2 if genus == 0 else 3)
        for edges in islice(candidates, count):
            nmask = _masks(Graph(n, edges))
            if _corners_linked(nmask, ticker) is None:
                assert _assemble(nmask, ticker).search() is None, sorted(_edges(nmask))
                rejected += 1
    assert rejected == 2775 + 1125


def test_order_8_genus_1_lists_only_anchor_canonical_candidates(monkeypatch):
    # listing every labelling, the search took 1,691 candidates and 2,940
    # nodes to its first witness
    # (README: the corner-link test removes 299 of the 542 candidates)
    listed, rejected = [], []
    enumerate_all, link = oracle._candidate_graphs, oracle._corners_linked

    def counted(*args):
        for nmask in enumerate_all(*args):
            listed.append(nmask)
            yield nmask

    def linked(nmask, ticker):
        matrix = link(nmask, ticker)
        if matrix is None:
            rejected.append(nmask)
        return matrix

    monkeypatch.setattr(oracle, "_candidate_graphs", counted)
    monkeypatch.setattr(oracle, "_corners_linked", linked)
    ticker = _Ticker(SearchBudget())
    assert oracle._search(8, 1, ticker) is not None
    assert (len(listed), len(rejected), ticker.nodes) == (542, 299, 1073)


def test_known_quadrangulations_pass_the_corner_link_test():
    graphs = [_k44()]
    graphs += [build_instance(p, m).embedding.graph for p, m in ((4, 0), (6, 0), (8, 2), (12, 0))]
    graphs += [min_order_bruteforce(genus).witness.graph for genus in range(3)]
    graphs += [search_quadrangulation(n, genus).graph for n, genus, _ in SEARCH_GOLDENS[:8]]
    ticker = _Ticker(SearchBudget())
    for graph in graphs:
        assert _corners_linked(_masks(graph), ticker) is not None, sorted(graph.edges)


# ============================================================
# Branching rule: local to the face placed last
# ============================================================


def _k44():
    return Graph(8, frozenset((i, j) for i in range(4) for j in range(4, 8)))


def _completions(assembler, a, b):
    """Every (c, d) closing a face (a, b, c, d) now, in the order the
    assembler tries them: ascending c, then ascending d."""
    n, near_a = assembler.n, assembler.nmask[a]
    return [
        (c, d)
        for c in range(n)
        if assembler._options(b, a) >> c & 1
        for d in range(n)
        if (assembler._options(c, b) & near_a) >> d & 1
    ]


def _first_most_constrained(assembler, darts):
    """The scan's choice among darts in ascending order: the first with at
    most one completion, else the first with the fewest."""
    best, fewest = None, None
    for dart in darts:
        k = len(_completions(assembler, *dart))
        if k <= 1:
            return dart
        if fewest is None or k < fewest:
            best, fewest = dart, k
    return best


def _packed_options(assembler, x):
    """The options of every corner at x from the assembler's packed tables:
    column c holds options(c, x), as the rows d with bit d*n + c set."""
    n = assembler.n
    column = sum(1 << v * n for v in range(n))
    own_row = ((1 << n) - 1) << x * n
    loose = assembler.ft & assembler.rk[x] & assembler.uf[x] * column & ~own_row
    return loose | assembler.fb[x]


def _packed_column(packed, c, n):
    """Column c of an n x n matrix packed into one integer, as an n-bit mask of rows."""
    return sum(1 << d for d in range(n) if packed >> d * n + c & 1)


def _packed_count(assembler, a, b):
    """k(a, b) from the packed tables: the bits of the options at b in the
    columns options(b, a) and the rows N(a)."""
    n = assembler.n
    column = sum(1 << v * n for v in range(n))
    rows = sum(((1 << n) - 1) << d * n for d in range(n) if assembler.nmask[a] >> d & 1)
    return (_packed_options(assembler, b) & assembler._options(b, a) * column & rows).bit_count()


class _BranchSpy(_FaceAssembler):
    """Checks every branching dart against the rule, and every open dart's
    packed count against its completions, tracking placed faces; ``forced``
    counts the checked darts (a, b) whose successor at b is already set."""

    def __init__(self, nmask, ticker):
        super().__init__(nmask, ticker, _matrix(nmask))
        self.faces, self.local_differs, self.scored, self.forced = [], 0, 0, 0

    def _toggle_face(self, a, b, c, d):
        super()._toggle_face(a, b, c, d)
        if self.open[a] >> b & 1:
            self.faces.remove((a, b, c, d))
        else:
            self.faces.append((a, b, c, d))

    def _most_constrained(self, *args):
        dart = super()._most_constrained(*args)
        darts = [(a, b) for a in range(self.n) for b in range(self.n) if self.open[a] >> b & 1]
        corners = set(self.faces[-1]) if self.faces else set(range(self.n))
        local = [(a, b) for a, b in darts if a in corners or b in corners]
        expected = _first_most_constrained(self, local or darts)
        assert dart == expected, (self.faces, dart, expected)
        self.local_differs += expected != _first_most_constrained(self, darts)
        for a, b in darts:
            assert _packed_count(self, a, b) == len(_completions(self, a, b)), (self.faces, a, b)
            self.forced += self.rule[b][a] >= 0
        self.scored += len(darts)
        return dart


def test_assembler_branches_at_the_face_placed_last():
    # K_{4,4} quadrangulates the torus; at one step of its search the
    # fewest-completion dart over all open darts is away from the last face
    spy = _BranchSpy(_masks(_k44()), _Ticker(SearchBudget()))
    rotations = spy.search()
    system = RotationSystem(rotations)
    assert system.graph == _k44()
    assert validate_quadrangulation(system).genus == 1
    assert spy.local_differs == 1
    assert spy.scored > 0
    # the darts into the anchor have their successor set from the start
    assert spy.forced > 0


if given is not None:

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_packed_counts_match_completions_on_listed_candidates(data):
        # any candidate the enumerator lists, whether or not it quadrangulates:
        # at every step of its search each open dart's packed count is its
        # number of completions, and the scan takes the dart the rule names
        n = data.draw(st.integers(6, 12), label="n")
        top = (n * (n - 1) // 4 - n + 2) // 2  # the largest genus whose edges fit
        genus = data.draw(st.integers(1, top), label="genus")
        skip = data.draw(st.integers(0, 20), label="skip")
        candidates = _candidate_graphs(n, quad_edge_count(n, genus), 3, _Ticker(SearchBudget()))
        nmask = None
        for nmask in islice(candidates, skip + 1):
            pass
        assume(nmask is not None)
        spy = _BranchSpy(nmask, _Ticker(SearchBudget(max_nodes=40)))
        try:
            spy.search()
        except BudgetExhausted:
            pass
        assert spy.scored > 0


def test_assembler_falls_back_to_the_full_scan_when_the_last_face_is_closed():
    assembler = _assemble(_masks(_k44()), _Ticker(SearchBudget()))
    # a frame for the dart (0, 4) before its first face: [a, b, options c
    # left, options d left for c, c, d of the face placed or -1, assignments]
    frame = [0, 4, assembler._options(4, 0), 0, -1, -1, []]
    assert assembler._advance(frame)
    c, d = frame[4:6]
    corners = 1 << 0 | 1 << 4 | 1 << c | 1 << d
    # mark every dart out of or into a corner as used
    for v in range(assembler.n):
        assembler.open[v] &= 0 if corners >> v & 1 else ~corners
    full = assembler._most_constrained()
    assert full is not None
    assert not corners >> full[0] & 1 and not corners >> full[1] & 1
    assert assembler._most_constrained(corners) == full


# Graphs on which the search finishes with no witness after placing faces:
# K_4, and one labelling of each of the three 6-vertex, 12-edge graphs of
# minimum degree 3 that pass the corner-link test but do not quadrangulate.
_DEAD_ENDS = [
    "01 02 03 12 13 23",
    "01 02 03 04 05 12 13 14 15 23 24 25",
    "03 04 05 12 14 15 23 24 25 34 35 45",
    "03 04 05 12 13 14 15 23 24 25 35 45",
]


def _dead_end_masks():
    graphs = [[(int(edge[0]), int(edge[1])) for edge in edges.split()] for edges in _DEAD_ENDS]
    return [_masks(Graph(1 + max(w for _, w in edges), frozenset(edges))) for edges in graphs]


def test_assembler_takes_back_every_face_of_a_finished_search():
    for nmask in _dead_end_masks():
        ticker = _Ticker(SearchBudget())
        assembler = _assemble(nmask, ticker)
        assert assembler.search() is None
        assert ticker.nodes > 0  # at least one completion was tried
        fresh = _assemble(nmask, _Ticker(SearchBudget()))
        # the maintained rule and path-end tables, the free predecessors, the
        # open darts and the packed options all return to their state before
        # the first face
        for table in ("rule", "ends", "free", "open", "ft", "rk", "fb", "uf", "pf"):
            assert getattr(assembler, table) == getattr(fresh, table), (table, nmask)


class _OptionsSpy(_FaceAssembler):
    """After every search step, checks each corner's options, and their
    packed columns, against the reference recomputed by a predecessor walk
    over the successors that the anchor's fixed ring and the placed faces
    set."""

    def __init__(self, nmask, ticker):
        super().__init__(nmask, ticker, _matrix(nmask))
        self.faces, self.checks = [], 0
        # the anchor is the last vertex of largest degree, its ring ascending
        anchor = max(reversed(range(self.n)), key=lambda v: nmask[v].bit_count())
        ring = [u for u in range(self.n) if nmask[anchor] >> u & 1]
        self.ring = (anchor, dict(zip(ring, ring[1:] + ring[:1])))
        self._check()

    def _toggle_face(self, a, b, c, d):
        super()._toggle_face(a, b, c, d)
        if self.open[a] >> b & 1:
            self.faces.remove((a, b, c, d))
        else:
            self.faces.append((a, b, c, d))

    def _advance(self, frame):
        corners = super()._advance(frame)
        self._check()
        return corners

    def _check(self):
        successor = [{} for _ in range(self.n)]
        anchor, ring = self.ring
        successor[anchor].update(ring)
        for a, b, c, d in self.faces:
            for v, u, w in ((b, a, c), (c, b, d), (d, c, a), (a, d, b)):
                assert successor[v].setdefault(u, w) == w, (v, u, self.faces)
        n = self.n
        packed = [_packed_options(self, x) for x in range(n)]
        for v, near in enumerate(self.nmask):
            for u, options in rotation_options(near, successor[v]).items():
                assert self._options(v, u) == options, (v, u, self.faces)
                assert _packed_column(packed[u], v, n) == options, (v, u, self.faces)
        for x in range(n):
            # the columns at which x has no successor, and no predecessor, yet
            loose = sum(1 << c for c in range(n) if self.nmask[c] >> x & 1 and x not in successor[c])
            assert self.uf[x] == loose, (x, self.faces)
            assert self.pf[x] == sum(1 << c for c in range(n) if self.free[c] >> x & 1), (x, self.faces)
        self.checks += 1


def test_assembler_options_match_a_predecessor_walk_at_every_step():
    graphs = [(nmask, False) for nmask in _dead_end_masks()]
    graphs.append((_masks(_k44()), True))
    for n, genus, _ in SEARCH_GOLDENS[:8]:
        graphs.append((_masks(search_quadrangulation(n, genus).graph), True))
    for nmask, embeds in graphs:
        spy = _OptionsSpy(nmask, _Ticker(SearchBudget()))
        assert (spy.search() is not None) == embeds, nmask
        assert spy.checks > 1, nmask


def test_search_answers_none_after_a_finished_enumeration(monkeypatch):
    candidates = _dead_end_masks()[1:]
    assert all(_corners_linked(nmask, _Ticker(SearchBudget())) is not None for nmask in candidates)
    assembled = 0
    for nmask in candidates:
        ticker = _Ticker(SearchBudget())
        _assemble(nmask, ticker).search()
        assembled += ticker.nodes
    monkeypatch.setattr(oracle, "_candidate_graphs", lambda *args: iter(candidates))
    ticker = _Ticker(SearchBudget())
    assert oracle._search(6, 1, ticker) is None
    # one node per candidate, and the assembler's own
    assert ticker.nodes == len(candidates) + assembled


def test_search_skips_a_disconnected_candidate_the_assembler_embeds(monkeypatch):
    # 2K_5 has the 20 edges of an order-10 torus quadrangulation and obeys the
    # anchor rule (vertex 9 is adjacent to 0..3); each K_5 quadrangulates the
    # torus, so the assembler embeds it, but a quadrangulation is connected
    parts = ((0, 1, 2, 3, 9), (4, 5, 6, 7, 8))
    nmask = [0] * 10
    for part in parts:
        for u, w in combinations(part, 2):
            nmask[u] |= 1 << w
            nmask[w] |= 1 << u
    assert _corners_linked(nmask, _Ticker(SearchBudget())) is not None
    assert _assemble(nmask, _Ticker(SearchBudget())).search() is not None
    monkeypatch.setattr(oracle, "_candidate_graphs", lambda *args: iter([nmask]))
    assert oracle._search(10, 1, _Ticker(SearchBudget())) is None


# ============================================================
# Arithmetic filter
# ============================================================


def test_quad_edge_count():
    assert quad_edge_count(4, 0) == 4
    assert quad_edge_count(5, 0) == 6
    assert quad_edge_count(7, 2) == 18
    assert quad_edge_count(4, 1) is None  # 8 edges will not fit on 4 vertices
    assert quad_edge_count(6, 2) is None  # 16 edges will not fit on 6
    assert quad_edge_count(3, 1) is None
    with pytest.raises(ValueError):
        quad_edge_count(4, -1)
    with pytest.raises(ValueError):
        quad_edge_count(3, 0)
    with pytest.raises(ValueError):
        quad_edge_count(2, 5)


def test_arithmetic_never_contradicts_search():
    for n in range(4, 8):
        for genus in range(0, 4):
            if quad_edge_count(n, genus) is None:
                assert search_quadrangulation(n, genus) is None


# ============================================================
# Search
# ============================================================


def test_search_sphere_order_4():
    system = search_quadrangulation(4, 0)
    assert system is not None
    assert sorted(system.graph.edges) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert (report.genus, report.face_count) == (0, 2)


def test_search_small_orders():
    assert search_quadrangulation(3, 0) is None  # below any quad face
    assert search_quadrangulation(4, 1) is None
    assert search_quadrangulation(6, 2) is None
    cases = [(5, 0), (5, 1), (6, 0), (6, 1)]
    # a genus >= 1 search only lists graphs of minimum degree 3; from each
    # scan's minimum order up to four orders above it, such witnesses exist
    scan_minimum = {1: 5, 2: 7, 3: 8, 4: 8, 5: 9, 6: 10, 7: 10}
    cases += [(n, genus) for genus, low in scan_minimum.items() for n in range(low, low + 5)]
    for n, genus in cases:
        system = search_quadrangulation(n, genus)
        assert system is not None, (n, genus)
        report = validate_quadrangulation(system)
        assert report.is_quadrangulation
        assert report.genus == genus
        assert system.graph.vertex_count == n


def test_search_is_deterministic():
    first = search_quadrangulation(7, 2)
    second = search_quadrangulation(7, 2)
    assert first == second
    assert first.rotations == (
        (3, 5, 4, 6),
        (3, 6, 4, 5),
        (3, 5, 4, 6),
        (0, 5, 6, 4, 2, 1),
        (0, 6, 5, 3, 2, 1),
        (0, 1, 2, 4, 3, 6),
        (0, 1, 2, 3, 4, 5),
    )
    assert validate_quadrangulation(first).genus == 2


def test_exists_rejects_negative_genus():
    with pytest.raises(ValueError):
        search_quadrangulation(6, -1)


def test_negative_order_is_rejected_not_answered():
    with pytest.raises(ValueError, match="order must be non-negative"):
        search_quadrangulation(-5, 0)
    with pytest.raises(ValueError, match="order must be non-negative"):
        search_quadrangulation(-1, 0)
    with pytest.raises(ValueError):
        search_quadrangulation(-1, 0, SearchBudget(max_nodes=1))
    with pytest.raises(ValueError, match="max_order must be non-negative"):
        min_order_bruteforce(0, max_order=-1)
    # orders 0..3 are too small for a quad face: a correct "no", not an error
    for n in range(4):
        assert search_quadrangulation(n, 0) is None
        assert search_quadrangulation(n, 1) is None


def test_is_connected_agrees_with_mini_connected():
    rng = random.Random(4242)
    sizes = [0, 1] * 10 + [rng.randint(2, 12) for _ in range(600)]
    for n in sizes:
        density = rng.random()
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
        )
        graph = Graph(n, edges)
        expected = _mini_connected(n, edges)
        assert is_connected(graph) == expected, (n, sorted(edges))
        # rows of sets, the form delete_edges_connected passes
        assert _connected([set(row) for row in graph.adjacency()]) == expected, (n, sorted(edges))


# ============================================================
# Budgets
# ============================================================


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=0)
    budget = SearchBudget()
    assert (budget.max_nodes, budget.time_cap) == (100_000_000, 900.0)
    # the oracle command's defaults are the budget's own
    args = cli._build_parser().parse_args(["oracle", "-g", "1"])
    assert SearchBudget(args.max_nodes, args.time_cap) == budget
    assert hash(SearchBudget(100_000_000, 900.0)) == hash(budget)
    for name in ("max_nodes", "time_cap"):
        with pytest.raises(AttributeError):
            setattr(budget, name, 1)


def test_budget_rejects_nan_time_cap():
    # NaN compares false with everything, so it would silently disable the cap;
    # True would be a 1-second cap, and "5" or None a TypeError
    for bad in (float("nan"), True, "5", None):
        with pytest.raises(ValueError, match="time_cap must be positive"):
            SearchBudget(time_cap=bad)


def test_budget_rejects_non_integer_max_nodes():
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=bad)


def test_search_raises_when_a_defect_guard_fails(monkeypatch):
    # the search never returns an invalid witness or scans past the spinal
    # order, so each defect guard is reached by corrupting what it reads;
    # BudgetExhausted is a RuntimeError too, so the messages are matched
    validate = oracle.validate_quadrangulation
    for fault in ({"is_quadrangulation": False}, {"genus": 2}):
        with monkeypatch.context() as patch:
            patch.setattr(
                oracle,
                "validate_quadrangulation",
                lambda system: validate(system)._replace(**fault),
            )
            with pytest.raises(RuntimeError, match="produced an invalid witness; search defect"):
                search_quadrangulation(8, 1)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_search", lambda n, genus, ticker: None)
        with pytest.raises(RuntimeError, match="up to the guaranteed spinal order; search defect"):
            min_order_bruteforce(1)
    assert search_quadrangulation(8, 1) is not None


def test_budget_exhaustion_is_an_exception_not_a_verdict():
    with pytest.raises(BudgetExhausted):
        search_quadrangulation(7, 2, budget=SearchBudget(max_nodes=5))
    # the same question with room to breathe has a definite answer
    assert search_quadrangulation(7, 2) is not None


def test_time_cap_type():
    with pytest.raises(BudgetExhausted):
        min_order_bruteforce(2, budget=SearchBudget(max_nodes=50))


def test_time_cap_is_read_at_every_search_node(monkeypatch):
    # a clock that advances 1 s per reading: the first search node is past a
    # 0.5 s cap, long before the enumerator's 4096th pair would read the clock
    clock = iter(range(10**6))
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
    with pytest.raises(BudgetExhausted, match="time cap"):
        search_quadrangulation(9, 3, SearchBudget(time_cap=0.5))
    # a candidate the corner-link test rejects is a node too, read before the
    # test: the ticker starts at 1 s, candidates 1 and 2 read 2 s and 3 s and
    # are rejected, and candidate 3 reads 4 s, past the 2.5 s cap
    clock = iter(range(1, 10**6))
    tested = []

    def reject(nmask, ticker):
        tested.append(nmask)
        return None

    monkeypatch.setattr(oracle, "_corners_linked", reject)
    with pytest.raises(BudgetExhausted, match="time cap"):
        search_quadrangulation(8, 1, SearchBudget(time_cap=2.5))
    assert len(tested) == 2


def test_assembler_scoring_scan_obeys_time_cap(monkeypatch):
    # the candidate's node tick reads the clock before the assembler runs, so
    # an exhausted clock stops the search before any dart-scoring scan
    def scan(self, corners=-1):
        raise AssertionError("a dart-scoring scan ran past the time cap")

    monkeypatch.setattr(_FaceAssembler, "_most_constrained", scan)
    ticker = _Ticker(SearchBudget(time_cap=1e-9))
    with pytest.raises(BudgetExhausted, match="time cap"):
        oracle._search(7, 2, ticker)
    assert ticker.nodes == 1


def test_assembler_reads_the_clock_before_allocating_its_tables():
    # two n x n tables at order 3,000 are about 137 MiB of list slots; with
    # the time cap already spent, building the assembler must stop first
    nmask = [((1 << 3000) - 1) ^ 1 << v for v in range(3000)]
    matrix = _matrix(nmask)
    ticker = _Ticker(SearchBudget(time_cap=1e-9))
    time.sleep(0.001)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted, match="time cap"):
            _FaceAssembler(nmask, ticker, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_assembler_memory_stays_flat_on_a_dense_graph():
    # K_40 places 390 faces; the frames hold option masks and the successors
    # each face set, so taking a face back recomputes its flips instead of
    # restoring saved n^2-bit integers (that undo peaked at 1.39 MiB here),
    # and completions are not listed up front (3.86 MiB)
    n = 40
    nmask = [((1 << n) - 1) ^ 1 << v for v in range(n)]
    tracemalloc.start()
    try:
        assert _assemble(nmask, _Ticker(SearchBudget())).search() is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _raised_inside(excinfo, name):
    return any(entry.name == name for entry in excinfo.traceback)


def test_time_cap_is_read_inside_the_corner_link_test_and_the_first_full_scan(monkeypatch):
    # the clock passes the cap right after the given number of readings: the
    # ticker's start and the candidate's node tick, and in the second half the
    # assembler's own reading before its tables; every later reading is 1 s.
    # At order 16 and genus 23 the only candidate is K_16, and both loops
    # read the clock after their 16th pass.
    def expire_after(readings):
        readings = iter([0.0] * readings)
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(readings, 1.0)))

    def unreachable(*args):
        raise AssertionError("the search ran past the time cap")

    monkeypatch.setattr(_FaceAssembler, "__init__", unreachable)
    expire_after(2)
    with pytest.raises(BudgetExhausted, match="time cap") as excinfo:
        search_quadrangulation(16, 23, SearchBudget(time_cap=0.5))
    assert _raised_inside(excinfo, "_corners_linked")
    monkeypatch.undo()

    # past the corner-link test, the first full scan reads the clock
    monkeypatch.setattr(oracle, "_corners_linked", lambda nmask, ticker: _matrix(nmask))
    monkeypatch.setattr(_FaceAssembler, "_advance", unreachable)
    expire_after(3)
    with pytest.raises(BudgetExhausted, match="time cap") as excinfo:
        search_quadrangulation(16, 23, SearchBudget(time_cap=0.5))
    assert _raised_inside(excinfo, "_most_constrained")


# ============================================================
# Minimum-order scan
# ============================================================


def test_min_order_scan_ground_truth():
    for genus, expected in ((0, 4), (1, 5), (2, 7)):
        found = min_order_bruteforce(genus)
        assert found.order == expected
        assert found.genus == genus
        assert found.nodes > 0
        report = validate_quadrangulation(found.witness)
        assert report.is_quadrangulation
        assert report.genus == genus
        assert found.witness.graph.vertex_count == expected


def test_min_order_scan_is_deterministic():
    first = min_order_bruteforce(2)
    second = min_order_bruteforce(2)
    assert first == second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.order = 8


def test_min_order_scan_requires_budget_above_genus_2():
    with pytest.raises(ValueError):
        min_order_bruteforce(3)
    found = min_order_bruteforce(3, budget=SearchBudget())
    assert found.order == 8


def test_min_order_scan_with_max_order_cap():
    # order 6 is searched to the end and order 3 lies below the lower bound:
    # either way the capped scan proves the minimum order exceeds the cap
    assert min_order_bruteforce(2, max_order=6) is None
    assert min_order_bruteforce(2, max_order=3) is None
    found = min_order_bruteforce(2, max_order=7)
    assert found.order == 7


def test_min_order_scan_reaches_lower_bound_at_former_holdouts():
    # the first-open-dart assembler left genus 17 open after millions of nodes;
    # node counts and digests pin the branching decisions beyond order 19
    for genus, order, nodes, digest in (
        (17, 15, 65, "0c152d6816b6310c01f5596cb59277662e7b5eee50c87a2d39bab924e3bea9d3"),
        (48, 23, 327, "db9398a89f68365c7598ae682c28d0882af99a4d2f886763cb7d94ece98ea140"),
    ):
        assert order_lower_bound(genus) == order
        found = min_order_bruteforce(
            genus, SearchBudget(max_nodes=100_000), max_order=order_lower_bound(genus)
        )
        assert (found.order, found.nodes, _digest(found.witness)) == (order, nodes, digest)
        report = validate_quadrangulation(found.witness)
        assert report.is_quadrangulation
        assert report.genus == genus
        assert found.witness.graph.vertex_count == order


def test_assembler_depth_is_not_bounded_by_recursion_limit():
    # the genus-34 witness has 85 faces; a search recursing per placed face
    # needs more than the 100 frames left here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        found = min_order_bruteforce(34, SearchBudget(max_nodes=100_000), max_order=19)
    finally:
        sys.setrecursionlimit(limit)
    assert (found.order, found.nodes) == (19, 172)


def test_min_order_scan_rejects_negative_genus():
    with pytest.raises(ValueError):
        min_order_bruteforce(-1)


# ============================================================
# Golden outputs
# ============================================================
#
# Generated with the most-constrained-first assembler that scores the darts
# at the face placed last, anchored at the last vertex of largest degree, over
# the anchor-canonical candidates: orders, node counts and SHA-256 digests of
# the canonical witness documents.  Any change to the
# enumeration order or to the assembler's branching shows up here.

# (genus, order, nodes, digest); genus >= 3 runs under 100k nodes and is
# capped at the arithmetic lower bound, which every scan reaches
SCAN_GOLDENS = (
    (0, 4, 3, "f1cf8ec5c4be558a825dd99c3f9a8d6846b2c3a37eff1edae73afc782c042e3d"),
    (1, 5, 6, "d835d03632897ed0363c598732b53d07f1755f207ae7e2909be3fd1e0eb8c2b2"),
    (2, 7, 78, "7c239732d62bcdb81144a132e67d785c8be73221d0c9d36199aeadc49f93861a"),
    (3, 8, 69, "ffdc659656e2780f2d3a4036c27242c57225ae08684eef90d305d79ecf3f0cab"),
    (4, 8, 433, "3a7f1f5a4ccacc1d2af0cd5fab18bcf2b43e6deb06660096e6c2b9360bbe700a"),
    (5, 9, 83, "fd97a3ff438f81105d0006c26e018d9fe3b61cddb7dd32dd4a9b3741f0982051"),
    (6, 10, 124, "bbfe29bf7394ae634d51ab0ea4dcded971535b28a580e65794605fdd830a0f58"),
    (7, 10, 73, "e693c1c2208afb2e8098d082f7b653a206a37a8e7752969a8bb26b226147983a"),
    (8, 11, 44, "c0162e3691c7bb3825df72f34f9a858e97d123741a18917278efd4359e621ca6"),
    (9, 11, 419, "21654397fed62731f1970075378b023e255accabf0dc48751d3f4113f264c0a2"),
    (10, 12, 254, "954245fdf9c5d84160f2b0ab5db4ce643b53e066c727c1d11b28a87d1591d6a9"),
    (11, 12, 98, "51fc26dc1594d1ed01f8666439b67fe610a42b5a3bae3130092f3989936b4967"),
    (12, 13, 79, "da0a21cb7084a13b4c9eec790a80234b42b8a1241e0fb4d306a2f2de7017efd4"),
    (13, 13, 199, "3d562ee4324bdcdfbdcef9cf4fface5deec37f922cc259a1490c3946dbac1b69"),
    (14, 13, 145, "c117abb24df05c39cacaf4a1fefbbdb48785ea097784bf956e2a0cdae4bc199e"),
    (15, 14, 401, "6eefcdab194a75ecc85e2140e1024e203b9ae0ba4ab9a971ee9e1ed220f98812"),
    (16, 14, 62, "9e532e7283c3e4e1ce465d1fbb4c619a281abcd568a3c33086c468f8e11be87c"),
    (17, 15, 65, "0c152d6816b6310c01f5596cb59277662e7b5eee50c87a2d39bab924e3bea9d3"),
    (18, 15, 597, "cc77dc89d991c4c292a4709304a54ad20c9a66a0f471f9cb9c8246e96dfd6ec2"),
    (19, 15, 862, "d5a994dc3030a62dcdbbdbbfa054b3d6634cee228b0a7b7d186e031a3acd1cd9"),
    (20, 16, 97, "7e445d491419dee3540ccc0de131c9c77c18d49091eecedb5b5b893e637d2fd7"),
    (21, 16, 430, "64a9a3241aa0e119ccce4349a337261a3340ed4f839bfceef80738bce5c66068"),
    (22, 16, 112, "2f0ccb129eee92412816871d771b168e57279336da2c8412d2ea48e3db1cbd3d"),
    (23, 16, 128, "f0f1b170213682967908e2d5fe1297c045bc721f7d6d1b8fbd6ddebce1ed7527"),
    (24, 17, 512, "0e9279aded47adf6adeeec15480c51e2d46379c15ff20b8212160a4a892262c9"),
    (25, 17, 126, "3f3853a0d8babb0909eaadad5c29c228287baea02705a83fc0ea2b276804c13a"),
    (26, 17, 100, "c548acf103c352279ce5b98e1350ed993a1fbd156e8265ff2049ef2794838c08"),
    (27, 18, 1141, "a0ce2a7e4ad3ee73e9dca3e7140e94d43ff3953106523967bb6cd9e188f4d2d4"),
    (28, 18, 117, "ca965f784c840fd0265525982627e6b8934afd5777a85ea48ac3d9f494ff4cd5"),
    (29, 18, 96, "8839925fad4524bbf93b0cdd043396f578fa5ed2e4d71f382f0bafd8e0bec976"),
    (30, 18, 630, "596242b37757bafa1bf8e72afbbd5e7a36ab9eb2c96bcdcf52674744f475d2a2"),
    (31, 19, 132, "112ab8f46a90751fcdd5b5cfbc3566f88c01a082cf1102c88c879d2c3654f150"),
    (32, 19, 723, "60ad1ec688758bc36be4a87dbb134e4d581eda04804efa2a6011d43565135c60"),
    (33, 19, 182, "10d76d2dc523541ad611bad4a85041b52fabf504ebd7b513dc6506933358a252"),
    (34, 19, 172, "766af63bc0b6ae6244a467732346c49ff44bd8b0103640b9f9c0f9b8c905ef20"),
)

# (order, genus, digest) for existence searches above the minimum order
SEARCH_GOLDENS = (
    (5, 0, "e3b5145a71214aee14a1114d5cb1ee89dd869db176235b7e1b12744611d0810f"),
    (6, 0, "09e792eead2b81e68a6c46c2dcfee48bdaedcb86ccde46ed828143009f25257d"),
    (7, 0, "985c3901f0f9dba2b7381ea18751c834e7716bed1f85bfbe5acdf9fef06a5c3d"),
    (8, 0, "e735cf02c11e8bcceae7fa1584513f67963b81bc7393b8997dabda832da8a576"),
    (6, 1, "7dd25017225be9d32408f3ccc1ee648b156504ca201620f7f21ead77f3173385"),
    (7, 1, "198d283f99ec1b2c6a76a4b65790f5a15c2c65e7f4df093ec4e70202732fbdb0"),
    (8, 1, "10ad96e9f219430b12e434a2bbf60c0054217a10024ff608f911e2d99d57e955"),
    (8, 2, "9ec25bfd04d342beee918403a56dfba51a79c56227bd3b9883292ab8223a4f39"),
    (9, 3, "cf8f1b52ec528843ecb829ff506e5f0d528a89ecdd27e563d67ca82ad00c8a97"),
    (9, 4, "76771b760e6a1c9fef1177dce65774f78df322e275bec05bc21af46344a96e26"),
    (10, 5, "d997dbf307f04a26b20c706d229f2c25c20e8c97aefc04c83cb8d09b47b236f8"),
    (11, 7, "dbc679bceae294eb6ca0cd09f1f99c91b8254acb5059a5b7feba38d2036b731e"),
)


def _digest(system):
    document = canonical_json(embedding_to_document(system))
    return hashlib.sha256(document.encode()).hexdigest()


def test_min_order_scan_goldens():
    for genus, order, nodes, digest in SCAN_GOLDENS:
        if genus <= 2:
            found = min_order_bruteforce(genus)
        else:
            found = min_order_bruteforce(
                genus, SearchBudget(max_nodes=100_000), max_order=order_lower_bound(genus)
            )
        assert (found.order, found.nodes, _digest(found.witness)) == (order, nodes, digest), genus
        assert validate_quadrangulation(found.witness).is_quadrangulation, genus


def test_search_goldens():
    for n, genus, digest in SEARCH_GOLDENS:
        system = search_quadrangulation(n, genus)
        assert _digest(system) == digest, (n, genus)
        assert validate_quadrangulation(system).is_quadrangulation, (n, genus)
