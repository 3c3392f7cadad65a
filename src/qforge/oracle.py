"""Exhaustive search for quadrangulations of a given order and genus.

Euler's equation forces the edge count of any quadrangulation, and near the
minimum order that count sits close to the complete graph, so candidate
graphs are enumerated as complements of a few missing edges that keep the
minimum degree.  For each connected candidate the search assembles quad
faces dart by dart, growing the rotation at every vertex incrementally and
abandoning a branch as soon as a face would close at the wrong length or
revisit a vertex.  Each step places a face on the open dart with the fewest
ways left to complete one (most-constrained first, as in Knuth's Dancing
Links), reading each corner's options from per-vertex sets of neighbours
that still lack a predecessor in the rotation.

Verdicts are deterministic and independent of traversal order.  One budget
covers enumeration and assembly; running out of it raises BudgetExhausted
instead of answering, and that outcome is never collapsed into "no".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .embedding import RotationSystem, validate_quadrangulation
from .formulas import order_lower_bound, spinal_min_order
from .graph import Edge, Graph, is_connected

__all__ = [
    "SearchBudget",
    "BudgetExhausted",
    "MinOrderWitness",
    "quad_edge_count",
    "search_quadrangulation",
    "exists_quadrangulation",
    "min_order_bruteforce",
]


class BudgetExhausted(RuntimeError):
    """The search hit its node or time budget before reaching a verdict."""


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the backtracking search; the defaults fit a desk-scale run."""

    max_nodes: int = 100_000_000
    time_cap: float = 900.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_nodes, int) or isinstance(self.max_nodes, bool):
            raise ValueError("max_nodes must be an integer")
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # NaN fails every comparison, so test for a positive cap, not a non-positive one
        if not self.time_cap > 0:
            raise ValueError("time_cap must be positive")


class _Ticker:
    """Counts search nodes against a budget; checks the clock every 4096 steps."""

    __slots__ = ("budget", "nodes", "steps", "start")

    def __init__(self, budget: SearchBudget) -> None:
        self.budget = budget
        self.nodes = 0
        self.steps = 0
        self.start = time.monotonic()

    def __call__(self, node: bool = True) -> None:
        if node:
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                raise BudgetExhausted(f"node budget {self.budget.max_nodes} exhausted")
        self.steps += 1
        if self.steps % 4096 == 0 and time.monotonic() - self.start > self.budget.time_cap:
            raise BudgetExhausted(f"time cap {self.budget.time_cap}s exhausted")


def quad_edge_count(n: int, genus: int) -> int | None:
    """Edge count 2(n-2+2g) forced on any n-vertex quadrangulation of genus
    g, or None only when that is more than the C(n,2) edges of a simple graph."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if n < 3 or (genus == 0 and n < 4):
        raise ValueError("order too small for a quadrangulation of this genus")
    edges = 2 * (n - 2 + 2 * genus)
    if edges > n * (n - 1) // 2:
        return None
    return edges


def _candidate_graphs(n: int, edge_target: int, min_degree: int, ticker: _Ticker):
    """All connected labeled graphs on n vertices with the target edge count
    and minimum degree, in a fixed order.

    Enumeration runs over the complement: lexicographic combinations of the
    missing edges.  Near the minimum order very few edges are missing, so
    this is exponentially smaller than enumerating edge subsets directly.
    A pair is dropped only while both endpoints can spare an edge; each pair
    considered is a timed step of the ticker, not a search node.
    """
    pairs = list(combinations(range(n), 2))
    spare = [n - 1 - min_degree] * n
    if any(s < 0 for s in spare):  # even the complete graph is too sparse
        return

    def drop(start: int, left: int, missing: frozenset[Edge]):
        if left == 0:
            yield missing
            return
        for k in range(start, len(pairs) - left + 1):
            ticker(node=False)
            i, j = pairs[k]
            if spare[i] > 0 and spare[j] > 0:
                spare[i] -= 1
                spare[j] -= 1
                yield from drop(k + 1, left - 1, missing | {pairs[k]})
                spare[i] += 1
                spare[j] += 1

    everything = frozenset(pairs)
    for removed in drop(0, len(pairs) - edge_target, frozenset()):
        graph = Graph(n, everything - removed)
        if is_connected(graph):
            yield graph


class _FaceAssembler:
    """Backtracking assembly of quad faces over one candidate graph.

    State is a partial successor map at every vertex (the rotation under
    construction, as "w follows u at v"), the set of darts already placed
    into a face, and per vertex the set ``free_in`` of neighbours that have
    no predecessor there yet.  A face walk arriving at v from u continues to
    ``_options(v, u)``: the forced successor of u at v if there is one, else
    ``free_in[v]`` minus u and minus the head of u's partial rotation path,
    whose choice would close a rotation cycle that misses a neighbour (the
    head stays when the assignment completes the rotation).  Options are
    cached per vertex until that vertex's rotation changes.

    Each step branches on the open dart (a, b) with the fewest face
    completions, k(a, b) = sum over c in opts(b, a) of |opts(c, b) & N(a)|:
    the most-constrained-first rule.  Ties go to the first dart in ascending
    order, the scan stops at the first dart with k <= 1, and k = 0 ends the
    branch.  The rotation at one maximum-degree vertex is pre-fixed to
    ascending order: every embedding of every isomorph can be relabeled to
    respect that, and all labelings are enumerated by the caller, so no
    witness is lost while the symmetry factor drops out.
    """

    def __init__(self, graph: Graph, ticker: _Ticker) -> None:
        n = self.n = graph.vertex_count
        adjacency = self.adjacency = graph.adjacency()
        self.neighbor_sets = [frozenset(row) for row in adjacency]
        self.degree = [len(row) for row in adjacency]
        self.succ: list[dict[int, int]] = [{} for _ in range(n)]
        self.pred: list[dict[int, int]] = [{} for _ in range(n)]
        self.free_in = [set(row) for row in adjacency]
        self.option_cache: list[dict[int, set[int]]] = [{} for _ in range(n)]
        self.used: set[tuple[int, int]] = set()
        self.darts = [(u, v) for u in range(n) for v in adjacency[u]]
        self.ticker = ticker
        anchor = min(range(n), key=lambda v: (-self.degree[v], v))
        ring = adjacency[anchor]
        for i, u in enumerate(ring):
            self._assign(anchor, u, ring[(i + 1) % len(ring)])

    # ---- successor-map bookkeeping ----

    def _options(self, v: int, u: int) -> set[int]:
        """Every w that "w follows u at v" may take; callers must not mutate it."""
        cache = self.option_cache[v]
        options = cache.get(u)
        if options is None:
            succ = self.succ[v]
            forced = succ.get(u)
            if forced is not None:
                options = {forced}
            else:
                options = self.free_in[v] - {u}
                if len(succ) + 1 < self.degree[v]:
                    pred = self.pred[v]
                    head = u
                    while head in pred:
                        head = pred[head]
                    options.discard(head)
            cache[u] = options
        return options

    def _assign(self, v: int, u: int, w: int) -> None:
        self.succ[v][u] = w
        self.pred[v][w] = u
        self.free_in[v].remove(w)
        self.option_cache[v].clear()

    def _unassign(self, v: int, u: int) -> None:
        w = self.succ[v].pop(u)
        del self.pred[v][w]
        self.free_in[v].add(w)
        self.option_cache[v].clear()

    # ---- face assembly ----

    def search(self) -> tuple[tuple[int, ...], ...] | None:
        """Complete rotations with all faces of length 4, or None."""
        if self._extend():
            return tuple(self._rotation_of(v) for v in range(self.n))
        return None

    def _rotation_of(self, v: int) -> tuple[int, ...]:
        start = self.adjacency[v][0]
        out = [start]
        while len(out) < self.degree[v]:
            out.append(self.succ[v][out[-1]])
        return tuple(out)

    def _extend(self) -> bool:
        self.ticker(node=False)
        options, neighbor_sets, used = self._options, self.neighbor_sets, self.used
        best, fewest = None, float("inf")
        for dart in self.darts:
            if dart in used:
                continue
            a, b = dart
            near_a = neighbor_sets[a]
            count = 0
            for c in options(b, a):
                count += len(options(c, b) & near_a)
                if count >= fewest:
                    break
            else:
                best, fewest = dart, count
                if count <= 1:
                    break
        if best is None:
            return True
        a, b = best
        near_a = neighbor_sets[a]
        for c in sorted(options(b, a)):
            for d in sorted(options(c, b) & near_a):
                self.ticker()
                if self._try_face(a, b, c, d):
                    return True
        return False

    def _try_face(self, a: int, b: int, c: int, d: int) -> bool:
        """Close the face (a, b, c, d), recurse, undo on failure."""
        constraints = ((b, a, c), (c, b, d), (d, c, a), (a, d, b))
        newly = []
        for v, u, w in constraints:
            if w not in self._options(v, u):
                break
            if u not in self.succ[v]:
                self._assign(v, u, w)
                newly.append((v, u))
        else:
            face_darts = ((a, b), (b, c), (c, d), (d, a))
            self.used.update(face_darts)
            if self._extend():
                return True
            self.used.difference_update(face_darts)
        for v, u in reversed(newly):
            self._unassign(v, u)
        return False


def _search(n: int, genus: int, ticker: _Ticker) -> RotationSystem | None:
    """search_quadrangulation for a non-negative genus, charged to ticker."""
    if n < 4:
        return None  # every quad face needs four distinct vertices
    edge_target = quad_edge_count(n, genus)
    if edge_target is None:
        return None
    min_degree = 2 if genus == 0 else 3
    for graph in _candidate_graphs(n, edge_target, min_degree, ticker):
        ticker()
        rotations = _FaceAssembler(graph, ticker).search()
        if rotations is None:
            continue
        system = RotationSystem(graph, rotations)
        report = validate_quadrangulation(system)
        if not report.is_quadrangulation or report.genus != genus:
            raise RuntimeError("assembler produced an invalid witness; search defect")
        return system
    return None


def search_quadrangulation(
    n: int, genus: int, budget: SearchBudget | None = None
) -> RotationSystem | None:
    """Find a quadrangulation with the given order and genus, or prove that
    none exists.  Returns a verified witness embedding, or None."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return _search(n, genus, _Ticker(budget or SearchBudget()))


def exists_quadrangulation(
    n: int,
    genus: int,
    budget: SearchBudget | None = None,
    witness: RotationSystem | None = None,
) -> bool:
    """Decide whether any n-vertex quadrangulation of genus g exists.

    An injected witness short-circuits the search after being verified; an
    injected witness that fails verification raises ValueError.
    """
    if witness is not None:
        report = validate_quadrangulation(witness)
        if (
            witness.graph.vertex_count != n
            or not report.is_quadrangulation
            or report.genus != genus
        ):
            raise ValueError("injected witness does not match the claimed order and genus")
        return True
    return search_quadrangulation(n, genus, budget) is not None


@dataclass(frozen=True)
class MinOrderWitness:
    """Result of a minimum-order scan: the order found, a verified witness,
    and the number of search nodes spent."""

    genus: int
    order: int
    witness: RotationSystem
    nodes: int


def min_order_bruteforce(
    genus: int, budget: SearchBudget | None = None, max_order: int | None = None
) -> MinOrderWitness:
    """Scan orders upward until a quadrangulation of the genus exists.

    The scan starts at the arithmetic lower bound (order 4 for the sphere)
    and can stop at the spinal order, where existence is guaranteed.  Genus
    above 2 requires an explicit budget, as a guard against accidentally
    launching a monster search.  The budget spans the whole scan.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if genus > 2 and budget is None:
        raise ValueError("genus above 2 requires an explicit SearchBudget")
    ticker = _Ticker(budget or SearchBudget())
    start = 4 if genus == 0 else order_lower_bound(genus)
    stop = spinal_min_order(genus)
    cap = stop if max_order is None else min(stop, max_order)
    for n in range(start, cap + 1):
        system = _search(n, genus, ticker)
        if system is not None:
            return MinOrderWitness(genus, n, system, ticker.nodes)
    if cap < stop:
        raise BudgetExhausted(f"scan capped at order {cap} before reaching a verdict")
    raise RuntimeError("no quadrangulation found up to the guaranteed spinal order; search defect")
