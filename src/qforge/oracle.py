"""Exhaustive search for quadrangulations of a given order and genus.

Euler's equation forces the edge count of any quadrangulation, and near the
minimum order that count sits close to the complete graph, so candidate
graphs are enumerated as complements of a few missing edges that keep the
minimum degree, each as per-vertex neighbour bitmasks.  Only one labelling
rule's graphs are listed: vertex n - 1 has the largest degree d and is
adjacent to exactly 0..d-1, and the assembler fixes the rotation there to
(0, 1, ..., d-1); every quadrangulation has such a labelling and embedding
(see ``_candidate_graphs``).  Each candidate first meets the
corner-link test: two neighbours consecutive in the rotation at a vertex
share a quad face, so they have a second common neighbour, and a graph in
which some neighbour of a vertex has fewer than two such partners among
that vertex's other neighbours (one at degree 2) has no quadrangulation.
The test costs O(n) operations on n^2-bit integers and reads no labels, so
it composes with the assembler's symmetry break.  A candidate that passes
goes to the assembler, which places quad faces dart by dart, growing the
rotation at every vertex incrementally and abandoning a branch as soon as a
face would close at the wrong length or revisit a vertex.  Each step places
a face on the open dart with the fewest ways left to complete one
(most-constrained first, as in Knuth's Dancing Links), scoring only the
darts at the corners of the face placed last, where the options just
narrowed, and every open dart only when none of those is open.  A
corner's options are one AND of two maintained per-vertex entries, the
corner's rule (its forced successor, or the neighbours it must not take)
and the mask of neighbours that still lack a predecessor in the rotation,
with no walk along a partial rotation.  The same options are also packed,
for every vertex x, into n^2-bit integers whose column c holds the options
at c after x, so scoring a dart is one product, a few ANDs and popcounts
over whole masks instead of a loop over its options.  The search runs as
one loop over an explicit stack of placed faces: it pushes a frame for the
chosen dart and advances it, and advancing a frame takes back the face it
placed and places its next completion that fits, read off the frame's
option masks instead of listed up front, so a witness of any size fits in
it without touching Python's recursion limit.  Each successor a face sets
is one record in its frame, which both directions read: taking the face
back restores the per-vertex entries from it, and one loop of XOR flips
per advance keeps the packed integers exact for the face taken back and
the face placed alike.  A witness's rotations become a
``RotationSystem``, which derives its graph and its faces from them, and
the witness is validated in full before it is returned.  Connectivity is
read off that witness alone: the enumerator lists disconnected graphs too,
and a disconnected graph has no quadrangulation, so an assembled rotation
list in which a search from vertex 0 misses a vertex is skipped.

Verdicts are deterministic and independent of traversal order.  One budget
covers enumeration, the corner-link test and assembly; running out of it
raises BudgetExhausted instead of answering, and that outcome is never
collapsed into "no".  The time cap is read at every search node, at every
4096th vertex pair the enumerator considers, and at every 16th pass of the
loops whose passes cost O(n^2) bit operations or more: the corner-link
test's and the rows of a scan over every open dart.
"""

from __future__ import annotations

import time
from array import array
from functools import lru_cache
from typing import NamedTuple

from .embedding import RotationSystem, validate_quadrangulation
from .formulas import min_spine_size, order_lower_bound
from .graph import _Value, _connected

__all__ = [
    "SearchBudget",
    "BudgetExhausted",
    "MinOrderWitness",
    "quad_edge_count",
    "search_quadrangulation",
    "min_order_bruteforce",
]


class BudgetExhausted(RuntimeError):
    """The search hit its node or time budget before reaching a verdict."""


class SearchBudget(_Value):
    """Caps on the backtracking search; the defaults fit a desk-scale run."""

    __slots__ = _fields = ("max_nodes", "time_cap")
    max_nodes: int
    time_cap: float

    def __init__(self, max_nodes: int = 100_000_000, time_cap: float = 900.0) -> None:
        if not isinstance(max_nodes, int) or isinstance(max_nodes, bool):
            raise ValueError("max_nodes must be an integer")
        if max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # NaN fails every comparison, so test for a positive cap, not a non-positive one
        if isinstance(time_cap, bool) or not isinstance(time_cap, (int, float)) or not time_cap > 0:
            raise ValueError("time_cap must be positive")
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "time_cap", time_cap)


class _Ticker:
    """Counts search nodes against a budget.

    The clock is read at every search node (a face placement or a candidate
    graph): a node is followed by a scan of the open darts at the four
    corners of the face it placed, or of every open dart when none of those
    is open.  A candidate's node comes before its corner-link test and its
    assembler's first scan.  The work between two nodes can still be long:
    the candidate enumerator may consider many vertex pairs before it yields
    a graph, the corner-link test makes O(n) passes over n^2-bit integers,
    and a full scan's row scores about n darts with a few operations on
    n^2-bit integers each, so at n = 900 the test takes seconds and the
    first full scan longer.  Those loops call ``clock``, which reads the
    clock and counts nothing: the enumerator at every 4096th pair it
    considers, the others every 16th pass.
    """

    __slots__ = ("budget", "nodes", "start")

    def __init__(self, budget: SearchBudget) -> None:
        self.budget = budget
        self.nodes = 0
        self.start = time.monotonic()

    def __call__(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExhausted(f"node budget {self.budget.max_nodes} exhausted")
        self.clock()

    def clock(self) -> None:
        """Read the clock against the time cap, counting nothing."""
        if time.monotonic() - self.start > self.budget.time_cap:
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
    """Every labeled graph on n vertices, connected or not, with the target
    edge count and minimum degree whose vertex n - 1 has the largest degree
    d and is adjacent to exactly 0..d-1, in a fixed order, each as its
    neighbour masks: bit w of ``nmask[v]`` is the edge vw.

    The labelling rule loses no quadrangulation.  Take any quadrangulation
    of such a graph and a vertex x of largest degree d in it.  Label x as
    n - 1, its neighbours 0..d-1 in the order of x's rotation, and the other
    vertices d..n-2.  That labelled graph is listed, and on it the rotation
    at n - 1 is (0, 1, ..., d-1), the one ``_FaceAssembler`` fixes at its
    anchor, so the assembler can find this embedding.  A "no" over the
    listed graphs is still a proof.

    Enumeration runs over the complement: lexicographic combinations of the
    missing edges.  Near the minimum order very few edges are missing, so
    this is exponentially smaller than enumerating edge subsets directly.
    A pair is dropped only while both endpoints can spare an edge; the pairs
    considered are not search nodes, and every 4096th reads the ticker's
    clock.  The combinations come from one loop over an explicit stack of
    dropped pairs, so the number of missing edges is not bounded by Python's
    recursion limit.  The loop walks the pairs with a cursor instead of
    listing them, and builds masks only when a combination is complete, so a
    large order meets its first budget check at once.  Far above the minimum
    order nearly every pair considered is dropped, so each dropped pair
    (i, j) is one machine integer i * n + j, and a vertex's spare count is
    made when the cursor first reaches it: memory grows with the pairs
    considered, not with n, and stays small until the budget ends.

    The rule runs inside the same loop.  The pairs (i, n - 1) are the last
    of each row, and the first one dropped fixes d = i: every later
    (i', n - 1) is forced to drop, backtracking never takes the keep branch
    of a forced pair, and a forced pair that cannot drop ends the
    combination.  Two bounds make every complete combination obey the rule
    with no check of its own.  A drop is refused when the drops still due
    could not cover the forced pairs ahead, so no combination completes
    before its last forced pair.  And a pair (i, n - 1) drops only while
    vertices 0..i, whose degrees are settled once the cursor leaves row i,
    keep degree at most d; a degree is ``min_degree`` plus the vertex's
    spare count.  When no pair (i, n - 1) drops, n - 1 has degree n - 1.
    The sphere's first candidate is still K_{2,n-2}, whose hub n - 1 is
    adjacent to 0..n-3.
    """
    total = n * (n - 1) // 2
    cap = n - 1 - min_degree
    if n and cap < 0:  # even the complete graph is too sparse
        return
    last = n - 1  # the anchor
    hub = n  # the first i whose pair (i, last) is dropped; every later one must drop too
    spare = [cap]  # one entry per vertex the cursor has reached
    complete = None  # every vertex's mask in K_n, built once the first combination is complete
    dropped = array("q")  # ascending, the pair (i, j) as i * n + j
    k, i, j = 0, 0, 1  # the pair (i, j) under consideration, and its index k
    left = total - edge_target  # the drops still due
    pairs = 0  # the pairs considered
    while True:
        # consider pair k while enough pairs remain for the drops still due;
        # otherwise this combination is complete or exhausted: backtrack
        if left and k <= total - left:
            pairs += 1
            if not pairs & 4095:
                ticker.clock()
            if j == len(spare):  # row 0 reaches every vertex in order first
                spare.append(cap)
            if j < last:
                # the drops still due must cover the forced pairs ahead
                drop = spare[i] > 0 and spare[j] > 0 and (hub == n or left > last - i)
            else:
                # after dropping (i, last) and the last - i - 1 pairs it
                # forces, the anchor keeps final spare edges; vertices 0..i,
                # settled after this pair, may keep no more than that
                final = spare[j] - (last - i)
                drop = (
                    0 < spare[i] <= final + 1
                    and left >= last - i
                    and max(spare[:i], default=0) <= final
                )
                if drop:
                    hub = min(hub, i)
                elif hub < i:
                    k = total  # a forced pair cannot drop: this combination is dead
                    continue
            if drop:
                spare[i] -= 1
                spare[j] -= 1
                dropped.append(i * n + j)
                left -= 1
        else:
            if not left:
                if complete is None:
                    complete = [((1 << n) - 1) ^ 1 << v for v in range(n)]
                nmask = complete[:]
                for pair in dropped:
                    u, w = divmod(pair, n)
                    nmask[u] ^= 1 << w
                    nmask[w] ^= 1 << u
                yield nmask
            while True:  # take back the last dropped pair that may be kept instead
                if not dropped:
                    return
                i, j = divmod(dropped.pop(), n)
                left += 1
                spare[i] += 1
                spare[j] += 1
                if j != last or hub == i:  # never the keep branch of a forced pair
                    break
            if j == last:
                hub = n
            k = i * (2 * n - i - 1) // 2 + j - i - 1  # the index of (i, j)
        k += 1
        i, j = (i, j + 1) if j + 1 < n else (i + 1, i + 2)


class _FaceAssembler:
    """Backtracking assembly of quad faces over one candidate graph, given
    by the neighbour masks ``_candidate_graphs`` yields: bit w of
    ``nmask[v]`` is the edge vw.  The caller runs the corner-link test
    (``_corners_linked``) first, so the n x n state below is allocated only
    for graphs that test cannot rule out, and hands over the adjacency
    matrix the test packed.  The test is sound: it only restates what the
    quad faces around any vertex force, so it never withholds a graph this
    search could complete.

    Precondition: the graph is labelled as ``_candidate_graphs`` lists it.
    The rotation at the anchor is fixed in ascending order (see the last
    paragraph), so on any other labelling of a graph that quadrangulates
    the search may answer None, and that None proves nothing.

    The rotation under construction at v is a set of partial paths of
    neighbours, "w follows u at v" joining the path that ends at u to the
    path that starts at w; each neighbour starts as a path of its own.
    ``rule[v][u]`` is ``1 << w`` once w follows u, and otherwise the
    negative ``~(1 << u | 1 << h)``, with h the head of the path that ends
    at u, whose choice would close a rotation cycle that misses a
    neighbour; once that path is the only one left, closing it completes
    the rotation and the rule is ``~(1 << u)``.  ``ends[v][x]`` is the other
    end of the path that starts or ends at x.  The mask ``free[v]`` holds
    the neighbours with no predecessor at v yet, and ``open[v]`` the
    neighbours w whose dart (v, w) is not yet in a face.  A face walk
    arriving at v from u continues to ``options(v, u)``, which is r if
    r >= 0 else ``free[v] & r`` for r = ``rule[v][u]``.  Setting u -> w at
    v joins the path h..u to w..t: it rewrites ``ends`` at h and t and
    ``rule`` at u and t.

    The options are also kept packed as n x n bit matrices, bit d*n + c in
    row d and column c, the layout of ``_corners_linked``.  ``ft`` has bit
    d*n + c when d is in ``free[c]``.  ``rk[x]`` clears, in column c, the
    row of the head that ``rule[c][x]`` excludes besides x, and is -1 while
    no rule of x excludes a head.  ``fb[x]`` has bit w*n + c when w follows
    x at c.  The n-bit masks ``uf[x]`` and ``pf[x]`` hold the c at which x
    has no successor, and no predecessor, yet.  So column c of
    ``(ft & rk[x] & uf[x] * column) | fb[x]``, with row x cleared, is
    ``options(c, x)``.  Setting u -> w at v flips bit w*n + v of ``ft`` and
    ``fb[u]``, bit v of ``uf[u]`` and ``pf[w]``, and in ``rk[t]`` the rows
    of the heads t's rule stops and starts excluding; taking it back makes
    the same flips.  Only ``_most_constrained`` reads these tables, so
    ``_advance`` makes the flips for the face it takes back and the face it
    places in one loop, after its completion search, which reads only
    ``rule`` and ``free``.  Nothing here grows with n^3 before the search
    runs: ``rk`` starts at -1.

    Each step branches on an open dart (a, b) with the fewest face
    completions, k(a, b) = sum over c in options(b, a) of
    popcount(options(c, b) & nmask[a]): the most-constrained-first rule.
    The row mask ``rows_a = matrix >> a & column``, bit v*n for every
    neighbour v of a, is made once per scanned row.  Multiplying it by a
    mask m of columns keeps rows N(a) and columns m (the ``_tally``
    product), so with o = options(b, a), k(a, b) is the popcount of
    ``rows_a * (o & uf[b])`` against ``ft & rk[b]``, less
    ``popcount(o & uf[b] & pf[b])`` for row b, plus the popcount of
    ``rows_a * (o & ~uf[b])`` against ``fb[b]``, one formula for every
    open dart.  Only the open darts out of and into the four corners of
    the face placed last are scored, since their options are the ones that
    just narrowed; before the first face, and when none of those darts is
    open, every open dart is, and such a full scan reads the clock every
    16th row.  Any open dart is a complete choice: it lies in exactly one
    face and every completion of that face is tried, so the rule changes the
    search order and the witness found, never a verdict.  Ties go to the first dart in ascending order, the scan stops
    at the first dart with k <= 1, and k = 0 ends the branch.

    The search is one loop over an explicit stack with one frame per placed
    face, so its depth is not bounded by Python's recursion limit.
    ``_advance`` is the only routine that changes a frame's face: it takes
    back the face the frame placed, then places the frame's next completion
    that fits, and returns the corner mask of the face it placed (0 when
    none is left, and the search pops the frame).  A frame keeps the
    options c and d it has not tried as masks, so a completion is read off
    when it is tried; the search seldom backtracks, and listing every
    completion up front cost more than scoring at n = 60.  Each successor a
    face sets is one record in its frame, (v, u, w, t, h, many, rule_u,
    rule_t): w follows u at v, joining the path h..u to w..t, many says
    whether more than one neighbour was then left without a predecessor at
    v, and rule_u and rule_t are the rule entries it rewrote.  Taking the
    face back restores ``rule``, ``ends`` and ``free`` from the record
    alone, and the same record drives the packed tables' flips in both
    directions, so every table comes back exactly.

    The anchor, the last vertex of largest degree, has its rotation
    pre-fixed to ascending order.  On a graph ``_candidate_graphs`` lists,
    the anchor is n - 1 and its neighbours are 0..d-1, so the fixed rotation
    is (0, 1, ..., d-1).  Relabelling any quadrangulation at a largest-degree vertex x
    (x becomes n - 1, its neighbours 0..d-1 in rotation order, the rest
    d..n-2) gives a listed graph with exactly that rotation at n - 1, so no
    witness is lost while the symmetry factor drops out.  The tables are
    allocated after one clock read, so a spent time cap stops a large order
    before it pays for them.
    """

    def __init__(self, nmask: list[int], ticker: _Ticker, matrix: int) -> None:
        ticker.clock()  # the two n x n tables are 2 n^2 list slots, 367 MiB at order 4,902
        n = self.n = len(nmask)
        self.nmask = nmask
        self.free = nmask[:]
        self.open = nmask[:]
        # every neighbour starts as a path of its own; each row copies one
        # template, so a table holds n distinct ints, not n^2
        alone, itself = [~(1 << u) for u in range(n)], list(range(n))
        rule = self.rule = list(map(list.copy, [alone] * n))
        self.ends = list(map(list.copy, [itself] * n))
        self.ticker = ticker
        self.matrix, self.column = matrix, _column(n)
        self.rk = [-1] * n
        fb = self.fb = [0] * n
        uf = self.uf = nmask[:]
        # the last vertex of largest degree
        degrees = [near.bit_count() for near in nmask]
        anchor = n - 1 - degrees[::-1].index(max(degrees))
        ring, fixed = [u for u in range(n) if nmask[anchor] >> u & 1], rule[anchor]
        for u, w in zip(ring, ring[1:] + ring[:1]):
            fixed[u] = 1 << w
            fb[u] = 1 << w * n + anchor
            uf[u] ^= 1 << anchor
        self.pf = uf[:]
        self.free[anchor] = 0
        self.ft = matrix ^ (matrix >> anchor & self.column) << anchor

    def _options(self, v: int, u: int) -> int:
        """Mask of every w that "w follows u at v" may take."""
        rule = self.rule[v][u]
        return rule if rule >= 0 else self.free[v] & rule

    def search(self) -> tuple[tuple[int, ...], ...] | None:
        """Complete rotations with all faces of length 4, or None."""
        # one frame per placed face: [a, b, options c left, options d left
        # for c, c, d of the face placed or -1, successor records]
        stack: list[list] = []
        corners = -1  # every vertex, until a face is placed
        while True:
            dart = self._most_constrained(corners)
            if dart is None:
                return tuple(self._rotation_of(v) for v in range(self.n))
            a, b = dart
            stack.append([a, b, self._options(b, a), 0, -1, -1, []])
            while not (corners := self._advance(stack[-1])):
                stack.pop()
                if not stack:
                    return None

    def _rotation_of(self, v: int) -> tuple[int, ...]:
        start = (self.nmask[v] & -self.nmask[v]).bit_length() - 1
        rule = self.rule[v]
        out = [start]
        while (w := rule[out[-1]].bit_length() - 1) != start:
            out.append(w)
        return tuple(out)

    def _most_constrained(self, corners: int = -1) -> tuple[int, int] | None:
        """The open dart to branch on among those out of or into the corners
        mask, or over all open darts when none of those is open; None when
        every dart is in a face."""
        rule, free = self.rule, self.free
        ft, rk, fb, uf, pf = self.ft, self.rk, self.fb, self.uf, self.pf
        matrix, column = self.matrix, self.column
        best, fewest = None, 1 << 62
        full = corners == -1
        for a, darts in enumerate(self.open):
            if not corners >> a & 1:
                darts &= corners
            elif full and a & 15 == 15:
                self.ticker.clock()  # a full scan's row costs O(n^3) bit operations at a dense graph
            if not darts:
                continue
            rows_a = matrix >> a & column
            while darts:
                low = darts & -darts
                darts ^= low
                b = low.bit_length() - 1
                after_b = rule[b][a]
                if after_b < 0:
                    after_b &= free[b]
                loose = after_b & uf[b]
                count = (rows_a * loose & ft & rk[b]).bit_count() - (loose & pf[b]).bit_count()
                if loose != after_b:
                    count += (rows_a * (after_b ^ loose) & fb[b]).bit_count()
                if count < fewest:
                    best, fewest = (a, b), count
                    if count <= 1:
                        return best
        if best is None and not full:
            return self._most_constrained()
        return best

    def _advance(self, frame: list) -> int:
        """Take back the face the frame placed, if any, and place its next
        completion that fits: the mask of its four corners, or 0 once none
        is left.  The frame's records are the successors its face set, in
        the form the class docstring gives."""
        a, b, after_b, after_c, c, d, placed = frame
        n, rule, ends, free = self.n, self.rule, self.ends, self.free
        if d >= 0:
            self._toggle_face(a, b, c, d)
        # the corners are distinct, so each record has a vertex of its own
        # and the records come back in any order
        for v, u, w, t, h, _, rule_u, rule_t in placed:
            ends_v, rule_v = ends[v], rule[v]
            # split the path h..u w..t back in two
            ends_v[h], ends_v[u], ends_v[w], ends_v[t] = u, h, t, w
            rule_v[t], rule_v[u] = rule_t, rule_u
            free[v] |= 1 << w
        # Completions (c, d) come in ascending order of c, then d: c in
        # options(b, a) and d in options(c, b) & nmask[a], all read in the
        # state the frame's face is placed from, which taking a face back
        # restores.  The four corners are distinct and a successor changes
        # only its own corner's state, so a completion fits when a may
        # follow c at d and b may follow d at a.  Only rule and free are
        # read here, so the packed tables catch up after the search.
        corners, fresh = 0, []
        while after_c or after_b:
            if not after_c:  # the next option c, with its options d
                low = after_b & -after_b
                after_b ^= low
                c = low.bit_length() - 1
                after_c = self._options(c, b) & self.nmask[a]
                continue
            low = after_c & -after_c
            after_c ^= low
            d = low.bit_length() - 1
            self.ticker()
            if self._options(d, c) >> a & 1 and self._options(a, d) >> b & 1:
                corners = 1 << a | 1 << b | 1 << c | 1 << d
                break
        if corners:
            frame[2:] = after_b, after_c, c, d, fresh
            for v, u, w in ((b, a, c), (c, b, d), (d, c, a), (a, d, b)):
                rule_v = rule[v]
                rule_u = rule_v[u]
                if rule_u >= 0:
                    continue  # the successor is already set
                # join the path h..u to the path w..t
                ends_v = ends[v]
                h, t = ends_v[u], ends_v[w]
                ends_v[h], ends_v[t] = t, h
                rest = free[v] = free[v] ^ 1 << w
                many = rest & (rest - 1) != 0
                fresh.append((v, u, w, t, h, many, rule_u, rule_v[t]))
                rule_v[t] = ~(1 << t | 1 << h) if many else ~(1 << t)
                rule_v[u] = 1 << w
            self._toggle_face(a, b, c, d)
        # one pass of XOR flips over the packed tables takes back the old
        # face's successors and sets the new face's, in either order
        ft, rk, fb, uf, pf = self.ft, self.rk, self.fb, self.uf, self.pf
        for v, u, w, t, h, many, _, _ in placed + fresh:
            bit = 1 << w * n + v
            ft ^= bit
            fb[u] ^= bit
            uf[u] ^= 1 << v
            pf[w] ^= 1 << v
            if t != u:
                if w != t:
                    rk[t] ^= bit
                if many:
                    rk[t] ^= 1 << h * n + v
        self.ft = ft
        return corners

    def _toggle_face(self, a: int, b: int, c: int, d: int) -> None:
        """Flip the open bits of the face's four darts, which are all open or all used."""
        opened = self.open
        opened[a] ^= 1 << b
        opened[b] ^= 1 << c
        opened[c] ^= 1 << d
        opened[d] ^= 1 << a


@lru_cache(maxsize=1)
def _column(n: int) -> int:
    """Bit 0 of every row of an n x n matrix packed into one integer, row v
    at bits v*n .. v*n + n - 1: doubling the rows costs O(n^2) bit
    operations in all, and a search asks for one order at a time."""
    column, rows = 1 if n else 0, 1
    while rows < n:
        more = min(rows, n - rows)  # copy the top rows, up to n in all
        column |= column >> (rows - more) * n << rows * n
        rows += more
    return column


def _corners_linked(nmask: list[int], ticker: _Ticker) -> int | None:
    """The corner-link test on a graph given by its neighbour masks: None
    proves that the graph has no quadrangulation; otherwise the adjacency
    matrix packed into one integer, row v at bits v*n .. v*n + n - 1, for
    the assembler.

    Call two vertices linked when they have at least two common neighbours.
    Two neighbours u and w consecutive in the rotation at v lie on one quad
    face (u, v, w, x) with x != v, so they are linked through v and x.  Each
    neighbour u of v has two such rotation neighbours at v, or one when v
    has degree 2, so in a quadrangulation u is linked to at least
    min(2, deg v - 1) other neighbours of v.  The test reads no labels and
    no rotation, so it rejects only graphs that every labelling and every
    embedding would fail on.

    Both counts run on the packed matrix (see ``_tally``): O(n) operations
    on n^2-bit integers instead of a Python loop over the O(n^2) vertex
    pairs.  Each of its three loops (the packing, both tallies and the
    ``linked`` rows) reads the ticker's clock every 16th pass.
    """
    n = len(nmask)
    column = _column(n)
    matrix = wide = narrow = 0
    for v, near in enumerate(nmask):
        if v & 15 == 15:
            ticker.clock()
        matrix |= near << v * n
        degree = near.bit_count()
        if degree > 2:
            wide |= near << v * n  # neighbours that need two linked partners
        elif degree == 2:
            narrow |= near << v * n  # neighbours that need one
    # row u of common: every w with two common neighbours, u itself included
    common = _tally(matrix, column, nmask, ticker)[1]
    full = (1 << n) - 1
    linked = []
    for u in range(n):
        if u & 15 == 15:
            ticker.clock()
        linked.append(common >> u * n & full & ~(1 << u))
    # bit u of row v: u has one, or two, partners among the neighbours of v
    once, twice = _tally(matrix, column, linked, ticker)
    return None if wide & ~twice or narrow & ~once else matrix


def _tally(matrix: int, column: int, masks: list[int], ticker: _Ticker) -> tuple[int, int]:
    """Row v of the results: the bits set in at least one, and in at least
    two, of the masks[x] with x a neighbour of v.

    ``matrix >> x & column`` keeps bit 0 of the rows v with x in N(v), and
    multiplying it by an n-bit mask writes the mask into each of those rows
    without a carry into the next, so one product adds masks[x] to every
    row at once; the two bit-sliced counters saturate at two.
    """
    once = twice = 0
    for x, mask in enumerate(masks):
        if x & 15 == 15:
            ticker.clock()
        placed = (matrix >> x & column) * mask
        twice |= once & placed
        once |= placed
    return once, twice


def _search(n: int, genus: int, ticker: _Ticker) -> RotationSystem | None:
    """search_quadrangulation for a non-negative genus, charged to ticker."""
    if n < 4:
        return None  # every quad face needs four distinct vertices
    edge_target = quad_edge_count(n, genus)
    if edge_target is None:
        return None
    # No quad face passes a degree-1 vertex twice, so every degree is at
    # least 2, and the sphere needs degree 2 (the 4-cycle).  At genus >= 1 a
    # degree-2 vertex x with neighbours a and c lies on faces (x, a, b, c)
    # and (x, c, d, a) with b != d: b = d would leave a, b and c of degree 2
    # too, which is the 4-cycle on the sphere.  Deleting x merges the two
    # faces into the quad (a, b, c, d); the graph stays simple and connected
    # and the genus is unchanged.  So a minimum-order quadrangulation of
    # genus >= 1 has minimum degree 3, and a scan upward from the lower
    # bound that lists only such graphs finds the minimum order.
    min_degree = 2 if genus == 0 else 3
    for nmask in _candidate_graphs(n, edge_target, min_degree, ticker):
        ticker()  # before the test, so a stream of rejected candidates meets the clock
        matrix = _corners_linked(nmask, ticker)
        if matrix is None:
            continue
        rotations = _FaceAssembler(nmask, ticker, matrix).search()
        # a disconnected graph has no quadrangulation
        if rotations is None or not _connected(rotations):
            continue
        system = RotationSystem(rotations)
        report = validate_quadrangulation(system)
        if not report.is_quadrangulation or report.genus != genus:
            raise RuntimeError("assembler produced an invalid witness; search defect")
        return system
    return None


def search_quadrangulation(
    n: int, genus: int, budget: SearchBudget | None = None
) -> RotationSystem | None:
    """Find a quadrangulation with the given order and genus: a verified
    witness embedding, or None.

    On the sphere None proves that no quadrangulation of order n exists.
    At genus >= 1 the search lists only graphs of minimum degree 3, so None
    rules out only those at order n; it proves that no quadrangulation of
    order n exists when every order from order_lower_bound(genus) up to n
    also answers None, because deleting a degree-2 vertex leaves a
    quadrangulation of the same genus one order lower (see _search).
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if n < 0:
        raise ValueError("order must be non-negative")
    return _search(n, genus, _Ticker(budget or SearchBudget()))


class MinOrderWitness(NamedTuple):
    """Result of a minimum-order scan: the order found, a verified witness,
    and the number of search nodes spent."""

    genus: int
    order: int
    witness: RotationSystem
    nodes: int


def min_order_bruteforce(
    genus: int, budget: SearchBudget | None = None, max_order: int | None = None
) -> MinOrderWitness | None:
    """Scan orders upward until a quadrangulation of the genus exists.

    The scan starts at the arithmetic lower bound (order 4 for the sphere)
    and can stop at the spinal order, where existence is guaranteed.  Genus
    above 2 requires an explicit budget, as a guard against accidentally
    launching a monster search.  The budget spans the whole scan.

    A ``max_order`` below the spinal order caps the scan.  If every order up
    to the cap was searched to the end (or lies below the lower bound) with
    no witness, the answer is None: the minimum order exceeds ``max_order``.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if genus > 2 and budget is None:
        raise ValueError("genus above 2 requires an explicit SearchBudget")
    if max_order is not None and max_order < 0:
        raise ValueError("max_order must be non-negative")
    ticker = _Ticker(budget or SearchBudget())
    start = 4 if genus == 0 else order_lower_bound(genus)
    stop = 2 * min_spine_size(genus)
    cap = stop if max_order is None else min(stop, max_order)
    for n in range(start, cap + 1):
        system = _search(n, genus, ticker)
        if system is not None:
            return MinOrderWitness(genus, n, system, ticker.nodes)
    if cap < stop:
        return None  # every order up to the cap has no quadrangulation
    raise RuntimeError("no quadrangulation found up to the guaranteed spinal order; search defect")
