"""Edge partitioning for the enhanced signature technique (paper §3.3).

An edge with ``m`` objects (indexed by visiting order along the edge)
is split by ``c`` cuts into ``c + 1`` virtual edges, each carrying its
own signature.  A good partition separates objects whose keyword
combinations trigger *false hits* — edges that pass the signature test
yet contain no object satisfying the AND constraint.

Two solvers are provided, both driven by a query log:

* :func:`dp_partition` — the exact dynamic program of Algorithm 4
  (``O(c^2 m^3)`` subproblem evaluations);
* :func:`greedy_partition` — the iterative cut refinement the paper
  uses in its experiments ("up to two orders of magnitude faster ...
  while they achieve similar performance in terms of I/O costs").
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Sequence, Set, Tuple

__all__ = [
    "QueryLog",
    "false_hit_cost",
    "partition_cost",
    "segments_from_cuts",
    "dp_partition",
    "greedy_partition",
]

#: A query log: ``(query keyword set, probability)`` pairs.
QueryLog = Sequence[Tuple[FrozenSet[str], float]]


def false_hit_cost(
    group_keywords: Sequence[AbstractSet[str]], terms: FrozenSet[str]
) -> int:
    """ξ(q, e') for one virtual edge.

    ``group_keywords`` holds the keyword set of every object in the
    virtual edge: a ``frozenset``, or an object's
    :class:`~repro.network.objects.Keywords`.  The cost is the number
    of objects loaded due to a false hit: the full group size when the
    signature test passes but no object contains all query keywords,
    zero otherwise (signature failure or true hit).
    """
    if not group_keywords or not terms:
        return 0
    union: Set[str] = set()
    for kws in group_keywords:
        if terms <= kws:
            return 0  # true hit
        union.update(kws)
    if terms <= union:
        return len(group_keywords)  # passes the signature test, no result
    return 0  # fails the signature test


def segments_from_cuts(m: int, cuts: Sequence[int]) -> List[Tuple[int, int]]:
    """Inclusive ``(start, end)`` object ranges induced by cut positions.

    A cut at position ``p`` separates objects ``p`` and ``p + 1``
    (0-based); valid positions are ``0 .. m - 2``.
    """
    bounds = sorted(set(cuts))
    for p in bounds:
        if not 0 <= p <= m - 2:
            raise ValueError(f"cut position {p} out of range for {m} objects")
    segments: List[Tuple[int, int]] = []
    start = 0
    for p in bounds:
        segments.append((start, p))
        start = p + 1
    segments.append((start, m - 1))
    return segments


def partition_cost(
    object_keywords: Sequence[AbstractSet[str]],
    cuts: Sequence[int],
    query_log: QueryLog,
) -> float:
    """ξ(Q, P): expected false-hit cost of a partition under a query log."""
    segments = segments_from_cuts(len(object_keywords), cuts)
    total = 0.0
    for terms, prob in query_log:
        if prob <= 0:
            continue
        for start, end in segments:
            total += prob * false_hit_cost(object_keywords[start : end + 1], terms)
    return total


def _segment_cost_table(
    object_keywords: Sequence[AbstractSet[str]], query_log: QueryLog
) -> Dict[Tuple[int, int], float]:
    """Pre-compute ξ(Q, ·) of every contiguous object range (Eq. 7)."""
    m = len(object_keywords)
    table: Dict[Tuple[int, int], float] = {}
    for i in range(m):
        for j in range(i, m):
            cost = 0.0
            group = object_keywords[i : j + 1]
            for terms, prob in query_log:
                if prob > 0:
                    cost += prob * false_hit_cost(group, terms)
            table[(i, j)] = cost
    return table


def dp_partition(
    object_keywords: Sequence[AbstractSet[str]],
    cuts: int,
    query_log: QueryLog,
) -> Tuple[Tuple[int, ...], float]:
    """Algorithm 4: optimal partition with exactly ``min(cuts, m-1)`` cuts.

    Returns ``(cut_positions, cost)``.  ``P*(i, j, c)`` is the minimum
    cost of splitting objects ``i..j`` into ``c + 1`` virtual edges
    (Equations 7–9); memoised recursion replaces the explicit tables.
    """
    m = len(object_keywords)
    if m == 0:
        return (), 0.0
    cuts = max(0, min(cuts, m - 1))
    base = _segment_cost_table(object_keywords, query_log)
    memo: Dict[Tuple[int, int, int], Tuple[float, Tuple[int, ...]]] = {}

    def solve(i: int, j: int, c: int) -> Tuple[float, Tuple[int, ...]]:
        if c == 0:
            return base[(i, j)], ()
        if j - i < c:  # not enough cutting positions
            return float("inf"), ()
        key = (i, j, c)
        if key in memo:
            return memo[key]
        best_cost = float("inf")
        best_cuts: Tuple[int, ...] = ()
        for k in range(i, j):  # a cut right after the k-th object
            for v in range(c):  # v cuts on the left of k, c-1-v on the right
                left_cost, left_cuts = solve(i, k, v)
                if left_cost >= best_cost:
                    continue
                right_cost, right_cuts = solve(k + 1, j, c - v - 1)
                cost = left_cost + right_cost
                if cost < best_cost:
                    best_cost = cost
                    best_cuts = tuple(sorted({*left_cuts, k, *right_cuts}))
        memo[key] = (best_cost, best_cuts)
        return memo[key]

    cost, positions = solve(0, m - 1, cuts)
    return positions, cost


def _split_costs(
    object_keywords: Sequence[AbstractSet[str]],
    start: int,
    end: int,
    query_log: QueryLog,
) -> Tuple[float, List[float]]:
    """Segment cost and the cost of every split of ``[start, end]``.

    Returns ``(cost_of_whole_segment, costs)`` where ``costs[i]`` is
    the combined cost of the two segments produced by cutting after
    object ``start + i``.  One forward and one backward sweep per query
    evaluates *all* split points in ``O(len · |q.T|)`` — this is what
    gives the greedy its ``O(c·m·(s_t + |Q|·q_t))`` complexity against
    the DP's ``O(c² m³)``.
    """
    n = end - start + 1
    whole = 0.0
    costs = [0.0] * (n - 1)
    for terms, prob in query_log:
        if prob <= 0 or not terms:
            continue
        # Backward sweep: suffix "passes signature" / "has a true hit".
        suffix_pass = [False] * n
        suffix_hit = [False] * n
        missing: Set[str] = set(terms)
        hit = False
        for i in range(n - 1, -1, -1):
            kws = object_keywords[start + i]
            missing.difference_update(kws)
            hit = hit or terms <= kws
            suffix_pass[i] = not missing
            suffix_hit[i] = hit
        if suffix_pass[0] and not suffix_hit[0]:
            whole += prob * n
        # Forward sweep: prefix state, combine with the suffix arrays.
        p_missing: Set[str] = set(terms)
        p_hit = False
        for i in range(n - 1):
            kws = object_keywords[start + i]
            p_missing = p_missing.difference(kws)
            p_hit = p_hit or terms <= kws
            left_cost = (i + 1) if (not p_missing and not p_hit) else 0
            right_cost = (
                (n - i - 1) if (suffix_pass[i + 1] and not suffix_hit[i + 1]) else 0
            )
            costs[i] += prob * (left_cost + right_cost)
    return whole, costs


def greedy_partition(
    object_keywords: Sequence[AbstractSet[str]],
    cuts: int,
    query_log: QueryLog,
) -> Tuple[Tuple[int, ...], float]:
    """Greedy cut refinement (paper §3.3, used in the experiments).

    Starting from the whole edge (0 cuts), each iteration adds the
    single cut position that minimises the partition cost, up to
    ``cuts`` cuts and only while a cut lowers the cost.  Adding a cut
    only changes the segment it splits, so each round evaluates fresh
    segments once via :func:`_split_costs` and reuses cached
    evaluations for the rest.  Returns ``(cut_positions, cost)``.
    """
    m = len(object_keywords)
    if m <= 1 or cuts <= 0:
        return (), partition_cost(object_keywords, (), query_log)

    def evaluate(start: int, end: int):
        """(segment cost, best delta, best split position) — cached."""
        whole, costs = _split_costs(object_keywords, start, end, query_log)
        if not costs:
            return whole, float("inf"), -1
        best_i = min(range(len(costs)), key=costs.__getitem__)
        return whole, costs[best_i] - whole, start + best_i

    # Segments as (start, end, cost, best_delta, best_position).
    segments: List[Tuple[int, int, float, float, int]] = []
    cost0, delta0, pos0 = evaluate(0, m - 1)
    segments.append((0, m - 1, cost0, delta0, pos0))
    chosen: List[int] = []
    for _ in range(min(cuts, m - 1)):
        seg_idx = min(
            range(len(segments)), key=lambda i: segments[i][3]
        )
        start, end, _cost, delta, position = segments[seg_idx]
        if position < 0 or delta >= 0:
            break
        l_cost, l_delta, l_pos = evaluate(start, position)
        r_cost, r_delta, r_pos = evaluate(position + 1, end)
        segments[seg_idx : seg_idx + 1] = [
            (start, position, l_cost, l_delta, l_pos),
            (position + 1, end, r_cost, r_delta, r_pos),
        ]
        chosen.append(position)
    return tuple(sorted(chosen)), sum(s[2] for s in segments)
