import math
from types import SimpleNamespace

import pytest

from perf import verify
from perf.workloads import Op

# Six nodes; node 5 hangs off an edge nothing else reaches.
#
#   0 --10-- 1 --10-- 2
#   |                 |
#   4                 3          4 --5-- 5   (edge 5, its own island)
#   |                 |
#   3 ------20--------+   (edge 3 joins node 3 to node 2, edge 4 is 0-3)
EDGES = [
    (0, 0, 1, 10.0),
    (1, 1, 2, 10.0),
    (2, 0, 3, 4.0),
    (3, 2, 3, 3.0),
    (5, 4, 5, 5.0),
]
FOOD = frozenset({"food"})
OBJECTS = [
    (0, 0, 2.0, frozenset({"food", "bar"})),   # edge 0, 2 from node 0
    (1, 0, 9.0, frozenset({"food"})),          # same edge, 9 from node 0
    (2, 1, 5.0, frozenset({"food"})),          # edge 1, 5 from node 1
    (3, 3, 1.0, frozenset({"bar"})),           # no "food"
    (4, 5, 2.0, frozenset({"food"})),          # unreachable island
]


@pytest.fixture
def oracle():
    return verify.Oracle(EDGES, OBJECTS)


def test_dijkstra_on_the_hand_graph(oracle):
    dist = verify.dijkstra(oracle.adjacency, {0: 0.0})
    # 0→3 direct (4), 0→3→2 (7) beats 0→1→2 (20), 1 via 0 (10).
    assert dist == {0: 0.0, 3: 4.0, 2: 7.0, 1: 10.0}
    assert 4 not in dist and 5 not in dist
    assert verify.dijkstra(oracle.adjacency, {0: 0.0}, cutoff=5.0) == {0: 0.0, 3: 4.0}


def test_same_edge_distance_is_along_the_edge(oracle):
    # Query on edge 0 at offset 1: object 1 (offset 9) is 8 away along
    # the edge even though 1→0→3→2→1 would be... longer anyway; the rule
    # matters for object 0: |2 - 1| = 1.
    answer = oracle.sk_range(0, 1.0, FOOD, 100.0)
    assert answer[0] == 1.0
    assert answer[1] == 8.0
    # Object 2 on edge 1: via node 1 (9 + 5 = 14) or node 2 (1+4+3 + 5 = 13).
    assert answer[2] == 13.0


def test_unreachable_and_out_of_range_objects_are_left_out(oracle):
    answer = oracle.sk_range(0, 1.0, FOOD, 100.0)
    assert 4 not in answer          # island
    assert 3 not in answer          # lacks the term
    assert set(oracle.sk_range(0, 1.0, FOOD, 8.0)) == {0, 1}
    assert oracle.distances_from(0, 1.0)(5, 2.0) == math.inf


def test_objective_from_scratch(oracle):
    # Two objects on one edge, 7 apart; delta_max 10, lambda 0.8.
    value = oracle.objective([(0, 2.0), (0, 9.0)], [1.0, 8.0], 10.0, 0.8)
    rel = ((1 - 0.1) + (1 - 0.8)) / 2
    assert value == pytest.approx(0.8 * rel + 0.2 * (7.0 / 20.0))
    assert oracle.objective([], [], 10.0, 0.8) == 0.0
    assert oracle.objective([(0, 2.0)], [1.0], 10.0, 0.8) == pytest.approx(0.72)


def _item(object_id, edge_id, offset, distance, keywords=FOOD):
    position = SimpleNamespace(edge_id=edge_id, offset=offset)
    obj = SimpleNamespace(object_id=object_id, position=position, keywords=keywords)
    return SimpleNamespace(object=obj, distance=distance)


def test_digest_is_stable_and_rounds_as_documented():
    result = SimpleNamespace(
        items=[_item(7, 0, 2.0, 1.23456789), _item(9, 0, 9.0, 8.0)],
        objective_value=0.123456789123,
    )
    assert verify.result_digest(result) == "f1e51f541b802e8b"
    # Below the recorded precision: same digest.
    result.items[0].distance = 1.2345678
    result.objective_value = 0.1234567891
    assert verify.result_digest(result) == "f1e51f541b802e8b"
    result.items[0].distance = 1.2346
    assert verify.result_digest(result) != "f1e51f541b802e8b"


def test_invariants_and_oracle_catch_wrong_answers(oracle):
    op = Op("sk", edge_id=0, fraction=0.1, terms=FOOD, delta_max=100.0)
    position = SimpleNamespace(edge_id=0, offset=1.0)
    stats = SimpleNamespace(candidates=3, expansion_terminated_early=False)
    good = SimpleNamespace(items=[
        _item(0, 0, 2.0, 1.0), _item(1, 0, 9.0, 8.0), _item(2, 1, 5.0, 13.0),
    ], stats=stats)
    assert verify.check_invariants(op, good) == []
    assert verify.check_against_oracle(oracle, op, position, good) == []

    off_by_one_percent = SimpleNamespace(items=[
        _item(0, 0, 2.0, 1.01), _item(1, 0, 9.0, 8.0), _item(2, 1, 5.0, 13.0),
    ], stats=stats)
    assert verify.check_against_oracle(oracle, op, position, off_by_one_percent)

    missing = SimpleNamespace(items=good.items[:2], stats=stats)
    assert verify.check_against_oracle(oracle, op, position, missing)

    unsorted = SimpleNamespace(items=good.items[::-1], stats=stats)
    assert verify.check_invariants(op, unsorted)

    wrong_term = SimpleNamespace(items=[
        _item(3, 3, 1.0, 5.0, frozenset({"bar"})),
    ], stats=stats)
    assert verify.check_invariants(op, wrong_term)
