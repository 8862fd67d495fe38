import random

import pytest

from perf.workloads import (
    HOT_GRID, REGION_OPS, WORKLOADS, Catalogue, CatalogueObject, generate, ops_for,
)


@pytest.fixture(scope="module")
def catalogue():
    rng = random.Random(1)
    vocabulary = [f"t{i}" for i in range(40)]
    objects = [
        CatalogueObject(
            i, rng.randrange(200), rng.random(),
            tuple(sorted(rng.sample(vocabulary, rng.randint(2, 8)))),
            rng.uniform(0, 1000), rng.uniform(0, 1000),
        )
        for i in range(1000)
    ]
    return Catalogue(objects)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream_and_longer_extends_shorter(catalogue, name):
    spec = WORKLOADS[name]
    a = generate(spec, catalogue, 7, 60)
    assert a == generate(spec, catalogue, 7, 60)
    assert generate(spec, catalogue, 7, 90)[:60] == a
    assert a != generate(spec, catalogue, 8, 60)
    assert all(op.is_query for op in generate(spec, catalogue, 7, 30, "warmup"))


def test_query_shapes(catalogue):
    for name, spec in WORKLOADS.items():
        for op in generate(spec, catalogue, 3, 40):
            if op.is_query:
                assert len(op.terms) == spec.num_keywords
                assert op.delta_max == spec.delta_max
                assert 0.0 <= op.fraction <= 1.0
    assert all(op.kind == "sk" for op in generate(WORKLOADS["sk_range"], catalogue, 3, 10))


def test_mixed_updates_interleaves_one_update_per_four_queries(catalogue):
    spec = WORKLOADS["mixed_updates"]
    ops = generate(spec, catalogue, 11, 500)
    kinds = [op.kind for op in ops]
    assert [k != "div" for k in kinds[:10]] == [False] * 4 + [True] + [False] * 4 + [True]
    updates = [op for op in ops if not op.is_query]
    assert len(updates) == 100
    deleted = [op.object_id for op in updates if op.kind == "delete"]
    assert len(deleted) == len(set(deleted)), "an object is deleted once at most"
    assert {op.kind for op in updates} == {"insert", "delete", "edge_weight"}


def test_hot_region_tours_every_cell_before_repeating(catalogue):
    spec = WORKLOADS["mixed_updates"]
    cells = catalogue.grid_cells(HOT_GRID)
    assert len(cells) == HOT_GRID ** 2
    assert {len(c) for c in cells} <= {len(catalogue.objects) // len(cells),
                                      len(catalogue.objects) // len(cells) + 1}
    cell_of = {o.object_id: n for n, cell in enumerate(cells) for o in cell}
    spot = {(o.edge_id, o.fraction): cell_of[o.object_id] for o in catalogue.objects}

    ops = generate(spec, catalogue, 11, len(cells) * REGION_OPS)
    visited = []
    for start in range(0, len(ops), REGION_OPS):
        here = {
            cell_of[op.object_id] if op.kind == "delete"
            else spot[(op.edge_id, op.fraction)]
            for op in ops[start:start + REGION_OPS] if op.kind != "edge_weight"
        }
        assert len(here) == 1, "one segment, one region"
        visited.append(here.pop())
    assert sorted(visited) == list(range(len(cells)))
    assert visited != sorted(visited), "the order is the seed's"


def test_stream_size_is_fixed_by_seconds_not_by_speed():
    spec = WORKLOADS["div_wide"]
    assert ops_for(spec, 12, 3) == int(spec.nominal_ops_per_second * 4)
    assert ops_for(spec, 0.1, 3) == 20
