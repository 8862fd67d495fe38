"""The C pairwise path against the Python one it must equal exactly.

``single_source_rows`` (scipy's Dijkstra over the network's CSR
snapshot) has to produce the very floats ``single_source_distances``
does, and ``PairwiseDistanceComputer.pairwise_matrix`` the very cells,
and the very counters, ``pairwise()`` does; a computer that charges
pages through a provider, the very cells of one that does not.
Worlds are drawn by hypothesis: node ids with gaps, a second component
nothing reaches, positions at offset 0 and at offset = weight, several
positions on one edge, the same position twice, cutoffs that truncate.
A diversified query's search stops short of its cutoff, at its pool's
limit; on an INE pool its cells must still equal a full search's.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversified_search import PairDistances
from repro.core.ine import INEExpansion
from repro.core.queries import ResultItem
from repro.errors import QueryError
from repro.network import distance as distance_module
from repro.network.distance import (
    PAIRWISE_CUTOFF_FACTOR,
    PairwiseDistanceComputer,
    single_source_distances,
    single_source_rows,
)
from repro.network.graph import CSRSnapshot, NetworkPosition, RoadNetwork
from repro.network.objects import SpatioTextualObject
from repro.obs.tracing import NULL_TRACER
from tests.conftest import make_paperlike_network

weights = st.floats(0.5, 50.0, allow_nan=False).map(lambda w: w / 3.0)


@st.composite
def worlds(draw):
    """``(network, positions, cutoff)``."""
    size = draw(st.integers(3, 12))
    island = draw(st.integers(2, 3))
    ids = draw(st.lists(
        st.integers(0, 400), min_size=size + island, max_size=size + island,
        unique=True,
    ))
    network = RoadNetwork()
    for k, node_id in enumerate(ids):
        network.add_node(node_id, float(k), float(k * k % 7))
    main, rest = ids[:size], ids[size:]
    # A spanning tree keeps the main component connected; the island is
    # a path no edge joins to it.
    for k in range(1, size):
        parent = main[draw(st.integers(0, k - 1))]
        network.add_edge(main[k], parent, weight=draw(weights), length=1.0)
    for a, b in zip(rest, rest[1:]):
        network.add_edge(a, b, weight=draw(weights), length=1.0)
    for _ in range(draw(st.integers(0, size))):
        a, b = draw(st.sampled_from(main)), draw(st.sampled_from(main))
        if a != b and network.edge_between(a, b) is None:
            network.add_edge(a, b, weight=draw(weights), length=1.0)

    def position(edge_id, where):
        weight = network.edge(edge_id).weight
        offset = {"start": 0.0, "end": weight}.get(where)
        return NetworkPosition(
            edge_id, offset if offset is not None else weight * where
        )

    wheres = st.one_of(
        st.sampled_from(["start", "end"]),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    positions = draw(st.lists(
        st.builds(position, st.integers(0, network.num_edges - 1), wheres),
        min_size=0, max_size=9,
    ))
    if positions and draw(st.booleans()):
        positions.append(draw(st.sampled_from(positions)))  # a duplicate
    cutoff = draw(st.one_of(
        st.just(math.inf), st.floats(0.1, 60.0, allow_nan=False)
    ))
    return network, positions, cutoff


def row_as_dict(network, row):
    ids = network.csr_snapshot().node_ids
    return {
        int(ids[r]): float(row[r]) for r in np.flatnonzero(np.isfinite(row))
    }


def same_arrays(a: CSRSnapshot, b: CSRSnapshot) -> bool:
    return a.index_of == b.index_of and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("node_ids", "indptr", "indices", "weights",
                     "edge_rows", "edge_cells")
    )


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_rows_equal_the_python_loops_dicts(world):
    network, positions, cutoff = world
    rows = single_source_rows(network, positions, cutoff)
    assert rows.shape == (len(positions), network.num_nodes)
    for row, source in zip(rows, positions):
        assert row_as_dict(network, row) == single_source_distances(
            network, network, source, cutoff
        )


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_matrix_equals_pairwise_cell_for_cell(world):
    network, positions, cutoff = world
    batched = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    per_pair = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    matrix = batched.pairwise_matrix(positions)
    pairs = per_pair.pairwise(positions)
    n = len(positions)
    assert matrix.shape == (n, n)
    for i in range(n):
        assert matrix[i, i] == 0.0
        for j in range(i + 1, n):
            assert matrix[i, j] == matrix[j, i] == pairs[(i, j)], (i, j)
    assert batched.dijkstra_runs == per_pair.dijkstra_runs
    assert batched.cache_hits == per_pair.cache_hits
    assert batched.cache_misses == per_pair.cache_misses


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_matrix_on_a_warm_cache_equals_pairwise(world, data):
    """Maps a computer already keeps are read as the per-pair path
    would read them: from ``i``'s map if kept, else from ``j``'s — no
    extra Dijkstra, the same floats.  Kept rows may stop short of the
    cutoff (searched with a ``reach``): a read beyond one runs its
    source again on either path, and every cell is a fresh computer's
    (within rounding: a borrowed cell is read from the other end)."""
    network, positions, cutoff = world
    warm = data.draw(st.lists(st.sampled_from(positions), max_size=4)
                     if positions else st.just([]))
    reach = data.draw(st.one_of(st.none(), st.floats(0.0, 20.0)))
    computers = []
    for _ in range(2):
        computer = PairwiseDistanceComputer(network, network, cutoff=cutoff)
        computer._run_dijkstras(warm, reach)
        computers.append(computer)
    batched, per_pair = computers
    matrix = batched.pairwise_matrix(positions)
    pairs = per_pair.pairwise(positions)
    fresh = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    assert np.allclose(
        matrix, fresh.pairwise_matrix(positions), rtol=1e-12, atol=0.0
    )
    for (i, j), d in pairs.items():
        assert matrix[i, j] == matrix[j, i] == d, (i, j)
    assert batched.dijkstra_runs == per_pair.dijkstra_runs
    assert batched.cache_misses == per_pair.cache_misses
    assert batched.cache_hits == per_pair.cache_hits


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_c_computer_equals_the_charged_python_computer(world, data):
    """``csgraph`` against ``dijkstra``: the same matrix cell for cell,
    the same distances whatever order the pairs are asked in, the same
    Dijkstras and cache counters.  The charged computer searches in C
    too; it only reads each settled node through its provider."""
    network, positions, cutoff = world

    class Charged:  # any provider that is not the RoadNetwork itself
        neighbors = staticmethod(network.neighbors)

    in_c = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    charged = PairwiseDistanceComputer(Charged, network, cutoff=cutoff)
    assert (in_c.backend_name, charged.backend_name) == (
        "csgraph", "dijkstra"
    )
    assert np.array_equal(
        in_c.pairwise_matrix(positions), charged.pairwise_matrix(positions)
    )
    n = len(positions)
    asked = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
    ) if n else st.just([]))
    for i, j in asked:
        assert in_c.distance(positions[i], positions[j]) == (
            charged.distance(positions[i], positions[j])
        )
    assert (in_c.dijkstra_runs, in_c.cache_hits, in_c.cache_misses) == (
        charged.dijkstra_runs, charged.cache_hits, charged.cache_misses
    )


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_reweight_patches_the_snapshot_in_place(world, data):
    network, positions, cutoff = world
    snapshot = network.csr_snapshot()
    for _ in range(data.draw(st.integers(1, 3))):
        edge_id = data.draw(st.integers(0, network.num_edges - 1))
        network.update_edge_weight(edge_id, data.draw(weights))
    assert network.csr_snapshot() is snapshot
    assert same_arrays(snapshot, CSRSnapshot(network))
    # ... and the traversal sees the new weights (offsets clipped to the
    # new weight, as a reweight's rescale leaves them).
    moved = [
        NetworkPosition(
            p.edge_id, min(p.offset, network.edge(p.edge_id).weight)
        )
        for p in positions
    ]
    for row, source in zip(
        single_source_rows(network, moved, cutoff), moved
    ):
        assert row_as_dict(network, row) == single_source_distances(
            network, network, source, cutoff
        )


def test_a_new_edge_or_node_rebuilds_the_snapshot():
    network = make_paperlike_network()
    before = network.csr_snapshot()
    assert network.csr_snapshot() is before
    network.add_edge(3, 6, weight=2.5, length=2.5)
    after = network.csr_snapshot()
    assert after is not before
    assert same_arrays(after, CSRSnapshot(network))
    assert len(after.weights) == len(before.weights) + 2
    network.add_node(40, 5.0, 5.0)
    assert network.csr_snapshot() is not after
    assert network.csr_snapshot().num_nodes == after.num_nodes + 1


def test_offset_a_rounding_step_past_the_weight():
    """A negative seed (offset > weight) goes through the Python loop:
    the same labels, and no negative-weight warning out of scipy."""
    network = make_paperlike_network()
    edge = network.edge_between(1, 4)
    source = NetworkPosition(edge.edge_id, math.nextafter(edge.weight, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = single_source_rows(
            network, [NetworkPosition(0, 2.0), source], cutoff=15.0
        )
    for row, pos in zip(rows, [NetworkPosition(0, 2.0), source]):
        assert row_as_dict(network, row) == single_source_distances(
            network, network, pos, 15.0
        )


class EveryObjectMatches:
    """Algorithm 2 reduced to a lookup by edge: one object per position."""

    def __init__(self, positions):
        self._on_edge = {}
        for oid, pos in enumerate(positions):
            self._on_edge.setdefault(pos.edge_id, []).append(
                SpatioTextualObject(oid, pos, frozenset({"x"}))
            )

    def loader(self, terms, counters=None, tracer=NULL_TRACER):
        return lambda edge_id: self._on_edge.get(edge_id, [])


@settings(max_examples=200, deadline=None)
@given(worlds(), st.data())
def test_rows_cut_at_the_limit_equal_full_rows_on_every_pool_pair(
    world, data
):
    """A pool INE emits, asked through ``PairDistances`` (whose search
    stops at ``reach + cutoff / 2``), against the same pool on a
    computer that searches to the full cutoff: every cell, every pair
    asked one at a time, and every counter equal.  The query may sit on
    the island, whose objects are then the whole pool."""
    network, positions, _ = world
    query = data.draw(st.sampled_from(positions) if positions else st.builds(
        NetworkPosition, st.integers(0, network.num_edges - 1), st.just(0.0)
    ))
    delta_max = data.draw(st.floats(0.0, 40.0, allow_nan=False))
    pool = list(INEExpansion(
        network, network, EveryObjectMatches(positions), query,
        frozenset({"x"}), delta_max,
    ).run())
    cutoff = PAIRWISE_CUTOFF_FACTOR * delta_max
    cut = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    full = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    spots = [it.object.position for it in pool]
    assert np.array_equal(PairDistances(cut).matrix(pool),
                          full.pairwise_matrix(spots))
    n = len(pool)
    asked = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
    ) if n else st.just([]))
    cut_pairs = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    full_pairs = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    asked_cut = PairDistances(cut_pairs).distance
    for i, j in asked:
        assert asked_cut(pool[i], pool[j]) == (
            full_pairs.distance(spots[i], spots[j])
        )
    for a, b in ((cut, full), (cut_pairs, full_pairs)):
        assert (a.dijkstra_runs, a.cache_hits, a.cache_misses) == (
            b.dijkstra_runs, b.cache_hits, b.cache_misses
        )


def test_an_understated_query_distance_raises():
    """Two objects 19 apart, each claimed at distance 0 from a query
    with δmax 10.  As a closed pool their sources search to twice their
    reach, 0; one pair at a time, from the first to its reach plus half
    the cutoff (20.02), 10.01.  Either way the search ends short of the
    pair, which comes out beyond a radius it was entitled to, so it is
    ``inf`` where the full search finds 19.  ``PairDistances`` says so
    instead of scoring the pair as ``inf``."""
    network = make_paperlike_network()
    at_n6 = NetworkPosition(network.edge_between(4, 6).edge_id, 4.0)
    at_n2 = NetworkPosition(network.edge_between(1, 2).edge_id, 12.0)
    items = [
        ResultItem(SpatioTextualObject(oid, pos, frozenset({"x"})), 0.0)
        for oid, pos in enumerate([at_n6, at_n2])
    ]
    cutoff = PAIRWISE_CUTOFF_FACTOR * 10.0
    full = PairwiseDistanceComputer(network, network, cutoff=cutoff)
    assert full.distance(at_n6, at_n2) == 19.0
    for ask in (lambda p: p.matrix(items), lambda p: p.distance(*items)):
        pairs = PairDistances(
            PairwiseDistanceComputer(network, network, cutoff=cutoff)
        )
        with pytest.raises(QueryError, match="understates"):
            ask(pairs)


class TestARowReadBeyondItsRadius:
    """A kept row records the radius it was searched to.  A read beyond
    it that the caller is entitled to runs the row's own source again,
    further; one the row already covered is ``inf``."""

    network = make_paperlike_network()
    # a midway down n4–n6, b on n1–n4 4.5 from a, c on n0–n3 13 from a
    a = NetworkPosition(network.edge_between(4, 6).edge_id, 2.0)
    b = NetworkPosition(network.edge_between(1, 4).edge_id, 2.5)
    c = NetworkPosition(network.edge_between(0, 3).edge_id, 4.0)
    cutoff = 100.0

    @pytest.fixture()
    def sources(self, monkeypatch):
        """The sources every ``single_source_rows`` call receives."""
        seen = []
        real = distance_module.single_source_rows

        def recording(network, positions, cutoff=math.inf):
            seen.extend(positions)
            return real(network, positions, cutoff)

        monkeypatch.setattr(distance_module, "single_source_rows", recording)
        return seen

    def short_row(self, sources):
        """``a``'s row cut at 2 · 2.5 (a closed pool ``{a, b}``)."""
        del sources[:]
        computer = PairwiseDistanceComputer(
            self.network, self.network, cutoff=self.cutoff
        )
        matrix = computer.pairwise_matrix([self.a, self.b], reach=2.5)
        assert matrix[0, 1] == 4.5
        assert sources == [self.a] and computer.dijkstra_runs == 1
        del sources[:]
        return computer

    def full(self, x, y):
        return PairwiseDistanceComputer(
            self.network, self.network, cutoff=self.cutoff
        ).distance(x, y)

    def test_one_pair(self, sources):
        want = self.full(self.a, self.c)
        computer = self.short_row(sources)
        assert computer.distance(self.a, self.c) == want == 13.0
        assert computer.distance(self.c, self.a) == 13.0  # now covered
        assert sources == [self.a] and computer.dijkstra_runs == 2

    def test_owner_cell(self, sources):
        want = self.full(self.a, self.c)
        computer = self.short_row(sources)
        matrix = computer.pairwise_matrix([self.a, self.c], reach=self.cutoff)
        assert matrix[0, 1] == matrix[1, 0] == want
        assert sources == [self.a] and computer.dijkstra_runs == 2

    def test_borrowed_cell(self, sources):
        want = self.full(self.a, self.c)  # c's walk borrows a's row
        computer = self.short_row(sources)
        matrix = computer.pairwise_matrix([self.c, self.a], reach=self.cutoff)
        assert matrix[0, 1] == want
        assert sources == [self.a] and computer.dijkstra_runs == 2

    def test_a_row_that_reached_the_entitled_radius_gives_inf(self, sources):
        computer = self.short_row(sources)
        matrix = computer.pairwise_matrix([self.a, self.c], reach=2.5)
        assert matrix[0, 1] == math.inf
        assert sources == [] and computer.dijkstra_runs == 1

    def test_a_charged_row_runs_once(self, sources):
        class Charged:  # any provider that is not the RoadNetwork itself
            neighbors = staticmethod(self.network.neighbors)

        computer = PairwiseDistanceComputer(
            Charged, self.network, cutoff=10.0
        )
        computer.pairwise_matrix([self.a, self.b], reach=2.5)
        assert computer.distance(self.a, self.c) == math.inf  # 13 > 10
        assert sources == [self.a] and computer.dijkstra_runs == 1


SCIPY_ARRIVES_WITH_THE_FIRST_PAIRWISE_DISTANCE = """
import sys
SERVER_MODULES = ("http.server", "socketserver", "ssl", "email")
from repro import datasets, workloads

db = datasets.build_dataset("SYN", scale=0.1)
index = db.build_index("sif")
config = workloads.WorkloadConfig(num_queries=1, seed=1)
db.sk_search(index, workloads.generate_sk_queries(db, config)[0])
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, f"set-up and an SK query imported {loaded[:5]}"
served = [m for m in SERVER_MODULES if m in sys.modules]
assert not served, f"set-up and an SK query imported {served}"
db.diversified_search(index, workloads.generate_diversified_queries(db, config)[0])
assert "scipy.sparse.csgraph" in sys.modules
# scipy brings ``email`` itself (numpy.testing -> importlib.metadata).
served = [m for m in SERVER_MODULES[:3] if m in sys.modules]
assert not served, f"set-up and two queries imported {served}"
oracles = [m for m in ("repro.network.ch", "repro.network.hub_labels")
           if m in sys.modules]
assert not oracles, f"set-up and two queries imported {oracles}"
from repro.obs import TelemetryServer
assert TelemetryServer.__module__ == "repro.obs.server"
assert "http.server" in sys.modules
"""


def test_nothing_before_the_first_pairwise_distance_imports_scipy():
    """Import, dataset build, index build and boolean SK queries carry
    no scipy (0.23 s, ≈ 25 MiB resident on top of ``import repro``);
    the default pairwise backend brings ``csgraph`` in.  Nor do they
    carry the telemetry server's ``http.server``, ``socketserver``,
    ``ssl`` and ``email``, and a diversified query adds only ``email``
    (with scipy): ``repro.obs.TelemetryServer`` imports them on first
    use.  No query loads the hub-label or CH modules: only
    ``Database.hub_oracle`` / ``ch_oracle`` do.  A fresh interpreter,
    because this one has them all."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_ARRIVES_WITH_THE_FIRST_PAIRWISE_DISTANCE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
