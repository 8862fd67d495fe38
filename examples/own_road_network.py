#!/usr/bin/env python
"""Your own data: a road network from ``.cnode``/``.cedge`` files and
places given as coordinates.

The paper's real datasets (North America, San Francisco, ...) come as a
``.cnode`` file (``node_id x y`` per line) and a ``.cedge`` file
(``edge_id n1 n2 distance`` per line).  This example writes a small pair
of such files, loads the network from them, snaps each place onto its
closest road segment (paper §5), asks for the two nearest cafés — the
boolean kNN query, an SK query with a ``limit`` — and saves and reloads
the dataset as a snapshot.

Run with::

    python examples/own_road_network.py
"""

import tempfile
from pathlib import Path

from repro import Database, SKQuery
from repro.datasets.io import load_cnode_cedge, load_dataset, save_dataset
from repro.network.objects import snap_point_to_edge
from repro.spatial.geometry import Point

#: A 4 × 4 grid of crossings 100 m apart.
SIDE, SPACING = 4, 100.0

#: Places as a data source would give them: coordinates and keywords.
PLACES = [
    (40.0, 8.0, {"cafe", "wifi"}),
    (110.0, 95.0, {"cafe"}),
    (205.0, 150.0, {"bakery", "cafe"}),
    (290.0, 260.0, {"cafe", "wifi"}),
    (160.0, 210.0, {"bakery"}),
    (20.0, 250.0, {"park"}),
]


def write_sample(folder: Path):
    """The grid as a ``.cnode``/``.cedge`` pair."""
    cnode, cedge = folder / "grid.cnode", folder / "grid.cedge"
    node = lambda r, c: r * SIDE + c  # noqa: E731
    cnode.write_text("".join(
        f"{node(r, c)} {c * SPACING} {r * SPACING}\n"
        for r in range(SIDE) for c in range(SIDE)
    ))
    pairs = [
        (node(r, c), node(r, c + 1)) for r in range(SIDE) for c in range(SIDE - 1)
    ] + [
        (node(r, c), node(r + 1, c)) for r in range(SIDE - 1) for c in range(SIDE)
    ]
    cedge.write_text("".join(
        f"{i} {a} {b} {SPACING}\n" for i, (a, b) in enumerate(pairs)
    ))
    return cnode, cedge


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        network = load_cnode_cedge(*write_sample(folder))
        print(f"Loaded {network.num_nodes} nodes, {network.num_edges} edges")

        db = Database(network)
        for x, y, keywords in PLACES:
            position = snap_point_to_edge(network, db.edge_rtree, Point(x, y))
            db.add_object(position, keywords)
        db.freeze()
        index = db.build_index("sif")

        here = snap_point_to_edge(network, db.edge_rtree, Point(150.0, 150.0))
        nearest = db.sk_search(
            index, SKQuery.create(here, ["cafe"], delta_max=1e9, limit=2)
        )
        print("Two nearest cafés by road:")
        for item in nearest:
            obj = item.object
            print(f"  #{obj.object_id} {sorted(obj.keywords)} "
                  f"at {item.distance:.0f} m")

        snapshot = folder / "city.json"
        save_dataset(db.store, snapshot)
        store = load_dataset(snapshot)
        same = [(o.position, o.keywords) for o in store] == [
            (o.position, o.keywords) for o in db.store
        ]
        print(f"Snapshot reloads {len(store)} places unchanged: {same}")


if __name__ == "__main__":
    main()
