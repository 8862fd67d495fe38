#!/usr/bin/env python
"""Dynamic maintenance: an insertion into a live, indexed database.

An extension beyond the paper's static setting: a new business opens
after the index is built; its postings and signature bits are pushed
into the live SIF index and the very next query finds it.

Run with::

    python examples/live_updates.py
"""

from repro import SKQuery, datasets


def main() -> None:
    db = datasets.build_dataset("SYN", scale=0.25)
    index = db.build_index("sif")
    print(f"Dataset: {db.dataset_statistics()}")

    anchor = next(iter(db.store))
    terms = ["nightmarket", "rooftop"]  # brand new keywords
    query = SKQuery.create(anchor.position, terms, delta_max=3000.0)
    print(f"\nBefore insertion, '{' AND '.join(terms)}' finds "
          f"{len(db.sk_search(index, query))} objects.")

    db.insert_object(anchor.position, terms, indexes=[index])
    result = db.sk_search(index, query)
    print(f"After inserting one object, the same query finds "
          f"{len(result)} object(s) at distance "
          f"{result.items[0].distance:.0f}.")


if __name__ == "__main__":
    main()
