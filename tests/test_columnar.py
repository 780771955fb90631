"""Golden suite for the columnar surface of the spilled store.

The backend-equivalence matrix and the codec round trips every store
must pass live in ``test_storage_backends.py``; this suite pins what
only the columnar layout offers:

* **session and consolidation equivalence** — a session overlay over
  a :class:`ColumnarXTupleStore` and the pruned ``detect_between``
  consolidation decide *bitwise* like the in-memory runs;
* **codec edge cases** — empty columns, page-spanning strings and
  per-alternative attribute order survive ``spill_relation →
  iterate`` exactly;
* **projection laziness** — :meth:`project` reads only the selected
  columns' bytes: values match a full decode filtered to the
  selection, and rot in an unselected column is never noticed while a
  full scan trips its CRC;
* **zone maps and pruning** — spill-time statistics answer key-range
  questions that match the data, merge across sources, and let
  :func:`prune_disjoint_sources` drop provably disjoint sources
  without changing the cross-source plan.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.matching.executor import (
    cross_source_plan,
    plan_sources,
    prune_disjoint_sources,
    source_key_ranges,
)
from repro.pdb.errors import SegmentCorruptionError
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.pdb.storage import (
    ColumnarXTupleStore,
    MultiSourceStore,
    SessionStore,
    XTupleStore,
    project_xtuple,
    spill_relation,
)
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.reduction import CertainKeyBlocking

# flat_relation, x_relation and stores are fixtures.
from storage_cases import (  # noqa: F401
    BLOCK_KEY,
    build_detector,
    exact_value_items,
    flat_relation,
    stores,
    triples,
    x_relation,
)


def test_columnar_store_satisfies_the_protocol(x_relation, stores):
    store = open_store(stores["x"])
    assert isinstance(store, XTupleStore)
    assert store.name == x_relation.name
    assert store.schema == x_relation.schema
    assert store.tuple_ids == x_relation.tuple_ids
    assert len(store) == len(x_relation)
    assert list(store) == list(x_relation)
    some_id = x_relation.tuple_ids[0]
    assert some_id in store and "no-such-id" not in store
    assert store.fetch(x_relation.tuple_ids) == x_relation.fetch(
        x_relation.tuple_ids
    )
    with pytest.raises(KeyError):
        store.get("no-such-id")


def test_session_overlay_over_columnar_is_bitwise(x_relation, stores):
    """Session-ingest mode: a columnar base plus appended tuples decides
    exactly like the equivalent in-memory relation."""
    base = open_store(stores["x"], page_size=4, max_pages=3)
    session = SessionStore(base)
    added = [
        XTuple.certain(f"new-{i}", {"name": name, "job": job})
        for i, (name, job) in enumerate(
            [("amelia", "baker"), ("amelio", "baker"), ("zeno", "clerk")]
        )
    ]
    for xtuple in added:
        session.upsert(xtuple)
    union = XRelation(
        x_relation.name,
        x_relation.schema,
        list(x_relation) + added,
    )
    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    reference = build_detector(factory).detect(union)
    overlay = build_detector(factory).detect(session)
    assert triples(overlay) == triples(reference)
    assert overlay.compared_pairs == reference.compared_pairs


def _named(name, rows):
    return XRelation(
        name,
        ("name", "job"),
        [
            XTuple.certain(f"{name}-{i}", {"name": n, "job": j})
            for i, (n, j) in enumerate(rows)
        ],
    )


@pytest.fixture()
def consolidation_sources(tmp_path):
    """Three columnar sources: A/B share the a–c key range, C is z-only."""
    relations = {
        "A": _named(
            "A", [("anna", "baker"), ("bob", "clerk"), ("carl", "smith")]
        ),
        "B": _named(
            "B", [("anne", "baker"), ("bert", "clerk"), ("carla", "smith")]
        ),
        "C": _named("C", [("zeno", "baker"), ("zoe", "clerk")]),
    }
    stores = {
        name: spill_relation(relation, str(tmp_path / name), segment_size=2)
        for name, relation in relations.items()
    }
    return relations, stores


def test_pruned_detect_between_is_bitwise(consolidation_sources):
    """Cross-source detection over columnar sources — where zone maps
    prune the disjoint source before planning — equals the in-memory
    run pair for pair."""
    relations, stores = consolidation_sources
    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    reference = build_detector(factory).detect_between(
        relations["A"], relations["B"], relations["C"],
        within_sources=False,
    )
    pruned = build_detector(factory).detect_between(
        stores["A"], stores["B"], stores["C"], within_sources=False
    )
    assert triples(pruned) == triples(reference)
    assert pruned.compared_pairs == reference.compared_pairs


def test_prune_disjoint_sources_drops_only_provably_disjoint(
    consolidation_sources,
):
    relations, stores = consolidation_sources
    view = MultiSourceStore([stores["A"], stores["B"], stores["C"]])
    reducer = CertainKeyBlocking(BLOCK_KEY)
    ranges = source_key_ranges(view, reducer.prune_key)
    assert ranges[0] is not None and ranges[2] is not None
    survivor, pruned = prune_disjoint_sources(view, reducer)
    assert pruned == ("C",)
    assert survivor.source_names == ("A", "B")
    # The pruned view's cross plan is the full view's, partition for
    # partition: C could only have formed single-source blocks.
    full = cross_source_plan(plan_sources(reducer, view), view)
    small = cross_source_plan(plan_sources(reducer, survivor), survivor)
    assert [p.label for p in small.partitions] == [
        p.label for p in full.partitions
    ]
    assert list(small.pairs()) == list(full.pairs())


def test_prune_keeps_everything_without_statistics(tmp_path):
    """A source whose manifest records no statistics is unbounded, so
    even actually-disjoint data licenses no prune next to it."""
    target = tmp_path / "a-bare"
    spill_relation(_named("A", [("anna", "baker")]), str(target)).close()
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["statistics"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    bare = open_store(str(target))
    columnar = spill_relation(
        _named("C", [("zoe", "clerk")]), str(tmp_path / "c-col")
    )
    view = MultiSourceStore([bare, columnar], name="mixed")
    reducer = CertainKeyBlocking(BLOCK_KEY)
    ranges = source_key_ranges(view, reducer.prune_key)
    assert ranges[0] is None and ranges[1] is not None
    survivor, pruned = prune_disjoint_sources(view, reducer)
    assert survivor is view and pruned == ()


# ----------------------------------------------------------------------
# Codec edge cases
# ----------------------------------------------------------------------


def test_empty_columns_roundtrip(tmp_path):
    """An attribute no alternative carries still gets a column file —
    all-empty lines — and absent values stay absent after the trip.

    XRelation pins tuple attribute sets to the schema, so the sparse
    shape rides in through a duck-typed relation, like the stores the
    spillers accept.
    """
    from repro.pdb.relations import Schema

    xtuples = [
        XTuple(
            "t1",
            [
                TupleAlternative({"name": "Tim"}, 0.6),
                TupleAlternative({"job": "baker"}, 0.4),
            ],
        ),
        XTuple("t2", [TupleAlternative({}, 1.0)]),
    ]

    class Sparse:
        name = "N"
        schema = Schema(("name", "job", "note"))

        def __iter__(self):
            return iter(xtuples)

    relation = Sparse()
    store = spill_relation(relation, str(tmp_path / "sparse"))
    assert list(store) == xtuples
    assert exact_value_items(store) == exact_value_items(relation)
    decoded = store.get("t1")
    assert decoded.alternatives[0].attributes == ("name",)
    assert decoded.alternatives[1].attributes == ("job",)
    assert store.get("t2").alternatives[0].attributes == ()


def test_page_spanning_strings_roundtrip(tmp_path):
    """Values far larger than an OS page slice cleanly out of the mmap."""
    big = "x" * 20_000 + "end"
    relation = XRelation(
        "L",
        ("name", "job"),
        [
            XTuple.certain("t1", {"name": big, "job": "baker"}),
            XTuple.certain("t2", {"name": "tiny", "job": big[::-1]}),
        ],
    )
    store = spill_relation(
        relation, str(tmp_path / "big"), segment_size=1, page_size=1
    )
    assert list(store) == list(relation)
    first = store.get("t1").alternatives[0]
    assert list(first.value("name").items()) == [(big, 1.0)]


def test_columnar_layout_roundtrips_through_open_store(
    tmp_path, x_relation
):
    """A directory spilled with the explicit layout marker re-opens as
    the columnar store."""
    target = str(tmp_path / "dispatch")
    spill_relation(x_relation, target, layout="columnar")
    store = open_store(target, page_size=4, max_pages=2)
    assert isinstance(store, ColumnarXTupleStore)
    assert list(store) == list(x_relation)


# ----------------------------------------------------------------------
# Projection reads only what it needs
# ----------------------------------------------------------------------


def test_projection_matches_filtered_full_decode(x_relation, stores):
    store = open_store(stores["x"])
    view = store.project(["name"])
    assert view.attributes == ("name",)
    assert view.tuple_ids == store.tuple_ids
    expected = [project_xtuple(xt, ("name",)) for xt in x_relation]
    assert list(view) == expected


def test_projection_rejects_unknown_attributes(stores):
    store = open_store(stores["x"])
    with pytest.raises(KeyError, match="not in the schema"):
        store.project(["name", "salary"])


def test_projection_never_reads_unselected_columns(tmp_path, x_relation):
    """Rot in an unselected column goes unnoticed by the projection —
    proof its bytes were never sliced — while a full scan trips the CRC."""
    target = tmp_path / "lazy"
    spill_relation(x_relation, str(target), segment_size=5)
    victim = sorted(target.glob("seg-*.col01.jsonl"))[0]  # the job column
    victim.write_bytes(b'["corrupt"]\n' * 5)
    store = ColumnarXTupleStore(str(target))
    names = [xt.alternatives[0].value("name") for xt in store.project(["name"])]
    assert len(names) == len(x_relation)
    with pytest.raises(SegmentCorruptionError, match="integrity"):
        list(store)


# ----------------------------------------------------------------------
# Zone maps, statistics, integrity
# ----------------------------------------------------------------------


def test_spill_time_statistics_match_streamed(x_relation, stores):
    """The manifest's zone maps equal a fresh streaming pass, exactly."""
    from repro.pdb.storage import relation_statistics

    store = open_store(stores["x"])
    stored = store.statistics()
    streamed = relation_statistics(x_relation)
    for attribute in x_relation.schema.attributes:
        assert stored.attributes[attribute] == streamed.attributes[attribute]
        assert stored.key_range(attribute, 1) == streamed.key_range(
            attribute, 1
        )
    assert stored.key_range("salary", 1) is None


def test_multi_source_statistics_merge(consolidation_sources):
    _, stores = consolidation_sources
    view = MultiSourceStore([stores["A"], stores["C"]])
    merged = view.statistics()
    assert merged is not None
    lo, hi = merged.key_range("name", 1)
    assert (lo, hi) == ("a", "z")


def _rewrite_in_earlier_shape(path):
    """Rewrite a fresh manifest as earlier releases wrote it: store
    counters and first-character key histograms beside the zones,
    ``uncertain``/``values``/``bytes`` counters in every zone, and a
    copy of the zones on every segment."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    statistics = manifest["statistics"]
    count = manifest["count"]
    for zone in statistics["zones"].values():
        zone.update(uncertain=0, values=count, bytes=len(zone["max"]) * count)
    statistics.update(
        count=count,
        alternatives=count,
        histograms={
            attribute: {zone["min"][:1]: count}
            for attribute, zone in statistics["zones"].items()
        },
    )
    for segment in manifest["segments"]:
        segment["zones"] = json.loads(json.dumps(statistics["zones"]))
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_earlier_shaped_manifests_open_and_prune_alike(
    tmp_path, consolidation_sources
):
    """Store directories whose manifests still carry histograms,
    per-segment zones and the retired counters open, decode bitwise and
    prune exactly the sources a fresh spill prunes."""
    relations, fresh = consolidation_sources
    reducer = CertainKeyBlocking(BLOCK_KEY)
    earlier = {}
    for name, relation in relations.items():
        target = tmp_path / f"earlier-{name}"
        spill_relation(relation, str(target), segment_size=2).close()
        _rewrite_in_earlier_shape(target)
        store = open_store(str(target))
        assert list(store) == list(relation)
        assert exact_value_items(store) == exact_value_items(relation)
        assert store.statistics() == fresh[name].statistics()
        earlier[name] = store
    names = ("A", "B", "C")
    _, pruned = prune_disjoint_sources(
        MultiSourceStore([earlier[name] for name in names]), reducer
    )
    _, expected = prune_disjoint_sources(
        MultiSourceStore([fresh[name] for name in names]), reducer
    )
    assert pruned == expected == ("C",)


def test_verify_reports_per_file_and_quarantine_isolates_family(
    tmp_path, x_relation
):
    target = tmp_path / "audit"
    store = spill_relation(x_relation, str(target), segment_size=5)
    victim = sorted(target.glob("seg-00001.col00.jsonl"))[0]
    victim.write_bytes(b'["rot"]\n')
    store.close()
    report = store.verify()
    corrupt = [entry for entry in report.corrupt]
    assert [entry.file for entry in corrupt] == [victim.name]
    assert all(
        entry.status == "ok"
        for entry in report.segments
        if entry.file != victim.name
    )
    dropped = store.quarantine(victim.name)
    assert dropped.tuple_ids == x_relation.tuple_ids[5:10]
    assert len(store) == len(x_relation) - len(dropped.tuple_ids)
    survivors = [tid for tid in x_relation.tuple_ids if tid not in dropped.tuple_ids]
    for tuple_id in survivors:
        assert store.get(tuple_id) == x_relation.get(tuple_id)
    # The whole family moved: structure file and every column.
    quarantined = sorted(os.listdir(target / "quarantine"))
    assert victim.name in quarantined
    assert any(name.endswith(".tuples.jsonl") for name in quarantined)
