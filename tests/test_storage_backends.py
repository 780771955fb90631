"""Golden equivalence suite for x-relation storage backends.

Two invariant families pin the out-of-core path:

* **backend equivalence** — for every Section-V reducer, running the
  full detect pipeline against a spilled
  :class:`~repro.pdb.storage.ColumnarXTupleStore` produces *bitwise*
  the decisions (ids, statuses, similarities), compared-pair sets and
  partition labels of the in-memory :class:`XRelation` run — at the
  default chunk, packed at a small one, ``stream=True`` and
  ``keep_compared_pairs=False`` alike;
* **segment-codec round trips** — arbitrary generated x-relations
  survive ``spill → open_store → iterate`` with exact outcome order,
  alternative probabilities and values intact (hypothesis properties
  plus the empty / single-alternative / maybe-tuple edge cases).

Directories in the retired row layout are rejected with the fix.
The columnar-only surface (projection, zone maps, pruning, family
quarantine) is pinned by ``test_columnar.py``.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.pdb import NULL, PatternValue, ProbabilisticValue
from repro.pdb.io import open_store
from repro.pdb.relations import Schema, XRelation
from repro.pdb.storage import (
    ColumnarXTupleStore,
    SegmentCorruptionError,
    StorageError,
    XTupleStore,
    fetch_tuples,
    spill_relation,
)
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.reduction import CertainKeyBlocking, plan_candidates

# flat_relation, x_relation and stores are fixtures.
from storage_cases import (  # noqa: F401
    BLOCK_KEY,
    REDUCERS,
    build_detector,
    exact_value_items,
    flat_relation,
    relation_for,
    stores,
    triples,
    x_relation,
)


# ----------------------------------------------------------------------
# Golden equivalence: in-memory vs spilled, all reducers, all modes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_spilled_detection_is_bitwise_in_memory(
    name, flat_relation, x_relation, stores
):
    """The acceptance pin: every mode, every reducer, both backends."""
    factory, kind = REDUCERS[name]
    relation = relation_for(kind, flat_relation, x_relation)
    store = open_store(stores[kind], page_size=4, max_pages=3)

    reference = build_detector(factory).detect(relation)
    serial = build_detector(factory).detect(store)
    packed = build_detector(factory).detect(store, chunk_size=7)
    slices = list(
        build_detector(factory).detect(
            store, stream=True, keep_compared_pairs=False
        )
    )

    assert triples(serial) == triples(reference)
    assert triples(packed) == triples(reference)
    assert serial.compared_pairs == reference.compared_pairs
    assert packed.compared_pairs == reference.compared_pairs
    assert serial.relation_size == reference.relation_size

    streamed = [triple for piece in slices for triple in triples(piece)]
    assert streamed == triples(reference)
    assert all(piece.compared_pairs == frozenset() for piece in slices)
    plan = plan_candidates(factory(), relation)
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in plan
    ]
    # Partition labels (cluster assignments of the plan) agree between
    # backends too: the store plans identically to the relation.
    store_plan = plan_candidates(factory(), store)
    assert [p.label for p in store_plan] == [p.label for p in plan]
    assert list(store_plan.pairs()) == list(plan.pairs())


def test_detector_plan_is_backend_independent(x_relation, stores):
    store = open_store(stores["x"])
    detector = build_detector(lambda: CertainKeyBlocking(BLOCK_KEY))
    assert list(detector.plan(store).pairs()) == list(
        detector.plan(x_relation).pairs()
    )


def test_clusters_match_across_backends(x_relation, stores):
    store = open_store(stores["x"])
    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    in_memory = build_detector(factory).detect(x_relation)
    spilled = build_detector(factory).detect(store)
    assert (
        spilled.clusters().clusters == in_memory.clusters().clusters
    )


def test_preparation_hook_rejects_stores(stores):
    detector = DuplicateDetector(
        default_matcher(),
        weighted_model(),
        preparation=lambda relation: relation,
    )
    with pytest.raises(TypeError, match="materialize"):
        detector.detect(open_store(stores["x"]))


def test_detect_between_accepts_stores(x_relation, stores):
    """Stores consolidate through the multi-source view now; the old
    union-only path rejected them.  Colliding ids across sources (here:
    the same relation twice) still fail loudly, and a preparation hook
    still requires in-memory sources."""
    from repro.pdb.errors import DuplicateTupleIdError

    detector = build_detector(lambda: CertainKeyBlocking(BLOCK_KEY))
    with pytest.raises(DuplicateTupleIdError):
        detector.detect_between(open_store(stores["x"]), x_relation)
    prepared = DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
        preparation=lambda relation: relation,
    )
    with pytest.raises(TypeError, match="materialize each store"):
        prepared.detect_between(open_store(stores["x"]), x_relation)


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------


def test_both_backends_satisfy_the_protocol(x_relation, stores):
    store = open_store(stores["x"])
    assert isinstance(x_relation, XTupleStore)
    assert isinstance(store, XTupleStore)
    assert store.name == x_relation.name
    assert store.schema == x_relation.schema
    assert store.tuple_ids == x_relation.tuple_ids
    assert len(store) == len(x_relation)
    some_id = x_relation.tuple_ids[0]
    assert some_id in store and "no-such-id" not in store
    with pytest.raises(KeyError):
        store.get("no-such-id")


def test_page_cache_residency_stays_bounded(x_relation, stores):
    store = open_store(stores["x"], page_size=4, max_pages=3)
    for tuple_id in x_relation.tuple_ids:
        store.get(tuple_id)
        info = store.cache_info()
        assert info.cached_tuples <= info.capacity_tuples == 12
    assert info.evictions > 0  # the relation is larger than the cache
    # No id repeats and none survives until it is asked for again, so
    # every get is a miss that decodes exactly one tuple.
    assert info.misses == len(x_relation)


def test_fetch_decodes_each_page_once(x_relation, stores):
    store = open_store(stores["x"], page_size=4, max_pages=64)
    store.clear_cache()
    working_set = store.fetch(x_relation.tuple_ids)
    assert working_set == x_relation.fetch(x_relation.tuple_ids)
    pages_needed = store.cache_info().misses
    # A second fetch of the same ids is answered entirely from cache.
    before = store.cache_info().hits
    store.fetch(x_relation.tuple_ids)
    assert store.cache_info().misses == pages_needed
    assert store.cache_info().hits > before


def test_scattered_fetch_does_not_pin_evicted_pages(tmp_path):
    """A working set spread one-member-per-page must not hold every
    touched page's tuples alive at once: pages are copied out one at a
    time, so the fetch's memory peak tracks the working set, not the
    total page volume it sweeps past."""
    import tracemalloc

    relation = generate_dataset(
        DatasetConfig(entity_count=260, seed=17), flat=True
    ).relation
    store = relation.spill(
        str(tmp_path / "scatter"), segment_size=16, page_size=8, max_pages=2
    )
    scattered = relation.tuple_ids[::8]  # one id per page
    assert len(scattered) > 20

    def fetch_peak(ids):
        store.clear_cache()
        tracemalloc.start()
        working_set = store.fetch(ids)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(working_set) == len(ids)
        return peak

    everything = fetch_peak(relation.tuple_ids)
    sparse = fetch_peak(scattered)
    # The scattered fetch decodes the same pages as the full fetch but
    # retains only 1/8 of the tuples; pinning whole pages would put the
    # two peaks in the same ballpark.
    assert sparse < everything / 2
    assert store.fetch(scattered) == relation.fetch(scattered)


def test_cold_fetch_decodes_only_the_requested_tuples(
    flat_relation, stores
):
    """A working set scattered one id per page decodes one tuple per
    id, in file order, whatever order the ids were requested in; a
    repeat is served from cache, and ``get`` shares the cache without
    going through ``fetch``."""
    decoded = []
    fetches = []

    class Spying(ColumnarXTupleStore):
        def _decode(self, segment, position, columns):
            decoded.append((segment, position))
            return super()._decode(segment, position, columns)

        def fetch(self, tuple_ids):
            fetches.append(tuple_ids)
            return super().fetch(tuple_ids)

    page_size = 4
    store = Spying(stores["flat"], page_size=page_size, max_pages=64)
    scattered = flat_relation.tuple_ids[::page_size][::-1]
    k = len(scattered)
    assert 1 < k <= store.cache_info().capacity_tuples

    working_set = store.fetch(scattered)
    assert list(working_set) == list(scattered)
    assert working_set == flat_relation.fetch(scattered)
    assert len(decoded) == k == store.cache_info().misses
    assert decoded == sorted(decoded)

    assert store.fetch(scattered) == working_set
    info = store.cache_info()
    assert (info.hits, info.misses, len(decoded)) == (k, k, k)

    fetches.clear()
    assert store.get(scattered[0]) is working_set[scattered[0]]
    assert not fetches and store.cache_info().hits == k + 1

    store.clear_cache()
    decoded.clear()
    a, b = flat_relation.tuple_ids[9], flat_relation.tuple_ids[2]
    result = store.fetch([a, b, a])
    assert list(result) == [a, b]
    assert result == flat_relation.fetch([a, b])
    assert decoded == sorted(decoded) and len(decoded) == 2


def test_tuple_cache_serves_only_live_ids(tmp_path, flat_relation):
    """The cache is keyed by tuple id: unknown ids and ids quarantined
    away raise ``KeyError`` even if they were cached, and survivors
    decode correctly after their segment indices shift."""
    store = flat_relation.spill(str(tmp_path / "store"), segment_size=8)
    ids = flat_relation.tuple_ids
    with pytest.raises(KeyError):
        store.fetch([ids[0], "no-such-id"])
    store.fetch(ids)
    assert store.cache_info().cached_tuples == len(ids)

    receipt = store.quarantine(1)
    assert receipt.tuple_ids == ids[8:16]
    assert store.cache_info().cached_tuples == 0
    for tuple_id in receipt.tuple_ids:
        with pytest.raises(KeyError):
            store.get(tuple_id)
        with pytest.raises(KeyError):
            store.fetch([ids[0], tuple_id])
    survivors = ids[:8] + ids[16:]
    assert store._locate[ids[16]] == (1, 0)
    assert store.fetch(survivors[::-1]) == flat_relation.fetch(
        survivors[::-1]
    )
    assert all(
        store.get(tuple_id) == flat_relation.get(tuple_id)
        for tuple_id in survivors
    )


def test_fetch_tuples_helper_covers_both_backends(x_relation, stores):
    ids = x_relation.tuple_ids[:5]
    assert fetch_tuples(x_relation, ids) == fetch_tuples(
        open_store(stores["x"]), ids
    )

    class GetOnly:
        def __init__(self, relation):
            self.get = relation.get

    assert fetch_tuples(GetOnly(x_relation), ids) == fetch_tuples(
        x_relation, ids
    )


def test_open_segment_handles_stay_bounded(tmp_path, x_relation):
    """Random access over many segments must not exhaust the FD limit."""
    store = x_relation.spill(
        str(tmp_path / "many-segments"),
        segment_size=1,  # one segment per tuple
        page_size=1,
        max_pages=2,
        max_open_segments=3,
    )
    for tuple_id in reversed(x_relation.tuple_ids):
        store.get(tuple_id)
    assert store.open_segments <= 3
    # Evicted-and-reopened handles still read the right tuples.
    for tuple_id in x_relation.tuple_ids:
        assert store.get(tuple_id) == x_relation.get(tuple_id)
    store.close()
    assert store.open_segments == 0


def test_sequential_iteration_bypasses_the_cache(x_relation, stores):
    store = open_store(stores["x"], page_size=4, max_pages=2)
    assert list(store) == list(x_relation)
    info = store.cache_info()
    assert info.misses == 0 and info.cached_tuples == 0


def test_pickled_store_ships_metadata_only(x_relation, stores):
    store = open_store(stores["x"])
    store.fetch(x_relation.tuple_ids[:8])
    clone = pickle.loads(pickle.dumps(store))
    assert clone.cache_info().cached_tuples == 0
    assert clone.tuple_ids == store.tuple_ids
    assert list(clone) == list(store)
    assert clone.get(x_relation.tuple_ids[3]) == x_relation.get(
        x_relation.tuple_ids[3]
    )


def test_store_open_rejects_bad_directories(tmp_path):
    with pytest.raises(StorageError, match="not a spilled store"):
        ColumnarXTupleStore(str(tmp_path / "missing"))
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    (corrupt / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(StorageError, match="corrupt store manifest"):
        ColumnarXTupleStore(str(corrupt))
    truncated = tmp_path / "truncated"
    truncated.mkdir()
    (truncated / "manifest.json").write_text(
        '{"format": 1, "layout": "columnar"}', encoding="utf-8"
    )
    with pytest.raises(StorageError, match="missing key"):
        ColumnarXTupleStore(str(truncated))


@pytest.mark.parametrize("layout", [None, "rows"])
def test_open_store_rejects_row_layout_directories(tmp_path, layout):
    """A directory in the retired row layout — a manifest without a
    layout marker, or marked ``"rows"`` — fails to open and names the
    fix instead of being misread."""
    target = tmp_path / "rows"
    target.mkdir()
    manifest = {
        "format": 1,
        "kind": "repro-xtuple-store",
        "name": "R",
        "schema": ["name"],
        "count": 1,
        "segments": [
            {"file": "seg-00000.jsonl", "ids": ["t0"], "offsets": [0]}
        ],
    }
    if layout is not None:
        manifest["layout"] = layout
    (target / "manifest.json").write_text(
        json.dumps(manifest), encoding="utf-8"
    )
    (target / "seg-00000.jsonl").write_text(
        '{"id":"t0","alternatives":[]}\n', encoding="utf-8"
    )
    with pytest.raises(StorageError, match="row layout was retired") as info:
        open_store(str(target))
    message = str(info.value)
    assert "'rows'" in message
    assert "materialize()" in message and "re-spill" in message


def test_spill_rejects_the_row_layout(tmp_path, x_relation):
    target = tmp_path / "rows"
    with pytest.raises(ValueError, match="row layout was retired"):
        x_relation.spill(str(target), layout="rows")
    with pytest.raises(ValueError, match="row layout was retired"):
        spill_relation(x_relation, str(target), layout="rows")
    assert not target.exists()


def test_serial_detection_loads_bounded_working_sets(flat_relation, stores):
    """A single-partition-sized plan must not pin the whole relation:
    serial execution fetches chunk-sized working sets, like workers."""
    batch_sizes = []

    class Spying(ColumnarXTupleStore):
        def fetch(self, tuple_ids):
            ids = list(tuple_ids)
            batch_sizes.append(len(ids))
            return super().fetch(ids)

    store = Spying(stores["flat"], page_size=4, max_pages=3)
    chunk_size = 16
    result = build_detector(lambda: FullComparison()).detect(
        store, chunk_size=chunk_size, keep_derivations=False
    )
    assert result.decisions
    # Each fetch covers one chunk of pairs: at most 2 ids per pair.
    assert max(batch_sizes) <= 2 * chunk_size < len(flat_relation)


def test_spill_refuses_to_overwrite(tmp_path, x_relation):
    target = str(tmp_path / "store")
    x_relation.spill(target)
    with pytest.raises(StorageError, match="refusing"):
        x_relation.spill(target)


def test_storage_error_surface_is_consistent(tmp_path, x_relation):
    """Bad paths raise StorageError, not raw OS errors."""
    with pytest.raises(StorageError, match="no relation file"):
        open_store(str(tmp_path / "nowhere.json"))
    regular_file = tmp_path / "plain.txt"
    regular_file.write_text("not a directory", encoding="utf-8")
    with pytest.raises(StorageError, match="cannot create"):
        x_relation.spill(str(regular_file))


def test_segment_read_errors_surface_as_storage_errors(
    tmp_path, x_relation
):
    """A store whose segments vanished or rotted after opening reports
    StorageError from get/fetch/iteration, not raw OS/JSON errors.

    Overwritten bytes are caught by the CRC before any line is decoded;
    in a file whose manifest entry records no CRC (unverifiable), the
    per-line decode error surfaces instead, carrying the file path,
    byte offset and tuple id.
    """
    target = tmp_path / "rotting"
    store = x_relation.spill(str(target), segment_size=4)
    victim = target / "seg-00001.tuples.jsonl"
    original = victim.read_bytes()
    victim.write_bytes(b"{corrupt\n" * 4)
    store.clear_cache()
    with pytest.raises(SegmentCorruptionError, match="integrity"):
        store.get(x_relation.tuple_ids[4])
    # Iteration maps the file through the same check, so bit rot
    # reports the whole segment's blast radius, not one line.
    with pytest.raises(SegmentCorruptionError, match="integrity"):
        list(store)
    manifest_path = target / "manifest.json"
    manifest_text = manifest_path.read_text(encoding="utf-8")
    manifest = json.loads(manifest_text)
    del manifest["segments"][1]["crc32"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    unverifiable = open_store(str(target))
    assert [entry.status for entry in unverifiable.verify().segments].count(
        "unverifiable"
    ) == 1
    with pytest.raises(StorageError, match="corrupt segment line") as info:
        unverifiable.get(x_relation.tuple_ids[4])
    manifest_path.write_text(manifest_text, encoding="utf-8")
    assert "byte offset" in str(info.value)
    assert repr(x_relation.tuple_ids[4]) in str(info.value)
    victim.unlink()
    store.close()
    with pytest.raises(StorageError, match="unreadable segment"):
        store.get(x_relation.tuple_ids[4])
    with pytest.raises(StorageError, match="unreadable segment"):
        list(store)
    victim.write_bytes(original)
    store.close()
    assert store.get(x_relation.tuple_ids[4]) == x_relation.get(
        x_relation.tuple_ids[4]
    )


def test_failed_spill_leaves_no_orphaned_segments(tmp_path):
    """An aborted spill removes the segments it already wrote."""

    class Duplicates:
        name = "D"
        schema = Schema(("name", "job"))

        def __iter__(self):
            for _ in range(3):
                yield XTuple.certain(
                    "t1", {"name": "Tim", "job": "baker"}
                )

    target = tmp_path / "aborted"
    with pytest.raises(StorageError, match="duplicate tuple id"):
        spill_relation(Duplicates(), str(target), segment_size=1)
    assert sorted(target.glob("seg-*.jsonl")) == []
    assert not (target / "manifest.json").exists()


def test_interrupted_spill_never_opens(tmp_path, x_relation):
    """Without the (atomically written) manifest there is no store."""
    target = tmp_path / "partial"
    target.mkdir()
    # Simulate a crash after segment data hit disk but before the
    # manifest: segment files exist, manifest does not.
    (target / "seg-00000.tuples.jsonl").write_text(
        '{"id":"t0","alts":[]}\n', encoding="utf-8"
    )
    with pytest.raises(StorageError, match="not a spilled store"):
        open_store(str(target))


def test_open_store_reads_plain_relation_files(tmp_path, x_relation):
    from repro.pdb import io as pdb_io

    path = str(tmp_path / "relation.json")
    pdb_io.dump(x_relation, path)
    loaded = open_store(path)
    assert isinstance(loaded, XRelation)
    assert list(loaded) == list(x_relation)
    with pytest.raises(TypeError, match="store options"):
        open_store(path, page_size=8)


# ----------------------------------------------------------------------
# Segment codec round trips
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    entity_count=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    alternatives=st.integers(min_value=1, max_value=3),
    flat=st.booleans(),
    segment_size=st.integers(min_value=1, max_value=7),
    page_size=st.integers(min_value=1, max_value=5),
)
def test_generated_relations_survive_spill_roundtrip(
    tmp_path_factory,
    entity_count,
    seed,
    alternatives,
    flat,
    segment_size,
    page_size,
):
    """Property: spill → open_store → iterate is the identity, exactly.

    Equality is checked twice: structurally (x-tuple equality) and
    bitwise (the exact outcome iteration order and float probabilities
    that make detection results reproducible).
    """
    relation = generate_dataset(
        DatasetConfig(
            entity_count=entity_count,
            seed=seed,
            alternatives_per_xtuple=alternatives,
        ),
        flat=flat,
    ).relation
    target = str(
        tmp_path_factory.mktemp("roundtrip") / f"s{seed}-{entity_count}"
    )
    store = spill_relation(
        relation,
        target,
        segment_size=segment_size,
        page_size=page_size,
        max_pages=2,
    )
    assert list(store) == list(relation)
    assert store.tuple_ids == relation.tuple_ids
    assert exact_value_items(store) == exact_value_items(relation)
    for tuple_id in relation.tuple_ids:
        assert store.get(tuple_id) == relation.get(tuple_id)
    assert store.materialize().xtuples == relation.xtuples


def test_empty_relation_roundtrip(tmp_path):
    empty = XRelation("E", ("name", "job"))
    store = empty.spill(str(tmp_path / "empty"))
    assert len(store) == 0
    assert list(store) == []
    assert store.tuple_ids == ()
    assert store.fetch([]) == {}
    assert store.materialize().xtuples == ()
    # No segment files were left behind for zero tuples.
    assert sorted(os.listdir(tmp_path / "empty")) == ["manifest.json"]


def test_single_alternative_roundtrip(tmp_path):
    relation = XRelation(
        "S",
        ("name", "job"),
        [XTuple.certain("t1", {"name": "Tim", "job": "baker"})],
    )
    store = relation.spill(str(tmp_path / "single"))
    xtuple = store.get("t1")
    assert xtuple == relation.get("t1")
    assert len(xtuple.alternatives) == 1
    assert xtuple.alternatives[0].probability == 1.0
    assert not xtuple.is_maybe


def test_maybe_tuple_roundtrip(tmp_path):
    """Maybe x-tuples (p < 1) keep their membership mass bit for bit."""
    maybe = XTuple.build(
        "t1",
        [
            ({"name": "Tim", "job": "baker"}, 0.45),
            ({"name": "Tom", "job": NULL}, 0.15),
        ],
    )
    relation = XRelation("M", ("name", "job"), [maybe])
    store = relation.spill(str(tmp_path / "maybe"))
    decoded = store.get("t1")
    assert decoded == maybe
    assert decoded.is_maybe
    assert decoded.probability == maybe.probability
    assert [a.probability for a in decoded.alternatives] == [0.45, 0.15]


def test_mixed_order_distribution_roundtrip_is_exact(tmp_path):
    """⊥ and pattern outcomes interleaved with plain ones keep their
    positions — the property the legacy grouped codec cannot give."""
    value = ProbabilisticValue(
        {"alpha": 0.3, NULL: 0.2, PatternValue("mu*"): 0.1, "beta": 0.15}
    )
    relation = XRelation(
        "O",
        ("name", "job"),
        [
            XTuple(
                "t1",
                [TupleAlternative({"name": "Tim", "job": value}, 0.8)],
            )
        ],
    )
    store = relation.spill(str(tmp_path / "ordered"))
    decoded = store.get("t1").alternatives[0].value("job")
    assert list(decoded.items()) == list(value.items())
    # ⊥ keeps both its explicit and residual mass (0.2 + 0.25).
    assert decoded.null_probability == value.null_probability


def test_segment_lines_use_the_exact_codec(tmp_path, x_relation):
    """Structure lines carry the ids in spill order; every column line
    holds the exact encodings of the values that alternatives carry."""
    from repro.pdb.io import encode_value_exact

    x_relation.spill(str(tmp_path / "exact"), segment_size=1_000)
    root = tmp_path / "exact"

    def documents(file_name):
        text = (root / file_name).read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines()]

    structure = documents("seg-00000.tuples.jsonl")
    assert [doc["id"] for doc in structure] == list(x_relation.tuple_ids)
    for column, attribute in enumerate(x_relation.schema.attributes):
        lines = documents(f"seg-00000.col{column:02d}.jsonl")
        expected = [
            [
                encode_value_exact(alternative.value(attribute))
                for alternative in xtuple.alternatives
                if attribute in alternative.attributes
            ]
            for xtuple in x_relation
        ]
        assert lines == json.loads(json.dumps(expected))
        # Uncertain values must be stored in the ordered form, never
        # the order-losing legacy {"dist": ...} grouping.
        assert '"dist"' not in json.dumps(lines)
