"""Crash consistency of durable detection sessions.

A session directory holds a framed journal (one CRC-checked record per
ingest), a snapshot base and an append-only snapshot delta log.  Every
test here cuts an ingest at one write boundary — mid-record or between
records of the journal append and of the delta append, at compaction's
base replace and at its delta truncate — re-opens the directory, and
requires the re-opened session to decide exactly what the oracle
decides over the *committed* view (the journal's complete batches), or
the cut to be reported (a dropped torn record, or the ingest's own
exception).  It must never differ silently.  The next ingest must then
truncate whatever the cut left behind and resume normally.
"""

from __future__ import annotations

import json
import os
from itertools import combinations, islice

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
from repro.matching.decision import Decision, MatchStatus
from repro.matching.engine import XTupleDecision
from repro.pdb.errors import SchemaMismatchError, StorageError
from repro.pdb.relations import XRelation
from repro.pdb.storage import SessionJournal
from repro.pdb.storage.session import (
    DELTA_NAME,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    FramedLog,
)
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.reduction import CertainKeyBlocking, SubstringKey
from repro.service.session import _pack_slice, _unpack_slice
from repro.testing import (
    WRITE_BOUNDARIES,
    InjectedWriteCrash,
    cut_write,
)

BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


def _detector() -> DuplicateDetector:
    return DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )


def _open(base, path):
    return _detector().session(
        base, journal=str(path), keep_derivations=False
    )


def _quads(decisions):
    return [
        (d.left_id, d.right_id, d.status, repr(d.similarity))
        for d in decisions
    ]


@pytest.fixture(scope="module")
def scenario():
    """A base plus three batches over six of its blocks A–F, each batch
    touching blocks that hold pairs: a re-keying modify (A's member
    takes B's content), a new id joining C, a delete from D; a modify
    and a new id, a delete from F; the re-upsert of D's deleted id, a
    new id, and the delete of the first new id."""
    base = XRelation(
        "crash",
        ("name", "job"),
        generate_dataset(
            DatasetConfig(entity_count=48, seed=71), flat=True
        ).relation,
    )
    a, b, c, d, e, f = (
        partition.members
        for partition in _detector().plan(base).partitions[:6]
    )

    def like(tuple_id, donor):
        return XTuple(tuple_id, base.get(donor).alternatives)

    first = ([like(a[0], b[0]), like("n0", c[0])], [d[0]])
    second = ([like(e[0], a[1]), like("n1", b[1])], [f[0]])
    third = ([base.get(d[0]), like("n2", c[1])], ["n0"])
    return base, [first, second, third]


def _folded_slices(path) -> int:
    """Retained slices the folded snapshot of *path* holds."""
    return len(SessionJournal(str(path)).load_snapshot()["retained"])


def _drop_generation(path) -> None:
    """Rewrite the snapshot base of *path* as its folded document
    without a generation — the layout before snapshot delta logs, whose
    next save compacts.  The delta log stays behind as stale records
    for the compaction's truncate."""
    document = SessionJournal(str(path)).load_snapshot()
    del document["generation"]
    (path / SNAPSHOT_NAME).write_text(
        json.dumps(document, separators=(",", ":"))
    )


@pytest.fixture
def expected(oracle, materialize):
    """The oracle's decisions over ``base ⊎ batches``."""

    def decide(base, batches):
        return _quads(
            oracle(
                _detector(),
                materialize(base, batches),
                keep_derivations=False,
            ).decisions
        )

    return decide


@pytest.mark.parametrize("torn", [False, True], ids=["between", "mid"])
@pytest.mark.parametrize("boundary", WRITE_BOUNDARIES)
def test_cut_ingest_resumes_to_the_oracle(
    tmp_path, scenario, expected, boundary, torn
):
    base, (first, second, third) = scenario
    path = tmp_path / "session"
    session = _open(base, path)
    session.detect()
    session.save()
    session.ingest(first[0], deletes=first[1])
    if boundary in ("replace", "truncate"):
        # A generation-less base forces the next save to compact.
        assert os.path.getsize(path / DELTA_NAME) > 0
        _drop_generation(path)

    resumed = _open(base, path)
    resumed.detect()
    resumed.journal.write_hook = cut_write(boundary, torn=torn)
    with pytest.raises(InjectedWriteCrash):
        resumed.ingest(second[0], deletes=second[1])

    committed = [first] if boundary == "journal" else [first, second]
    reopened = _open(base, path)
    assert _quads(reopened.detect().decisions) == expected(
        base, committed
    )
    if boundary in ("journal", "truncate"):
        # The snapshot is as current as the journal, and no stale slice
        # folded in: one slice per planned partition.
        assert _folded_slices(path) == reopened.stats.partitions_planned
    # A torn append is reported.  A cut truncate leaves stale records
    # of the old generation, the last one possibly cut short: the fold
    # stops at the first of them.  Every other cut raised to the caller
    # and left only whole records behind.
    if torn and boundary in ("journal", "delta"):
        assert reopened.stats.torn_records == 1
    elif torn and boundary == "truncate":
        assert reopened.stats.torn_records <= 1
    else:
        assert reopened.stats.torn_records == 0

    reopened.ingest(third[0], deletes=third[1])
    final = _open(base, path)
    assert _quads(final.detect().decisions) == expected(
        base, committed + [third]
    )
    # Whatever the cut left behind was overwritten: the snapshot folds
    # whole again, so nothing re-runs.
    assert final.stats.torn_records == 0
    assert final.stats.partitions_executed == 0


def test_cut_free_compaction_keeps_replay_bounded(
    tmp_path, scenario, expected
):
    """Deltas never outgrow the base: a save that would make them
    compacts instead.  Every byte written is counted."""
    base, (first, second, _third) = scenario
    donors = [first[0][0].alternatives, second[0][0].alternatives]
    victim = first[0][1].tuple_id
    path = tmp_path / "session"
    session = _open(base, path)
    session.detect()
    for round_ in range(40):
        session.ingest([XTuple(victim, donors[round_ % 2])])
    stats = session.stats
    assert stats.snapshot_compactions >= 2  # the first save, then size
    base_size = os.path.getsize(path / SNAPSHOT_NAME)
    delta_size = os.path.getsize(path / DELTA_NAME)
    assert delta_size <= base_size
    assert stats.snapshot_bytes >= base_size + delta_size
    assert "compactions" in stats.summary()

    reopened = _open(base, path)
    assert _quads(reopened.detect().decisions) == expected(
        base, [([XTuple(victim, donors[1])], [])]
    )
    assert reopened.stats.partitions_executed == 0


def test_cut_free_reopen_folds_every_delta(tmp_path, scenario, expected):
    """Each re-open restores base plus deltas: every retained slice is
    back, so nothing re-runs, and later saves append after the fold."""
    base, batches = scenario
    path = tmp_path / "session"
    session = _open(base, path)
    session.detect()
    folded = 0
    for count, (upserts, deletes) in enumerate(batches, 1):
        session.ingest(upserts, deletes=deletes)
        folded += (path / DELTA_NAME).exists() and bool(
            os.path.getsize(path / DELTA_NAME)
        )
        session = _open(base, path)
        result = session.detect()
        assert _quads(result.decisions) == expected(
            base, batches[:count]
        )
        assert session.stats.partitions_executed == 0
        assert session.last_report is None
        # Dropped slices stay dropped: one per planned partition.
        assert _folded_slices(path) == session.stats.partitions_planned
    assert folded


@pytest.mark.parametrize("fault", ["schema", "absent", "twice"])
def test_rejected_batch_leaves_session_and_journal_unchanged(
    tmp_path, scenario, expected, fault
):
    """A batch whose later operation raises applies none of its
    operations: live session, re-open and oracle decide alike, with the
    batch absent, and the next batch commits normally."""
    base, (first, second, _third) = scenario
    upserts, deletes = list(first[0]), list(first[1])
    if fault == "schema":
        upserts.append(
            XTuple("off", (TupleAlternative({"name": "x"}, 1.0),))
        )
        error = SchemaMismatchError
    else:
        deletes += ["absent"] if fault == "absent" else deletes[-1:]
        error = KeyError
    path = tmp_path / "session"
    session = _open(base, path)
    session.detect()
    with pytest.raises(error):
        session.ingest(upserts, deletes=deletes)
    assert session.stats.ingests == 0
    unchanged = expected(base, [])
    assert _quads(session.refresh().decisions) == unchanged
    assert _quads(_open(base, path).detect().decisions) == unchanged

    # A batch deleting an id its own upserts add is valid.
    session.ingest(
        second[0] + [XTuple("n9", second[0][1].alternatives)],
        deletes=second[1] + ["n9"],
    )
    committed = expected(base, [second])
    assert _quads(session.detect().decisions) == committed
    assert _quads(_open(base, path).detect().decisions) == committed


def test_legacy_session_directory_still_opens(tmp_path, scenario, expected):
    """Unframed one-operation journal lines and a generation-less
    snapshot (the layout before framing) replay and restore, and later
    ingests append framed records after them."""
    base, (first, second, _third) = scenario
    current = tmp_path / "current"
    session = _open(base, current)
    session.detect()
    session.ingest(first[0], deletes=first[1])
    document = SessionJournal(str(current)).load_snapshot()
    del document["generation"]

    legacy = tmp_path / "legacy"
    legacy.mkdir()
    operations = [SessionJournal.upsert_op(x) for x in first[0]] + [
        SessionJournal.delete_op(t) for t in first[1]
    ]
    (legacy / JOURNAL_NAME).write_text(
        "".join(
            json.dumps(op, separators=(",", ":")) + "\n" for op in operations
        )
    )
    (legacy / SNAPSHOT_NAME).write_text(
        json.dumps(document, separators=(",", ":"), sort_keys=True)
    )

    reopened = _open(base, legacy)
    assert _quads(reopened.detect().decisions) == expected(
        base, [first]
    )
    assert reopened.stats.partitions_executed == 0  # snapshot restored

    reopened.ingest(second[0], deletes=second[1])
    final = _open(base, legacy)
    assert _quads(final.detect().decisions) == expected(
        base, [first, second]
    )


def test_snapshot_with_cache_rows_still_opens(tmp_path, scenario, expected):
    """A directory from when snapshots also persisted similarity-cache
    rows, in the base and in a delta record, re-opens to its decisions.
    The rows are ignored — they hold wrong similarities here, which a
    restore that absorbed them would decide by — the fold drops them,
    and the next save writes none."""
    base, (first, second, _third) = scenario
    current = tmp_path / "current"
    session = _open(base, current)
    session.detect()
    session.save()
    session.ingest(first[0], deletes=first[1])
    assert session.stats.snapshot_compactions == 1  # the first save
    (delta,) = [
        json.loads(payload)
        for _header, payload in FramedLog(str(current / DELTA_NAME)).records()
    ]
    document = json.loads((current / SNAPSHOT_NAME).read_text())
    del document["generation"]
    names = sorted(
        {
            name
            for tuple_id in base.tuple_ids
            for alternative in base.get(tuple_id).alternatives
            for name in alternative["name"].existing_support
            if isinstance(name, str)
        }
    )
    rows = [[left, right, 0.0] for left, right in combinations(names, 2)]

    old = tmp_path / "old"
    old.mkdir()
    (old / JOURNAL_NAME).write_bytes((current / JOURNAL_NAME).read_bytes())
    journal = SessionJournal(str(old))
    journal.save_snapshot({**document, "caches": {"name": rows}})
    assert journal.append_snapshot_delta(
        {**delta, "caches": {"name": rows[:3]}}
    )
    assert "caches" not in SessionJournal(str(old)).load_snapshot()

    reopened = _open(base, old)
    assert _quads(reopened.detect().decisions) == expected(base, [first])
    assert reopened.stats.partitions_executed == 0
    reopened.ingest(second[0], deletes=second[1])
    assert reopened.stats.partitions_executed > 0
    assert _quads(reopened.detect().decisions) == expected(
        base, [first, second]
    )
    assert reopened.stats.snapshot_compactions == 0
    *_, (_header, payload) = FramedLog(str(old / DELTA_NAME)).records()
    assert "caches" not in json.loads(payload)

    final = _open(base, old)
    assert _quads(final.detect().decisions) == expected(
        base, [first, second]
    )
    assert final.stats.partitions_executed == 0


def test_torn_legacy_line_is_dropped_and_reported(
    tmp_path, scenario, expected
):
    base, (first, _second, _third) = scenario
    path = tmp_path / "legacy"
    path.mkdir()
    whole = json.dumps(SessionJournal.upsert_op(first[0][0]))
    torn = json.dumps(SessionJournal.upsert_op(first[0][1]))
    (path / JOURNAL_NAME).write_text(whole + "\n" + torn[: len(torn) // 2])
    reopened = _open(base, path)
    assert reopened.stats.torn_records == 1
    assert _quads(reopened.detect().decisions) == expected(
        base, [([first[0][0]], [])]
    )


def test_corrupt_journal_record_ends_replay(tmp_path):
    """A record failing its CRC ends replay there: the batches before
    it replay, it and everything after are the torn tail, which the
    next append overwrites."""
    path = str(tmp_path / "session")
    journal = SessionJournal(path)
    for index in range(3):
        journal.append_ops([SessionJournal.delete_op(f"t{index}")])
    log = os.path.join(path, JOURNAL_NAME)
    with open(log, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    corrupt = lines[1].replace(b'"t1"', b'"tX"')
    with open(log, "wb") as handle:
        handle.write(lines[0] + corrupt + lines[2])

    reopened = SessionJournal(path)
    assert [op["id"] for op in reopened.ops()] == ["t0"]
    assert reopened.torn_records == 2
    reopened.append_ops([SessionJournal.delete_op("t9")])
    assert [op["id"] for op in SessionJournal(path).ops()] == ["t0", "t9"]


def test_framed_log_rejects_a_broken_sequence(tmp_path):
    """Records must number 1, 2, …: a duplicated record is corruption."""
    path = str(tmp_path / "log")
    record = FramedLog(path).frame({}, "[]")
    with open(path, "wb") as handle:
        handle.write(record + record)
    log = FramedLog(path)
    assert len(list(log.records())) == 1
    assert log.torn == 1 and log.end == len(record) and log.seq == 1


def test_packed_restore_is_bitwise(tmp_path, expected):
    """Retained slices persist as one status letter and one little-endian
    float64 per pair, so a restore is bitwise for every status and for
    similarities that need all 17 significant digits (or are not
    finite), and re-decides nothing."""
    rows = [
        XTupleDecision(
            f"l{index}", f"r{index}", Decision(status, similarity), None
        )
        for index, (status, similarity) in enumerate(
            zip(
                [*MatchStatus] * 2,
                [0.1 + 0.2, 1 / 3, -0.0, float("inf"), 5e-324, 2.0**-1074 * 3],
            )
        )
    ]
    packed = json.loads(json.dumps(_pack_slice(rows)))
    pairs = [(row.left_id, row.right_id) for row in rows]
    assert _quads(_unpack_slice(pairs, packed)) == _quads(rows)
    with pytest.raises(StorageError):
        _unpack_slice(pairs[1:], packed)

    # x-tuples: their Eq. 6 expectations need 17 digits now and then.
    base = generate_dataset(DatasetConfig(entity_count=48, seed=71)).relation
    path = tmp_path / "session"
    session = _open(base, path)
    decisions = session.detect().decisions
    session.save()
    assert {decision.status for decision in decisions} == set(MatchStatus)
    assert any(
        float(f"{decision.similarity:.16g}") != decision.similarity
        for decision in decisions
    )
    reopened = _open(base, path)
    assert _quads(reopened.detect().decisions) == _quads(decisions)
    assert reopened.stats.partitions_executed == 0
    assert _quads(decisions) == expected(base, [])


def test_unplanned_packed_slice_is_dropped_unhydrated(
    tmp_path, scenario, expected
):
    """A compaction before any refresh writes the restored packed slices
    back unchanged; a packed slice whose partition is no longer planned
    is dropped without being unpacked (this one would not unpack), and
    the next save records the drop."""
    base, (first, _second, _third) = scenario
    path = tmp_path / "session"
    session = _open(base, path)
    session.detect()
    session.ingest(first[0], deletes=first[1])
    folded = SessionJournal(str(path)).load_snapshot()["retained"]

    _drop_generation(path)
    compacting = _open(base, path)
    compacting.save()
    assert compacting.stats.snapshot_compactions == 1
    rewritten = json.loads((path / SNAPSHOT_NAME).read_text())
    assert rewritten["format"] == 2
    assert rewritten["retained"] == folded

    journal = SessionJournal(str(path))
    document = journal.load_snapshot()
    document["retained"]["0" * 64] = ["mm", "not base64"]
    del document["generation"]
    journal.save_snapshot(document)
    reopened = _open(base, path)
    assert _quads(reopened.detect().decisions) == expected(base, [first])
    assert reopened.stats.partitions_executed == 0
    reopened.save()
    assert reopened.stats.snapshot_compactions == 0
    *_, (_header, payload) = FramedLog(str(path / DELTA_NAME)).records()
    assert json.loads(payload) == {"dropped": ["0" * 64]}
    assert _folded_slices(path) == reopened.stats.partitions_planned


def test_format_1_snapshot_is_re_decided(tmp_path, scenario, expected):
    """A directory whose snapshot holds format-1 rows ``(left_id,
    right_id, status, similarity)`` is not restored: the session
    re-decides from its journal, to the oracle, and its first save
    compacts to the packed format."""
    base, (first, second, _third) = scenario
    current = tmp_path / "current"
    session = _open(base, current)
    session.detect()
    session.ingest(first[0], deletes=first[1])
    decisions = iter(session.detect().decisions)
    rows = {
        fingerprint: [
            [d.left_id, d.right_id, d.status.value, d.similarity]
            for d in islice(decisions, len(partition.pairs))
        ]
        for partition, fingerprint in zip(
            session.last_plan.partitions, session.last_fingerprints
        )
    }

    old = tmp_path / "old"
    old.mkdir()
    (old / JOURNAL_NAME).write_bytes((current / JOURNAL_NAME).read_bytes())
    SessionJournal(str(old)).save_snapshot({"format": 1, "retained": rows})

    reopened = _open(base, old)
    assert _quads(reopened.detect().decisions) == expected(base, [first])
    assert reopened.stats.partitions_executed > 0
    reopened.ingest(second[0], deletes=second[1])
    assert reopened.stats.snapshot_compactions == 1
    assert json.loads((old / SNAPSHOT_NAME).read_text())["format"] == 2

    final = _open(base, old)
    assert _quads(final.detect().decisions) == expected(
        base, [first, second]
    )
    assert final.stats.partitions_executed == 0
