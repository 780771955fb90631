"""Seeded differential tests over the execution lattice and the decide path.

Packing may change how work is batched but never a result, so every
sampled configuration must decide exactly what the reference oracle
(``tests/conftest.py``) decides, bit for bit: any of the ten reducers,
any chunk size (which packs partitions into tasks), collected or
streamed, in memory or spilled to disk, on the fast or the ``"python"``
edit kernel, exact or under threshold pushdown, under a clean
two-attempt retry policy that degrades or raises on exhaustion.  The
lattice matcher scores ``job`` with an edit comparator, so the kernel
dimension really runs the kernel it names; the oracle always runs the
reference DPs.

The batched decide loop must likewise agree with the oracle's per-pair
``decide`` for every decision model, derivation, pattern policy and
pushdown setting, with and without kept derivations.

A durable session must too: after every ingest of a sampled stream of
re-keying upserts, key-preserving content changes, reverts to a
tuple's earlier content, deletes with re-upserts and new ids, and
again when re-opened from its directory — with caches small enough to
clear wholesale mid-session, and with registries small enough to be
replaced between refreshes, so the coded view the session keeps
across refreshes starts over.  Its memoized re-planning must equal a
memo-free plan of the same view after every refresh: labels, order,
source tags and fingerprints.
"""

from __future__ import annotations

import random
import tempfile
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.datagen.corpus import JOBS
from repro.matching import DuplicateDetector, FullComparison
from repro.matching.combination import (
    Average,
    LogLikelihoodRatio,
    Maximum,
    Minimum,
    WeightedSum,
)
from repro.matching.comparison import AttributeMatcher
from repro.matching.decision.base import (
    CombinedDecisionModel,
    ThresholdClassifier,
)
from repro.matching.decision.calibration import Calibration, CalibratedModel
from repro.matching.decision.fellegi_sunter import FellegiSunterModel
from repro.matching.decision.gates import GateTrip
from repro.matching.decision.rules import IdentificationRule, RuleBasedModel
from repro.matching.derivation import DERIVATIONS
from repro.matching.executor import RetryPolicy, plan_sources
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.pdb.values import NULL, PatternValue, ProbabilisticValue
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.similarity.jaro import FAST_JARO_WINKLER
from repro.similarity.kernels import FAST_LEVENSHTEIN, SimilarityCache
from repro.similarity.uncertain import PatternPolicy, UncertainValueComparator
from repro.testing.faults import crash_on, installed
from repro.reduction import (
    AlternativeKeyBlocking,
    AlternativeSorting,
    CertainKeyBlocking,
    MultiPassBlocking,
    MultiPassSNM,
    PhoneticBlocking,
    SortedNeighborhood,
    SubstringKey,
    UncertainKeyClusteringBlocking,
    UncertainKeySNM,
    most_probable_key,
    plan_fingerprints,
)

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])

#: The ten reducers and the relation each runs on; the multi-pass
#: strategies enumerate possible worlds, so they get the tiny ℛ34.
REDUCERS = {
    "full": (FullComparison, "flat"),
    "certain_blocking": (lambda: CertainKeyBlocking(BLOCK_KEY), "x"),
    "alternative_blocking": (
        lambda: AlternativeKeyBlocking(BLOCK_KEY),
        "x",
    ),
    "snm": (lambda: SortedNeighborhood(SORT_KEY, window=5), "flat"),
    "alternative_sorting": (
        lambda: AlternativeSorting(SORT_KEY, window=4),
        "x",
    ),
    "uncertain_snm": (lambda: UncertainKeySNM(SORT_KEY, window=4), "x"),
    "uncertain_clustering": (
        lambda: UncertainKeyClusteringBlocking(BLOCK_KEY, radius=0.4),
        "x",
    ),
    "phonetic_blocking": (PhoneticBlocking, "x"),
    "multipass_snm": (
        lambda: MultiPassSNM(
            SORT_KEY, window=3, selection="diverse", world_count=2
        ),
        "r34",
    ),
    "multipass_blocking": (
        lambda: MultiPassBlocking(
            BLOCK_KEY, selection="diverse", world_count=2
        ),
        "r34",
    ),
}


def _r34() -> XRelation:
    from repro.experiments.paper_data import MU_JOBS, relation_r34

    return XRelation(
        "R34x",
        ("name", "job"),
        [
            xt.expand_patterns({"job": MU_JOBS}).expand()
            for xt in relation_r34()
        ],
    )


def _lattice_matcher(max_entries=None):
    """Jaro–Winkler names and edit-distance jobs (pattern-aware).

    ``job`` goes through a backend-aware comparator, so a run's
    ``kernel_backend`` decides which edit kernel scores it; the
    oracle's procedure keeps the reference ``"python"`` kernel.  With
    *max_entries*, caches that small clear wholesale while a session
    runs.
    """

    def cache(base):
        if max_entries is None:
            return True
        return SimilarityCache(base, max_entries=max_entries)

    return AttributeMatcher(
        {
            "name": UncertainValueComparator(
                FAST_JARO_WINKLER, cache=cache(FAST_JARO_WINKLER)
            ),
            "job": UncertainValueComparator(
                FAST_LEVENSHTEIN,
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
                cache=cache(FAST_LEVENSHTEIN),
            ),
        }
    )


def _lattice_model():
    """A Fellegi–Sunter model: its agreement threshold derives pushdown
    floors, so ``min_similarity="auto"`` really runs banded kernels."""
    return FellegiSunterModel(
        m_probabilities={"name": 0.92, "job": 0.7},
        u_probabilities={"name": 0.03, "job": 0.05},
        classifier=ThresholdClassifier(10.0, 1.0),
        agreement_threshold=0.82,
    )


def _detector(name):
    factory, _kind = REDUCERS[name]
    return DuplicateDetector(
        _lattice_matcher(), _lattice_model(), reducer=factory()
    )


def _triples(decisions):
    return [(d.left_id, d.right_id, d.status, d.similarity) for d in decisions]


@pytest.fixture(scope="module")
def relations():
    return {
        "flat": generate_dataset(
            DatasetConfig(entity_count=14, seed=61), flat=True
        ).relation,
        "x": generate_dataset(DatasetConfig(entity_count=9, seed=63)).relation,
        "r34": _r34(),
    }


@pytest.fixture(scope="module")
def spilled(tmp_path_factory, relations):
    """Every relation spilled once."""
    root = tmp_path_factory.mktemp("lattice")
    paths = {}
    for kind, relation in relations.items():
        path = str(root / kind)
        relation.spill(path, segment_size=5).close()
        paths[kind] = path
    return paths


@pytest.fixture(scope="module")
def references(relations, oracle):
    return {
        name: _triples(oracle(_detector(name), relations[kind]).decisions)
        for name, (_factory, kind) in REDUCERS.items()
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(REDUCERS)),
    chunk_size=st.integers(min_value=1, max_value=40),
    stream=st.booleans(),
    storage=st.sampled_from(("memory", "spilled")),
    on_error=st.sampled_from(("degrade", "raise")),
    kernel_backend=st.sampled_from((None, "python")),
    min_similarity=st.sampled_from((None, "auto")),
)
def test_sampled_configuration_decides_like_the_oracle(
    relations,
    spilled,
    references,
    name,
    chunk_size,
    stream,
    storage,
    on_error,
    kernel_backend,
    min_similarity,
):
    kind = REDUCERS[name][1]
    if storage == "memory":
        relation = relations[kind]
    else:
        relation = open_store(spilled[kind], page_size=4, max_pages=3)
    detector = _detector(name)
    try:
        result = detector.detect(
            relation,
            chunk_size=chunk_size,
            stream=stream,
            retry=RetryPolicy(max_attempts=2),
            on_error=on_error,
            kernel_backend=kernel_backend,
            min_similarity=min_similarity,
        )
        if stream:
            slices = list(result)
            assert [piece.partition_label for piece in slices] == [
                partition.label for partition in detector.plan(relation)
            ]
            decisions = [d for piece in slices for d in piece.decisions]
        else:
            decisions = result.decisions
        assert _triples(decisions) == references[name]
    finally:
        if storage != "memory":
            relation.close()
    report = detector.last_report
    assert report.kernel_backend == (kernel_backend or "fast")
    assert report.worker_crashes + report.worker_timeouts == 0
    assert not report.failures


# ----------------------------------------------------------------------
# Decide-path dimension
# ----------------------------------------------------------------------

DECIDE_ATTRIBUTES = ("name", "job", "city")
NAMES = ("meier", "meyer", "maier", "schmidt", "schmitt", "anna", "anne")
CITIES = ("berlin", "bern", "bremen", "essen", "esens")
PATTERNS = (PatternValue("mu*"), PatternValue("ba*"), PatternValue("pi*"))


def _uncertain(rng, domain, *, null=0.0):
    """A certain, ⊥ or uncertain value over *domain*."""
    roll = rng.random()
    if roll < null:
        return None
    if roll < 0.6:
        return rng.choice(domain)
    outcomes = rng.sample(domain, rng.randint(2, 3))
    if rng.random() < 0.3:
        outcomes.append(NULL)
    masses = [rng.random() + 0.1 for _ in outcomes]
    return ProbabilisticValue(
        {o: m / sum(masses) for o, m in zip(outcomes, masses)}
    )


def _decide_relation() -> XRelation:
    """x-tuples with ⊥ outcomes and pattern jobs; two 9-alternative
    tuples make 81-cell pairs (above the derivations' vector threshold)."""
    rng = random.Random(2010)
    jobs = list(JOBS[:12]) + list(PATTERNS)
    tuples = []
    for index in range(24):
        width = 9 if index in (3, 17) else rng.randint(1, 3)
        masses = [rng.random() + 0.2 for _ in range(width)]
        scale = rng.uniform(0.5, 1.0) / sum(masses)
        tuples.append(
            XTuple(
                f"d{index:02d}",
                [
                    TupleAlternative(
                        {
                            "name": _uncertain(rng, NAMES, null=0.05),
                            "job": _uncertain(rng, jobs, null=0.1),
                            "city": _uncertain(rng, CITIES, null=0.1),
                        },
                        mass * scale,
                    )
                    for mass in masses
                ],
            )
        )
    return XRelation("decide", DECIDE_ATTRIBUTES, tuples)


def _decide_matcher(policy: str) -> AttributeMatcher:
    job = (
        UncertainValueComparator(
            FAST_JARO_WINKLER,
            pattern_policy=PatternPolicy.EXPAND,
            pattern_lexicon=JOBS,
            cache=True,
        )
        if policy == "expand"
        else UncertainValueComparator(
            FAST_JARO_WINKLER, pattern_policy=PatternPolicy.PREFIX, cache=True
        )
    )
    return AttributeMatcher(
        {
            "name": UncertainValueComparator(FAST_JARO_WINKLER, cache=True),
            "job": job,
            "city": UncertainValueComparator(FAST_LEVENSHTEIN, cache=True),
        }
    )


def _calibrated(trips):
    calibration = Calibration(
        method="conformal",
        threshold=0.8,
        target_fpr=0.05,
        alpha=None,
        n_match=20,
        n_nonmatch=20,
        feasible=True,
        calibration_fpr=0.0,
        set_fingerprint="differential",
    )
    return CalibratedModel(
        _weighted3(), calibration, gate_trips=trips
    )


def _weighted3():
    return CombinedDecisionModel(
        WeightedSum({"name": 0.5, "job": 0.3, "city": 0.2}),
        ThresholdClassifier(0.85, 0.6),
    )


#: Decision models; the threshold-based ones (rules, Fellegi–Sunter,
#: log-likelihood ratio) also derive pushdown floors.
DECIDE_MODELS = {
    "weighted": _weighted3,
    "average": lambda: CombinedDecisionModel(
        Average(), ThresholdClassifier(0.8, 0.6)
    ),
    "minimum": lambda: CombinedDecisionModel(
        Minimum(), ThresholdClassifier(0.7, 0.4)
    ),
    "maximum": lambda: CombinedDecisionModel(
        Maximum(), ThresholdClassifier(0.95, 0.8)
    ),
    "rules": lambda: RuleBasedModel(
        [
            IdentificationRule.build(
                [("name", 0.85), ("job", 0.8)], 0.95, name="both"
            ),
            IdentificationRule.build([("name", 0.92)], 0.8, name="name"),
            IdentificationRule.build(
                [("city", 0.7), ("name", 0.75)], 0.7, name="city"
            ),
        ],
        ThresholdClassifier(0.75, 0.5),
    ),
    "fellegi_sunter": lambda: FellegiSunterModel(
        m_probabilities={"name": 0.92, "job": 0.7, "city": 0.8},
        u_probabilities={"name": 0.03, "job": 0.05, "city": 0.2},
        classifier=ThresholdClassifier(40.0, 2.0),
        agreement_threshold=0.82,
    ),
    "llr": lambda: CombinedDecisionModel(
        LogLikelihoodRatio(
            {"name": 0.9, "job": 0.7, "city": 0.8},
            {"name": 0.1, "job": 0.2, "city": 0.3},
            agreement_threshold=0.86,
        ),
        ThresholdClassifier(2.0, -1.0),
    ),
    "calibrated": lambda: _calibrated(()),
    "calibrated_gated": lambda: _calibrated(
        (GateTrip("min_calibration_size", 3.0, 50.0),)
    ),
}

#: A final classifier on each derivation's scale.
FINAL_CLASSIFIERS = {
    "matching_weight": ThresholdClassifier(2.0, 0.5),
    "expected_matching_result": ThresholdClassifier(1.2, 0.6),
}


@pytest.fixture(scope="module")
def decide_relation():
    return _decide_relation()


def _decide_detector(model, derivation, policy):
    return DuplicateDetector(
        _decide_matcher(policy),
        DECIDE_MODELS[model](),
        derivation=DERIVATIONS[derivation](),
        final_classifier=FINAL_CLASSIFIERS.get(derivation),
    )


def _bitwise(decisions):
    return [
        (d.left_id, d.right_id, d.status, repr(d.similarity))
        for d in decisions
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(sorted(DECIDE_MODELS)),
    derivation=st.sampled_from(sorted(DERIVATIONS)),
    policy=st.sampled_from(("expand", "prefix")),
    pushdown=st.booleans(),
    keep_derivations=st.booleans(),
)
def test_batched_decide_path_decides_like_the_oracle(
    decide_relation, oracle, model, derivation, policy, pushdown,
    keep_derivations,
):
    reference = oracle(
        _decide_detector(model, derivation, policy),
        decide_relation,
        keep_derivations=keep_derivations,
    ).decisions
    detector = _decide_detector(model, derivation, policy)
    result = detector.detect(
        decide_relation,
        keep_derivations=keep_derivations,
        min_similarity="auto" if pushdown else None,
        chunk_size=64,
    )
    assert _bitwise(result.decisions) == _bitwise(reference)
    assert [d.derivation_input for d in result.decisions] == [
        d.derivation_input for d in reference
    ]


# ----------------------------------------------------------------------
# Session dimension
# ----------------------------------------------------------------------

#: Two reducers whose key pass a session memoizes per tuple, and one
#: whose blocks it recomputes whole.
SESSION_REDUCERS = ("certain_blocking", "snm", "phonetic_blocking")

#: First-name-letter key: a donor with another initial re-keys a tuple
#: under every sampled reducer.
INITIAL = SubstringKey([("name", 1)])


@pytest.fixture(scope="module")
def session_relation():
    """x-tuples in which every session reducer finds blocks to keep."""
    return generate_dataset(DatasetConfig(entity_count=16, seed=63)).relation


def _session_detector(name, max_entries):
    """*name*'s detector over :func:`_lattice_matcher` (*max_entries*)."""
    return DuplicateDetector(
        _lattice_matcher(max_entries),
        _lattice_model(),
        reducer=REDUCERS[name][0](),
    )


def _session_batches(relation, steps):
    """A session's base and ingest batches from sampled ``(kind, pick)``
    steps over the last third of *relation* (the donors)."""
    rows = list(relation)
    cut = len(rows) - len(rows) // 3
    base = XRelation(relation.name, relation.schema.attributes, rows[:cut])
    donors = rows[cut:]
    live = list(base.tuple_ids)
    content = {xtuple.tuple_id: xtuple for xtuple in base}
    changed: list[str] = []
    batches = []
    for number, (kind, pick) in enumerate(steps):
        victim = live[pick % len(live)]
        donor = donors[pick % len(donors)]
        if kind == "revert":
            # Back to the base content of a tuple an earlier step
            # changed, which the session's view coded in between.
            victim = changed[pick % len(changed)] if changed else victim
            content[victim] = base.get(victim)
            batches.append(([content[victim]], []))
            continue
        if kind in ("rekey", "modify", "reweigh"):
            changed.append(victim)
        if kind == "rekey":
            initial = most_probable_key(content[victim], INITIAL)
            donor = next(
                (
                    candidate
                    for candidate in donors
                    if most_probable_key(candidate, INITIAL) != initial
                ),
                donor,
            )
        if kind in ("rekey", "modify"):
            content[victim] = XTuple(victim, donor.alternatives)
            batches.append(([content[victim]], []))
        elif kind == "reweigh":
            # New content under every key: halving each alternative's
            # probability keeps which one is most probable.
            content[victim] = XTuple(
                victim,
                tuple(
                    TupleAlternative(
                        alternative.values(), alternative.probability / 2
                    )
                    for alternative in content[victim].alternatives
                ),
            )
            batches.append(([content[victim]], []))
        elif kind == "delete_readd":
            batches.append(([], [victim]))
            batches.append(([content[victim]], []))
        else:
            fresh = XTuple(f"new{number}", donor.alternatives)
            content[fresh.tuple_id] = fresh
            live.append(fresh.tuple_id)
            batches.append(([fresh], []))
    return base, batches


class _MemoFreeView:
    """A session view's read and source-tag surface without its memos:
    planning it runs every planner step from scratch."""

    def __init__(self, view) -> None:
        self._view = view
        self.schema = view.schema
        self.name = view.name

    @property
    def tuple_ids(self):
        return self._view.tuple_ids

    @property
    def source_names(self):
        return self._view.source_names

    def __iter__(self):
        return iter(self._view)

    def __len__(self) -> int:
        return len(self._view)

    def __contains__(self, tuple_id) -> bool:
        return tuple_id in self._view

    def get(self, tuple_id):
        return self._view.get(tuple_id)

    def fetch(self, tuple_ids):
        return self._view.fetch(tuple_ids)

    def project(self, attributes):
        return self._view.project(attributes)

    def source_of(self, tuple_id):
        return self._view.source_of(tuple_id)


def _memo_cap(cap):
    """A patch under which registries and value memos fill at *cap*
    entries (``None``: unchanged), so each refresh replaces the
    registries the last one filled."""
    import repro.similarity.uncertain as uncertain

    return patch.object(
        uncertain, "_VALUE_MEMO_CAP", cap or uncertain._VALUE_MEMO_CAP
    )


def _assert_plan_is_memo_free(session, name) -> None:
    """The refresh's plan and fingerprints equal a memo-free
    ``plan_sources`` + ``plan_fingerprints`` over the same view."""
    view = _MemoFreeView(session.store)
    fresh = plan_sources(REDUCERS[name][0](), view)
    assert session.last_plan == fresh
    assert [p.sources for p in session.last_plan] == [
        p.sources for p in fresh
    ]
    assert session.last_fingerprints == plan_fingerprints(view, fresh)


def _pairs(result):
    """A result's pairs, in order (none without a result)."""
    if result is None:
        return []
    return [(d.left_id, d.right_id) for d in result.decisions]


def _ingest_checked(session, previous, upserts, deletes):
    """``session.ingest(upserts, deletes=deletes)``, checking the
    refresh's bookkeeping against *previous*, the session's result
    before it (``None`` when it has none, as right after a re-open).

    The engine decided at most the new plan's pairs that have a member
    the batch changed or that *previous* lacks, and the tombstones are
    *previous*'s pairs minus the new result's, in previous order."""
    executed = session.stats.pairs_executed
    result = session.ingest(upserts, deletes=deletes)
    changed = {xtuple.tuple_id for xtuple in upserts} | set(deletes)
    held = set(_pairs(previous))
    due = [
        pair
        for pair in session.last_plan.pairs()
        if pair not in held or not changed.isdisjoint(pair)
    ]
    assert session.stats.pairs_executed - executed <= len(due)
    current = set(_pairs(result))
    assert session.tombstones == tuple(
        pair for pair in _pairs(previous) if pair not in current
    )
    return result


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(SESSION_REDUCERS),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                (
                    "rekey",
                    "modify",
                    "reweigh",
                    "revert",
                    "delete_readd",
                    "new",
                )
            ),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=2,
        max_size=4,
    ),
    max_entries=st.sampled_from((None, 2)),
    memo_cap=st.sampled_from((None, 40)),
)
def test_session_decides_like_the_oracle(
    session_relation, oracle, materialize, name, steps, max_entries, memo_cap
):
    """detect over the committed view, every ingest of the stream, and
    a re-opened session all decide what the oracle decides; every
    refresh plans what a memo-free planner plans, re-decides only the
    pairs its batch changed and retracts exactly the pairs that left
    the result (:func:`_ingest_checked`).  Array batches gather
    from the coded view the session keeps across refreshes; with
    *memo_cap*, registries fill and are replaced between refreshes, so
    the view starts over."""
    base, batches = _session_batches(session_relation, steps)
    with tempfile.TemporaryDirectory() as directory:
        detector = _session_detector(name, max_entries)
        session = detector.session(
            base, journal=directory, keep_derivations=False
        )
        with _memo_cap(memo_cap):
            result = session.detect()
        _assert_plan_is_memo_free(session, name)
        for count, (upserts, deletes) in enumerate(batches, 1):
            with _memo_cap(memo_cap):
                result = _ingest_checked(session, result, upserts, deletes)
            _assert_plan_is_memo_free(session, name)
            reference = oracle(
                _detector(name),
                materialize(base, batches[:count]),
                keep_derivations=False,
            )
            assert _bitwise(result.decisions) == _bitwise(
                reference.decisions
            )
        view = materialize(base, batches)
        detected = _detector(name).detect(view, keep_derivations=False)
        assert _bitwise(detected.decisions) == _bitwise(reference.decisions)
        reopened = _session_detector(name, max_entries).session(
            base, journal=directory, keep_derivations=False
        )
        assert _bitwise(reopened.detect().decisions) == _bitwise(
            reference.decisions
        )
        assert reopened.stats.torn_records == 0


#: A fixed stream for the sibling test below: two re-weighs (new
#: content under the same keys, so every reducer plans the tuple in a
#: pair), a delete and its re-add, a new id, a revert and a re-weigh
#: (7 batches).
PAIR_STEPS = (
    ("reweigh", 0),
    ("reweigh", 4),
    ("delete_readd", 11),
    ("new", 5),
    ("revert", 2),
    ("reweigh", 5),
)

#: Batches the first session ingests; the rest go to a re-opened one.
REOPEN_BATCH = 4


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_session_skips_a_faulted_partition_and_reopens_like_the_oracle(
    name, session_relation, oracle, materialize, tmp_path
):
    """Every reducer's session, under ``on_error="skip"``, decides each
    ingest of a fixed stream as the oracle does, re-deciding only the
    pairs the batch changed (:func:`_ingest_checked`).  One ingest meets
    a seeded crash in a pair with a changed member: its partition is
    dropped whole, its previously held pairs are tombstoned, and the
    next ingest decides it again.  The session is then re-opened, and
    its first ingest (no result to splice pairs from) and the next
    also decide what the oracle decides."""
    relation = _r34() if REDUCERS[name][1] == "r34" else session_relation
    base, batches = _session_batches(relation, PAIR_STEPS)

    def expected(count):
        return _bitwise(
            oracle(
                _detector(name),
                materialize(base, batches[:count]),
                keep_derivations=False,
            ).decisions
        )

    def open_session():
        return _detector(name).session(
            base,
            journal=str(tmp_path),
            keep_derivations=False,
            on_error="skip",
        )

    session = open_session()
    result = session.detect()
    faulted = False
    for count, (upserts, deletes) in enumerate(
        batches[:REOPEN_BATCH], 1
    ):
        # The first batch before the last whose upserts are planned in
        # a pair meets the fault.
        changed = {xtuple.tuple_id for xtuple in upserts}
        candidates = [
            pair
            for pair in plan_sources(
                REDUCERS[name][0](), materialize(base, batches[:count])
            ).pairs()
            if not changed.isdisjoint(pair)
        ]
        if faulted or count == REOPEN_BATCH or not candidates:
            result = _ingest_checked(session, result, upserts, deletes)
            assert _bitwise(result.decisions) == expected(count)
            continue
        faulted = True
        target = random.Random(f"{name}/fault").choice(candidates)
        planned = session.stats.partitions_planned
        settled = (
            session.stats.partitions_reused
            + session.stats.partitions_executed
        )
        with installed(crash_on(target)):
            result = _ingest_checked(session, result, upserts, deletes)
        (failure,) = session.last_report.failures
        (dropped,) = [
            partition
            for partition in session.last_plan
            if target in partition.pairs
        ]
        assert failure.partition == dropped.label
        assert _bitwise(result.decisions) == [
            row for row in expected(count) if row[:2] not in dropped.pairs
        ]
        # planned = reused + executed + skipped
        assert (
            session.stats.partitions_reused
            + session.stats.partitions_executed
            - settled
        ) == session.stats.partitions_planned - planned - 1
    assert faulted
    reopened = open_session()
    result = None
    for count, (upserts, deletes) in enumerate(batches, 1):
        if count <= REOPEN_BATCH:
            continue
        result = _ingest_checked(reopened, result, upserts, deletes)
        assert _bitwise(result.decisions) == expected(count)


# ----------------------------------------------------------------------
# Multi-batch runs over the coded view
# ----------------------------------------------------------------------

#: Relations large enough that full comparison at ``chunk_size`` 48..300
#: runs several array batches (each of at least ``BATCH_MIN_CELLS``
#: cells), every tuple's pairs spread over many of them.
MULTI_BATCH = {
    "flat": lambda: generate_dataset(
        DatasetConfig(entity_count=30, seed=61), flat=True
    ).relation,
    "x": lambda: generate_dataset(
        DatasetConfig(entity_count=16, seed=63)
    ).relation,
}


def _full_detector():
    return DuplicateDetector(
        _lattice_matcher(), _lattice_model(), reducer=FullComparison()
    )


@pytest.fixture(scope="module")
def multi_batch(tmp_path_factory, oracle):
    """Each multi-batch relation, its spill and its oracle decisions."""
    root = tmp_path_factory.mktemp("multi_batch")
    cases = {}
    for kind, make in MULTI_BATCH.items():
        relation = make()
        path = str(root / kind)
        relation.spill(path, segment_size=5).close()
        reference = oracle(_full_detector(), relation, keep_derivations=False)
        cases[kind] = (relation, path, _bitwise(reference.decisions))
    return cases


class _ArrayBatches:
    """Counts the batches a run decides as arrays (one
    ``compare_batch`` call each) while active."""

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self):
        original = AttributeMatcher.compare_batch

        def counting(matcher, *args):
            self.count += 1
            return original(matcher, *args)

        self._original = original
        AttributeMatcher.compare_batch = counting
        return self

    def __exit__(self, *exc):
        AttributeMatcher.compare_batch = self._original


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(MULTI_BATCH)),
    chunk_size=st.integers(min_value=48, max_value=300),
    storage=st.sampled_from(("memory", "spilled")),
    min_similarity=st.sampled_from((None, "auto")),
)
def test_multi_batch_run_decides_like_the_oracle(
    multi_batch, kind, chunk_size, storage, min_similarity
):
    """A run of several array batches gathers every tuple from one
    coded view, including tuples whose pairs span batches and, spilled
    with four-tuple pages, tuples decoded afresh by every fetch; it
    still decides the oracle's decisions bit for bit."""
    relation, path, reference = multi_batch[kind]
    if storage == "spilled":
        relation = open_store(path, page_size=4, max_pages=3)
    try:
        with _ArrayBatches() as batches:
            result = _full_detector().detect(
                relation,
                chunk_size=chunk_size,
                keep_derivations=False,
                min_similarity=min_similarity,
            )
    finally:
        if storage == "spilled":
            relation.close()
    assert batches.count >= 2
    assert _bitwise(result.decisions) == reference


def test_registry_reset_mid_run_decides_like_the_oracle(
    multi_batch, monkeypatch
):
    """Registries so small that each fills within a batch are replaced
    between the batches of one ``detect`` and of one session refresh;
    the coded view re-encodes against each new registry, and every
    decision stays the oracle's, bit for bit."""
    import repro.similarity.uncertain as uncertain

    monkeypatch.setattr(uncertain, "_VALUE_MEMO_CAP", 40)
    resets = []
    new_registry = uncertain.UncertainValueComparator._new_registry

    def counting(comparator):
        resets.append(comparator)
        return new_registry(comparator)

    monkeypatch.setattr(
        uncertain.UncertainValueComparator, "_new_registry", counting
    )
    for kind in ("flat", "x"):
        relation, _path, reference = multi_batch[kind]
        with _ArrayBatches() as batches:
            result = _full_detector().detect(
                relation, chunk_size=60, keep_derivations=False
            )
        assert batches.count >= 3
        assert len(resets) >= batches.count
        assert _bitwise(result.decisions) == reference
        resets.clear()
        session = _full_detector().session(
            relation, chunk_size=60, keep_derivations=False
        )
        with _ArrayBatches() as batches:
            refreshed = session.detect()
        assert batches.count >= 3
        assert len(resets) >= batches.count
        assert _bitwise(refreshed.decisions) == reference
        resets.clear()


def _count_encodes(monkeypatch) -> dict[str, int]:
    """Counters of ``_plain_element`` (``"plain"``) and
    ``_Registry.value`` (``"value"``) calls made outside the per-pair
    reference decides, from now until *monkeypatch* undoes them."""
    import repro.matching.engine as engine
    import repro.similarity.uncertain as uncertain

    counts = {"plain": 0, "value": 0}
    deciding = [0]
    comparator = uncertain.UncertainValueComparator
    plain_element = comparator._plain_element
    value = uncertain._Registry.value
    decide = engine.XTupleDecisionProcedure.decide

    def counted(key, function):
        def wrapper(*args):
            if not deciding[0]:
                counts[key] += 1
            return function(*args)

        return wrapper

    def reference(procedure, *args, **kwargs):
        deciding[0] += 1
        try:
            return decide(procedure, *args, **kwargs)
        finally:
            deciding[0] -= 1

    monkeypatch.setattr(
        comparator, "_plain_element", counted("plain", plain_element)
    )
    monkeypatch.setattr(uncertain._Registry, "value", counted("value", value))
    monkeypatch.setattr(engine.XTupleDecisionProcedure, "decide", reference)
    return counts


def test_each_value_is_encoded_once_per_run(multi_batch, monkeypatch):
    """Over a run of many array batches, outside the per-pair reference
    decides, each (tuple, alternative, attribute) is encoded at most
    once: one ``_plain_element`` and one ``_Registry.value`` call."""
    counts = _count_encodes(monkeypatch)
    for kind in ("flat", "x"):
        relation, path, reference_decisions = multi_batch[kind]
        cells = sum(len(xtuple.alternatives) for xtuple in relation) * len(
            relation.schema.attributes
        )
        for storage in ("memory", "spilled"):
            counts.update(plain=0, value=0)
            store = (
                relation
                if storage == "memory"
                else open_store(path, page_size=4, max_pages=3)
            )
            try:
                with _ArrayBatches() as batches:
                    result = _full_detector().detect(
                        store, chunk_size=64, keep_derivations=False
                    )
            finally:
                if storage == "spilled":
                    store.close()
            assert batches.count >= 5
            assert _bitwise(result.decisions) == reference_decisions
            assert 0 < counts["plain"] <= cells, (kind, storage)
            assert 0 < counts["value"] <= cells, (kind, storage)


def test_warm_session_ingest_encodes_only_its_upserts(
    monkeypatch, oracle, materialize
):
    """A session keeps its coded view across refreshes.  Over one
    ingest of a warm session — modified ids, a new id, a delete —
    outside the per-pair reference decides, only the upserted tuples
    are encoded: at most one ``_plain_element`` and one
    ``_Registry.value`` call per (alternative, attribute) cell of the
    upserts, though the refresh re-decides every window they shift.
    (Sorted neighbourhood pairs every tuple, so the initial detection
    meets them all.)"""
    relation = generate_dataset(
        DatasetConfig(entity_count=40, seed=63)
    ).relation
    rows = list(relation)
    base = XRelation(relation.name, relation.schema.attributes, rows[:-8])
    donors = rows[-8:]

    def detector():
        return DuplicateDetector(
            _lattice_matcher(),
            _lattice_model(),
            reducer=SortedNeighborhood(SORT_KEY, window=5),
        )

    session = detector().session(base, keep_derivations=False)
    session.detect()
    ids = base.tuple_ids
    upserts = [
        XTuple(ids[0], donors[0].alternatives),
        XTuple(ids[len(ids) // 2], donors[1].alternatives),
        XTuple(ids[-1], donors[2].alternatives),
        XTuple("fresh", donors[3].alternatives),
    ]
    deletes = [ids[len(ids) // 3]]
    before = set(session.last_fingerprints)
    counts = _count_encodes(monkeypatch)
    with _ArrayBatches() as batches:
        result = session.ingest(upserts, deletes=deletes)

    cells = sum(len(xtuple.alternatives) for xtuple in upserts) * len(
        base.schema.attributes
    )
    executed = {
        member
        for partition, fingerprint in zip(
            session.last_plan.partitions, session.last_fingerprints
        )
        if fingerprint not in before
        for member in partition.members
    }
    assert batches.count >= 1
    assert len(executed) > 2 * len(upserts)
    assert 0 < counts["plain"] <= cells
    assert 0 < counts["value"] <= cells
    reference = oracle(
        detector(),
        materialize(base, [(upserts, deletes)]),
        keep_derivations=False,
    )
    assert _bitwise(result.decisions) == _bitwise(reference.decisions)
