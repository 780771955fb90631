"""Byte-reproducible audit manifests for detection runs.

A production merge decision must be *defensible*: given only the
manifest of a run, an auditor can (a) verify the manifest file itself
was not edited (self-digest), (b) verify a re-run of the same inputs
produced the same decisions (semantic fingerprint), and (c) see every
input that determined the outcome — calibration-set fingerprints,
resolved thresholds and pushdown floors, the plan's per-partition
content fingerprints, and the per-partition η counts.

The **semantic payload** deliberately excludes how the run was executed
— chunk size, kernel backend, storage backend — because the execution
layers are all pinned bitwise to the in-memory reference: a spilled run
packed at a small chunk size over the same data with the same model
*must* produce the same manifest fingerprint as an in-memory run at the
default chunk size, and ``tests/test_calibration.py`` holds the system
to that.  Execution details are still recorded, as non-fingerprinted
``environment`` metadata.

Serialization is canonical JSON (sorted keys, no whitespace, shortest
round-trip floats), so equal payloads are equal *bytes* — the
fingerprint is a blake2b over exactly those bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from repro.pdb.io import write_text_atomic

#: Manifest schema version.
MANIFEST_FORMAT = 1

#: Digest size (bytes) of manifest fingerprints and self-digests.
_DIGEST_BYTES = 16


class ManifestIntegrityError(ValueError):
    """A manifest file's content does not match its recorded digest."""


def _canonical_bytes(document) -> bytes:
    """Canonical JSON bytes: equal documents ⇒ equal bytes."""
    return json.dumps(
        document,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(
        payload, digest_size=_DIGEST_BYTES
    ).hexdigest()


@dataclass(frozen=True)
class AuditManifest:
    """One detection run, reduced to its reproducible essence.

    Attributes
    ----------
    thresholds:
        Resolved classifier state: ``{"match": T_μ, "unmatch": T_λ,
        "forced_unsure": bool}``.
    floors:
        Pushdown floors in force (``{"per_attribute": {...},
        "default": x}``), or ``None`` when the run was exact.
    calibration:
        The calibrated model's audit entry (method, target FPR,
        calibration-set fingerprint, gate trips …), or ``None`` for an
        uncalibrated model.
    plan_fingerprints:
        Per-partition content fingerprints
        (:func:`repro.reduction.plan.plan_fingerprints`), in plan
        order — pinning *which data* each partition decided.
    partition_counts:
        Per-partition η counts ``{label: [matches, possibles,
        unmatches]}`` over the partitions that produced results.
    status_totals:
        Run-wide η counts ``{"m": …, "p": …, "u": …}``.
    decided_pairs:
        Total pairs decided.
    failures:
        Labels of partitions dropped by ``on_error="skip"``, sorted.
    environment:
        Execution metadata (kernel ``"fast"``/``"python"``,
        storage class, model class; see :func:`run_environment`) —
        recorded for forensics, **excluded from the fingerprint** (see
        module docstring).
    digest:
        The self-digest recorded in a loaded file; ``None`` for
        freshly built manifests (computed on write).
    """

    thresholds: Mapping
    floors: Mapping | None
    calibration: Mapping | None
    plan_fingerprints: tuple[str, ...]
    partition_counts: Mapping[str, Sequence[int]]
    status_totals: Mapping[str, int]
    decided_pairs: int
    failures: tuple[str, ...] = ()
    environment: Mapping = field(default_factory=dict)
    format: int = MANIFEST_FORMAT
    digest: str | None = None

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------

    def payload(self) -> dict:
        """The semantic content — everything that *should* reproduce."""
        return {
            "format": self.format,
            "thresholds": dict(self.thresholds),
            "floors": dict(self.floors) if self.floors is not None else None,
            "calibration": (
                dict(self.calibration)
                if self.calibration is not None
                else None
            ),
            "plan_fingerprints": list(self.plan_fingerprints),
            "partition_counts": {
                label: list(counts)
                for label, counts in dict(self.partition_counts).items()
            },
            "status_totals": dict(self.status_totals),
            "decided_pairs": self.decided_pairs,
            "failures": list(self.failures),
        }

    def payload_bytes(self) -> bytes:
        """Canonical bytes of :meth:`payload` — the fingerprint input."""
        return _canonical_bytes(self.payload())

    def fingerprint(self) -> str:
        """Semantic fingerprint: equal iff the runs are equivalent."""
        return _digest(self.payload_bytes())

    def verify_against(self, other: "AuditManifest") -> bool:
        """Whether two runs are semantically byte-identical."""
        return self.payload_bytes() == other.payload_bytes()

    def diff(self, other: "AuditManifest") -> tuple[str, ...]:
        """Top-level payload keys on which two manifests disagree."""
        mine, theirs = self.payload(), other.payload()
        return tuple(
            sorted(
                key
                for key in set(mine) | set(theirs)
                if mine.get(key) != theirs.get(key)
            )
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_document(self) -> dict:
        """Full JSON document: payload + environment + self-digest.

        The digest covers payload *and* environment, so editing either
        in the file is detected; the semantic fingerprint still covers
        the payload only.
        """
        document = {
            "payload": self.payload(),
            "environment": dict(self.environment),
        }
        document["digest"] = _digest(_canonical_bytes(document))
        return document

    def write(self, path: str | os.PathLike) -> str:
        """Write the manifest JSON atomically; returns the recorded
        digest.

        The file is replaced whole (:func:`repro.pdb.io.write_text_atomic`),
        so a crash mid-write leaves the previous manifest, never a
        truncated one.
        """
        document = self.to_document()
        write_text_atomic(
            os.fspath(path),
            json.dumps(document, sort_keys=True, indent=2) + "\n",
        )
        return document["digest"]

    def verify_integrity(self) -> bool:
        """Whether a loaded manifest still matches its recorded digest.

        Freshly built manifests (no recorded digest) verify trivially.
        """
        if self.digest is None:
            return True
        document = {
            "payload": self.payload(),
            "environment": dict(self.environment),
        }
        return _digest(_canonical_bytes(document)) == self.digest

    @classmethod
    def from_document(cls, document: Mapping) -> "AuditManifest":
        payload = document.get("payload", {})
        return cls(
            thresholds=payload.get("thresholds", {}),
            floors=payload.get("floors"),
            calibration=payload.get("calibration"),
            plan_fingerprints=tuple(
                payload.get("plan_fingerprints", ())
            ),
            partition_counts={
                str(label): list(counts)
                for label, counts in payload.get(
                    "partition_counts", {}
                ).items()
            },
            status_totals=dict(payload.get("status_totals", {})),
            decided_pairs=int(payload.get("decided_pairs", 0)),
            failures=tuple(payload.get("failures", ())),
            environment=dict(document.get("environment", {})),
            format=int(payload.get("format", MANIFEST_FORMAT)),
            digest=document.get("digest"),
        )


def load_manifest(
    path: str | os.PathLike, *, verify: bool = True
) -> AuditManifest:
    """Load a manifest file; by default refuse tampered files.

    With ``verify=True`` (default) a file whose content no longer
    matches its recorded digest raises :class:`ManifestIntegrityError`;
    pass ``verify=False`` to load it anyway and inspect
    :meth:`AuditManifest.verify_integrity` manually.  A file that is
    not a JSON object (a torn or overwritten manifest) raises
    :class:`ManifestIntegrityError` either way.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except ValueError as error:
        raise ManifestIntegrityError(
            f"{os.fspath(path)}: not a manifest document ({error}) — "
            "the file is torn or corrupt"
        ) from error
    if not isinstance(document, dict):
        raise ManifestIntegrityError(
            f"{os.fspath(path)}: not a manifest document (a JSON "
            f"{type(document).__name__}) — the file is corrupt"
        )
    manifest = AuditManifest.from_document(document)
    if verify and not manifest.verify_integrity():
        raise ManifestIntegrityError(
            f"{os.fspath(path)}: content does not match recorded "
            f"digest {manifest.digest} — the file was edited"
        )
    return manifest


#: η of a decision record as its raw enum value, read in C (the enum's
#: ``value`` property would run Python code per record).
_ETA = attrgetter("decision.status._value_")


def status_counts(decisions) -> list[int]:
    """η counts ``[matches, possibles, unmatches]`` of decision records.

    The library's one η counter: the manifest's per-partition counts
    and the :class:`~repro.matching.executor.ExecutionReport` counters
    both come from it.  Every pass over the records runs in C.
    """
    etas = list(map(_ETA, decisions))
    return [etas.count("m"), etas.count("p"), etas.count("u")]


def run_environment(settings, store, procedure) -> dict:
    """The ``environment`` entry of a run's manifest: how it executed.

    *settings* are the run's
    :class:`~repro.matching.executor.ExecutionSettings`, *store* the
    relation or view it read.
    """
    return {
        "kernel_backend": settings.kernel_backend,
        "storage": type(store).__name__,
        "model": type(procedure.model).__name__,
    }


def build_manifest(
    *,
    procedure,
    plan_fingerprints: Sequence[str],
    partition_counts: Mapping[str, Sequence[int]],
    floors=None,
    failures: Sequence[str] = (),
    environment: Mapping | None = None,
) -> AuditManifest:
    """Assemble a manifest from a run's resolved configuration.

    *procedure* is the :class:`~repro.matching.engine.
    XTupleDecisionProcedure` the run executed with — its final
    classifier supplies the thresholds and a calibrated model its
    calibration audit entry.  *floors* are the pushdown floors the run
    actually resolved (``None`` for an exact run) — passed explicitly
    because the procedure can only report what *could* be pruned, not
    what was.
    """
    classifier = procedure.final_classifier
    thresholds = {
        "match": classifier.match_threshold,
        "unmatch": classifier.unmatch_threshold,
        "forced_unsure": bool(getattr(classifier, "trips", ())),
    }
    floors_entry = None
    if floors is not None and not floors.is_exact:
        floors_entry = {
            "per_attribute": dict(floors.per_attribute),
            "default": floors.default,
        }
    model = procedure.model
    entry_supplier = getattr(model, "audit_entry", None)
    calibration = entry_supplier() if callable(entry_supplier) else None

    totals = {"m": 0, "p": 0, "u": 0}
    counts_by_label: dict[str, list[int]] = {}
    decided = 0
    for label, counts in dict(partition_counts).items():
        matches, possibles, unmatches = counts
        counts_by_label[str(label)] = [matches, possibles, unmatches]
        totals["m"] += matches
        totals["p"] += possibles
        totals["u"] += unmatches
        decided += matches + possibles + unmatches

    return AuditManifest(
        thresholds=thresholds,
        floors=floors_entry,
        calibration=calibration,
        plan_fingerprints=tuple(plan_fingerprints),
        partition_counts=counts_by_label,
        status_totals=totals,
        decided_pairs=decided,
        failures=tuple(sorted(failures)),
        environment=dict(environment or {}),
    )


__all__ = [
    "MANIFEST_FORMAT",
    "AuditManifest",
    "ManifestIntegrityError",
    "build_manifest",
    "load_manifest",
    "run_environment",
    "status_counts",
]
