"""JSON serialization of probabilistic relations.

A portable, human-readable interchange format so datasets can be stored,
diffed and shared.  The format is self-describing:

.. code-block:: json

    {
      "name": "R3",
      "schema": ["name", "job"],
      "xtuples": [
        {
          "id": "t31",
          "alternatives": [
            {"p": 0.7, "values": {"name": "John", "job": "pilot"}},
            {"p": 0.3, "values": {"name": "Johan",
                                  "job": {"pattern": "mu*"}}}
          ]
        }
      ]
    }

Value encodings:

* plain JSON scalars — certain values;
* ``null`` — the ⊥ marker;
* ``{"pattern": "mu*"}`` — a pattern value;
* ``{"dist": {"Tim": 0.6, "Tom": 0.4}, "null": 0.0}`` — a distribution
  (the ``null`` key carries explicit ⊥ mass; residual mass is implied).

Distribution outcomes are stored as strings; non-string domain values
round-trip through their ``str`` form (documented limitation — the
paper's examples are string-valued).

Two distribution encodings exist:

* the **legacy** form above (``{"dist": ...}``), which groups outcomes
  by kind and therefore loses their original iteration order;
* the **exact** form ``{"outcomes": [[outcome, p], ...]}`` used by the
  segment files of :mod:`repro.pdb.storage` — it preserves outcome
  order bit for bit, so floating-point accumulations over a decoded
  value (Equations 4/5) reproduce the source relation's results
  exactly.  :func:`decode_value` accepts both.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any

from repro.pdb.errors import ProbabilisticDataError, StorageError
from repro.pdb.relations import Schema, XRelation
from repro.pdb.values import NULL, PatternValue, ProbabilisticValue
from repro.pdb.xtuples import TupleAlternative, XTuple

#: Format identifier embedded in every document.
FORMAT_VERSION = 1

#: Per-process sequence distinguishing concurrent atomic writers.
_TEMP_COUNTER = itertools.count()


class SerializationError(ProbabilisticDataError):
    """Malformed document or unsupported value during (de)serialization."""


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------


def encode_value(value: ProbabilisticValue) -> Any:
    """Encode one probabilistic value into its JSON form."""
    if value.is_null:
        return None
    if value.is_certain:
        outcome = value.certain_value
        if isinstance(outcome, PatternValue):
            return {"pattern": outcome.pattern}
        return outcome
    distribution: dict[str, float] = {}
    null_mass = 0.0
    patterns: dict[str, float] = {}
    for outcome, probability in value.items():
        if outcome is NULL:
            null_mass = probability
        elif isinstance(outcome, PatternValue):
            patterns[outcome.pattern] = probability
        else:
            distribution[str(outcome)] = probability
    encoded: dict[str, Any] = {"dist": distribution}
    if null_mass > 0.0:
        encoded["null"] = null_mass
    if patterns:
        encoded["patterns"] = patterns
    return encoded


def _encode_outcome(outcome: Any) -> Any:
    """One domain element of the exact (order-preserving) encoding."""
    if outcome is NULL:
        return None
    if isinstance(outcome, PatternValue):
        return {"pattern": outcome.pattern}
    if isinstance(outcome, (str, int, float, bool)):
        return outcome
    return str(outcome)


def _decode_outcome(encoded: Any) -> Any:
    if encoded is None:
        return NULL
    if isinstance(encoded, dict):
        try:
            return PatternValue(encoded["pattern"])
        except KeyError:
            raise SerializationError(
                f"unrecognized outcome document: {encoded!r}"
            ) from None
    return encoded


def encode_value_exact(value: ProbabilisticValue) -> Any:
    """Encode a value preserving the exact outcome iteration order.

    Certain values use the same compact forms as :func:`encode_value`;
    uncertain values become an ordered ``{"outcomes": [[outcome, p],
    ...]}`` list so that decoding rebuilds the distribution with
    identical iteration order — the property the out-of-core segment
    files need for bitwise-equal detection results.

    The compact certain forms apply only when the single outcome's
    probability is *exactly* 1.0: a probability one ulp below 1 is
    within tolerance (so the value still counts as certain) but must
    round-trip bit for bit, which only the ordered form preserves.
    """
    if value.is_null and value.null_probability == 1.0:
        return None
    if value.is_certain and value.probability(value.certain_value) == 1.0:
        outcome = value.certain_value
        if isinstance(outcome, PatternValue):
            return {"pattern": outcome.pattern}
        return outcome
    return {
        "outcomes": [
            [_encode_outcome(outcome), probability]
            for outcome, probability in value.items()
        ]
    }


def decode_value(encoded: Any) -> ProbabilisticValue:
    """Decode the JSON form back into a probabilistic value."""
    if encoded is None:
        return ProbabilisticValue.missing()
    if isinstance(encoded, dict):
        if "outcomes" in encoded:
            outcomes: dict[Any, float] = {}
            for outcome_doc, probability in encoded["outcomes"]:
                outcome = _decode_outcome(outcome_doc)
                if outcome in outcomes:
                    raise SerializationError(
                        f"outcome {outcome!r} listed twice"
                    )
                outcomes[outcome] = probability
            if not outcomes:
                raise SerializationError("empty distribution document")
            return ProbabilisticValue(outcomes)
        if "pattern" in encoded and "dist" not in encoded:
            return ProbabilisticValue.certain(
                PatternValue(encoded["pattern"])
            )
        if "dist" in encoded:
            outcomes: dict[Any, float] = dict(encoded["dist"])
            for pattern, probability in encoded.get(
                "patterns", {}
            ).items():
                outcomes[PatternValue(pattern)] = probability
            null_mass = encoded.get("null", 0.0)
            if null_mass:
                outcomes[NULL] = null_mass
            if not outcomes:
                raise SerializationError("empty distribution document")
            return ProbabilisticValue(outcomes)
        raise SerializationError(
            f"unrecognized value document: {encoded!r}"
        )
    return ProbabilisticValue.certain(encoded)


# ----------------------------------------------------------------------
# Tuples and relations
# ----------------------------------------------------------------------


def encode_xtuple(xtuple: XTuple, *, exact: bool = False) -> dict[str, Any]:
    """Encode one x-tuple.

    With ``exact=True`` uncertain attribute values use the
    order-preserving encoding of :func:`encode_value_exact` (the
    segment-file codec); the default keeps the legacy document form.
    """
    encode = encode_value_exact if exact else encode_value
    return {
        "id": xtuple.tuple_id,
        "alternatives": [
            {
                "p": alternative.probability,
                "values": {
                    attribute: encode(alternative.value(attribute))
                    for attribute in alternative.attributes
                },
            }
            for alternative in xtuple.alternatives
        ],
    }


def decode_xtuple(document: dict[str, Any]) -> XTuple:
    """Decode one x-tuple document."""
    try:
        tuple_id = document["id"]
        alternative_docs = document["alternatives"]
    except KeyError as missing:
        raise SerializationError(
            f"x-tuple document missing key {missing.args[0]!r}"
        ) from None
    alternatives = []
    for alternative_doc in alternative_docs:
        try:
            probability = alternative_doc["p"]
            values = alternative_doc["values"]
        except KeyError as missing:
            raise SerializationError(
                f"alternative document missing key {missing.args[0]!r}"
            ) from None
        alternatives.append(
            TupleAlternative(
                {
                    attribute: decode_value(encoded)
                    for attribute, encoded in values.items()
                },
                probability,
            )
        )
    return XTuple(tuple_id, alternatives)


def relation_to_dict(relation: XRelation) -> dict[str, Any]:
    """Encode a whole x-relation as a JSON-ready dictionary."""
    return {
        "format": FORMAT_VERSION,
        "name": relation.name,
        "schema": list(relation.schema.attributes),
        "xtuples": [encode_xtuple(xtuple) for xtuple in relation],
    }


def relation_from_dict(document: dict[str, Any]) -> XRelation:
    """Decode a dictionary document into an x-relation."""
    version = document.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r}"
        )
    try:
        name = document["name"]
        schema = Schema(document["schema"])
        xtuple_docs = document["xtuples"]
    except KeyError as missing:
        raise SerializationError(
            f"relation document missing key {missing.args[0]!r}"
        ) from None
    return XRelation(
        name, schema, [decode_xtuple(doc) for doc in xtuple_docs]
    )


def dumps(relation: XRelation, *, indent: int | None = 2) -> str:
    """Serialize an x-relation to a JSON string."""
    return json.dumps(
        relation_to_dict(relation), indent=indent, ensure_ascii=False
    )


def loads(text: str) -> XRelation:
    """Deserialize an x-relation from a JSON string."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    if not isinstance(document, dict):
        raise SerializationError("top-level JSON value must be an object")
    return relation_from_dict(document)


def write_text_atomic(path: str, text: str) -> None:
    """Write *text* to *path* so readers never see a partial file.

    The content lands in a temporary sibling first and is moved into
    place with :func:`os.replace`, so a crash mid-write leaves either
    the old file or the new one — never a truncated mix.  The temporary
    file is removed on failure.
    """
    # realpath: writing "through" a symlink must update its target (as
    # a plain open(path, "w") would), not replace the link itself.
    path = os.path.realpath(path)
    try:
        # Carry over an existing target's permissions so an atomic
        # rewrite doesn't silently change a shared file's mode.
        mode = os.stat(path).st_mode & 0o777
    except OSError:
        mode = None  # fresh file: the kernel applies the umask below
    # pid + per-process counter make the name unique among live
    # writers (threads included), so the EXCL open can only collide
    # with a stale leftover of a crashed earlier process — never with
    # a temp file another writer is still filling.
    temp_path = f"{path}.{os.getpid()}.{next(_TEMP_COUNTER)}.tmp"
    flags = os.O_CREAT | os.O_WRONLY | os.O_EXCL
    try:
        descriptor = os.open(temp_path, flags, 0o666)
    except FileExistsError:
        os.unlink(temp_path)  # stale leftover of a crashed writer
        descriptor = os.open(temp_path, flags, 0o666)
    try:
        if mode is not None:
            os.chmod(temp_path, mode)
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def dump(relation: XRelation, path: str, *, indent: int | None = 2) -> None:
    """Write an x-relation to a JSON file (atomically).

    The document is written to a temporary file in the target directory
    and renamed over *path*, so a crash mid-dump can never leave a
    truncated relation on disk.
    """
    write_text_atomic(path, dumps(relation, indent=indent))


def load(path: str) -> XRelation:
    """Read an x-relation from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def open_store(path: str, **store_options):
    """Open an on-disk relation as the matching storage backend.

    A directory written by :func:`~repro.pdb.storage.spill_relation` is
    opened as a :class:`~repro.pdb.storage.ColumnarXTupleStore`
    (``store_options`` — e.g. ``page_size`` / ``max_pages`` — are
    forwarded); a directory in the retired row layout raises
    :class:`~repro.pdb.errors.StorageError` naming the fix (materialize
    it with an earlier release, then re-spill).  A file is read fully
    via :func:`load` into an in-memory
    :class:`~repro.pdb.relations.XRelation`.  Both returns satisfy the
    :class:`~repro.pdb.storage.XTupleStore` protocol the detection
    pipeline consumes, and detection over a spilled store is bitwise
    identical to the in-memory run (the exact value codec preserves
    outcome order and probability bits).

    >>> import tempfile, os.path
    >>> from repro.pdb.relations import XRelation
    >>> from repro.pdb.xtuples import TupleAlternative, XTuple
    >>> relation = XRelation("R", ("name",), [
    ...     XTuple(f"t{i}", (TupleAlternative({"name": n}, 1.0),))
    ...     for i, n in enumerate(["anna", "anne", "bob"])])
    >>> root = tempfile.mkdtemp()
    >>> store = relation.spill(os.path.join(root, "people"),
    ...                        page_size=2, max_pages=2)
    >>> reopened = open_store(os.path.join(root, "people"),
    ...                       page_size=2, max_pages=2)
    >>> len(reopened), reopened.tuple_ids == relation.tuple_ids
    (3, True)
    >>> reopened.get("t1").alternatives[0].value("name").certain_value
    'anne'
    >>> reopened.materialize().tuple_ids
    ('t0', 't1', 't2')
    """
    from repro.pdb.storage.columnar import ColumnarXTupleStore

    if os.path.isdir(path):
        return ColumnarXTupleStore(path, **store_options)
    if not os.path.exists(path):
        raise StorageError(
            f"no relation file or store directory at {path!r}"
        )
    if store_options:
        raise TypeError(
            "store options apply only to spilled store directories, "
            f"but {path!r} is a plain relation file"
        )
    return load(path)
