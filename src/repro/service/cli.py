"""Command-line front end for incremental detection sessions.

Three subcommands over a base relation (a ``.json`` file or an
on-disk store directory) and an optional session journal directory::

    python -m repro.service detect --base corpus.json --journal sess/
    python -m repro.service ingest --base corpus.json --journal sess/ batch.json
    python -m repro.service serve  --base corpus.json --journal sess/

``detect`` runs (or resumes) the session and prints one result
document.  ``ingest`` applies one batch file —
``{"upserts": [<encoded x-tuples>], "deletes": [<ids>]}`` — refreshes,
and prints the delta summary.  ``serve`` is the long-running form: it
reads one JSON document per stdin line (the same ``upserts`` /
``deletes`` batch shape, or ``{"cmd": "detect" | "stats" | "quit"}``)
and answers each with one JSON line on stdout; progress streams to
stderr when ``--progress`` is set.

The pipeline configuration mirrors the reproduction experiments:
the Jaro–Winkler matcher and weighted-sum model of
:mod:`repro.experiments.quality`, with the reducer chosen by
``--block`` / ``--sort``/``--window`` / full comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
from repro.matching.decision import CalibrationSet, calibrate
from repro.matching.executor import DetectionResult
from repro.pdb import io as pdb_io
from repro.pdb.io import decode_xtuple
from repro.reduction import (
    CertainKeyBlocking,
    SortedNeighborhood,
    SubstringKey,
)


def parse_key(spec: str) -> SubstringKey:
    """Parse ``name:1,job:1`` into a :class:`SubstringKey`."""
    parts = []
    for field in spec.split(","):
        field = field.strip()
        if not field:
            continue
        attribute, _, length = field.partition(":")
        if not attribute or not length:
            raise ValueError(
                f"bad key component {field!r}; expected attribute:length"
            )
        parts.append((attribute, int(length)))
    if not parts:
        raise ValueError(f"empty key specification {spec!r}")
    return SubstringKey(parts)


def build_detector(args: argparse.Namespace) -> DuplicateDetector:
    """The detector the CLI session runs with.

    With ``--calibration FILE`` the weighted model's match threshold is
    re-calibrated from the labeled pair file
    (:meth:`~repro.matching.decision.CalibrationSet.load`) at the
    requested ``--target-fpr`` and wrapped in a
    :class:`~repro.matching.decision.CalibratedModel` — safety gates
    included, so an untrustworthy calibration file forces every
    decision to UNSURE rather than silently deciding.
    """
    reducer = None
    if args.block:
        reducer = CertainKeyBlocking(parse_key(args.block))
    elif args.sort:
        reducer = SortedNeighborhood(parse_key(args.sort), window=args.window)
    model = weighted_model(args.t_mu, args.t_lambda)
    if args.calibration:
        model = calibrate(
            model,
            CalibrationSet.load(args.calibration),
            method=args.calibration_method,
            target_fpr=args.target_fpr,
        )
    return DuplicateDetector(
        default_matcher(),
        model,
        reducer=reducer,
    )


def open_base(path: str, **store_options):
    """Open the base relation: file → in-memory, directory → spilled."""
    return pdb_io.open_store(path, **store_options)


def build_session(args: argparse.Namespace):
    """Open the configured session (replaying any journal)."""
    detector = build_detector(args)
    on_progress = None
    if args.progress:

        def on_progress(progress) -> None:
            print(
                f"[{progress.index + 1}/{progress.partitions}] "
                f"{progress.label}: {progress.decided_pairs}"
                f"/{progress.total_pairs} pairs",
                file=sys.stderr,
                flush=True,
            )

    return detector.session(
        open_base(args.base),
        journal=args.journal,
        keep_derivations=not args.no_derivations,
        min_similarity=args.min_similarity,
        on_progress=on_progress,
        audit=args.audit,
    )


def result_document(session, result: DetectionResult) -> dict[str, Any]:
    """The JSON answer for one refresh."""
    stats = session.stats
    report = session.last_report
    document = {
        "tuples": result.relation_size,
        "decided_pairs": len(result.decisions),
        "matches": [list(pair) for pair in result.matches],
        "possible_matches": [list(pair) for pair in result.possible_matches],
        "tombstones": [list(pair) for pair in session.tombstones],
        "stats": {
            "ingests": stats.ingests,
            "refreshes": stats.refreshes,
            "partitions_planned": stats.partitions_planned,
            "partitions_reused": stats.partitions_reused,
            "partitions_executed": stats.partitions_executed,
            "pairs_planned": stats.pairs_planned,
            "pairs_executed": stats.pairs_executed,
            "tombstoned_pairs": stats.tombstoned_pairs,
            "gate_trips": stats.gate_trips,
            **durability_counters(stats),
            "cache_hit_rates": session.cache_hit_rates(),
        },
        "report": report.summary() if report is not None else None,
    }
    trips = session.gate_trips
    if trips:
        document["gate_trips"] = [str(trip) for trip in trips]
    if session.manifests:
        document["manifest"] = session.manifests[-1].fingerprint()
    return document


def durability_counters(stats) -> dict[str, int]:
    """The session's snapshot, re-keying and recovery counters."""
    return {
        "snapshot_bytes": stats.snapshot_bytes,
        "snapshot_compactions": stats.snapshot_compactions,
        "keys_computed": stats.keys_computed,
        "torn_records": stats.torn_records,
    }


def stats_document(session) -> dict[str, Any]:
    """The JSON answer for a stats query."""
    return {
        "summary": session.stats.summary(),
        "overlay_size": session.store.overlay_size,
        "tuples": len(session.store),
        **durability_counters(session.stats),
        "cache_hit_rates": session.cache_hit_rates(),
    }


def decode_batch(document: dict) -> tuple[list, list]:
    """Split one batch document into decoded upserts and delete ids."""
    upserts = [
        decode_xtuple(encoded) for encoded in document.get("upserts", ())
    ]
    deletes = list(document.get("deletes", ()))
    return upserts, deletes


def emit(document: dict, stream=None) -> None:
    print(
        json.dumps(document, separators=(",", ":"), sort_keys=True),
        file=stream if stream is not None else sys.stdout,
        flush=True,
    )


def cmd_detect(args: argparse.Namespace) -> int:
    session = build_session(args)
    result = session.detect()
    if session.journal is not None:
        session.save()
    emit(result_document(session, result))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    session = build_session(args)
    session.detect()  # establish the baseline before applying the delta
    with open(args.batch, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    upserts, deletes = decode_batch(document)
    result = session.ingest(upserts, deletes=deletes)
    emit(result_document(session, result))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    session = build_session(args)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            emit({"ok": False, "error": f"bad JSON: {error}"})
            continue
        command = document.get("cmd")
        try:
            if command == "quit":
                break
            if command == "stats":
                emit({"ok": True, **stats_document(session)})
            elif command == "detect":
                result = session.detect()
                emit({"ok": True, **result_document(session, result)})
            elif command is None:
                upserts, deletes = decode_batch(document)
                result = session.ingest(upserts, deletes=deletes)
                emit({"ok": True, **result_document(session, result)})
            else:
                emit({"ok": False, "error": f"unknown command {command!r}"})
        except Exception as error:  # operator loop: report, keep serving
            emit({"ok": False, "error": str(error)})
    if session.journal is not None:
        session.save()
    return 0


def parse_min_similarity(text: str) -> str | float:
    """``--min-similarity``: ``auto`` or a float floor in [0, 1]."""
    if text == "auto":
        return text
    try:
        floor = float(text)
    except ValueError:
        floor = None
    if floor is None or not 0.0 <= floor <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a float in [0, 1], got {text!r}"
        )
    return floor


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Incremental duplicate-detection sessions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, extra in (
        ("detect", cmd_detect, False),
        ("ingest", cmd_ingest, True),
        ("serve", cmd_serve, False),
    ):
        sub = commands.add_parser(name)
        sub.set_defaults(handler=handler)
        sub.add_argument("--base", required=True, help="base relation (.json file or store directory)")
        sub.add_argument("--journal", default=None, help="session journal directory (persistent sessions)")
        sub.add_argument("--block", default=None, metavar="KEY", help="blocking key, e.g. name:1,job:1")
        sub.add_argument("--sort", default=None, metavar="KEY", help="SNM sorting key, e.g. name:3,job:2")
        sub.add_argument("--window", type=int, default=5, help="SNM window size (with --sort)")
        sub.add_argument("--t-mu", type=float, default=0.9, help="match threshold")
        sub.add_argument("--t-lambda", type=float, default=0.78, help="possible-match threshold")
        sub.add_argument("--calibration", default=None, metavar="FILE", help="labeled calibration-pair file; re-calibrates the match threshold")
        sub.add_argument("--calibration-method", default="conformal", choices=("conformal", "np"), help="threshold calibration method (with --calibration)")
        sub.add_argument("--target-fpr", type=float, default=0.05, help="false-positive-rate target for calibration")
        sub.add_argument("--audit", default=None, metavar="DIR", help="write one audit manifest per refresh into this directory")
        sub.add_argument("--min-similarity", type=parse_min_similarity, default=None, help="similarity floors: 'auto' or a float in [0, 1]")
        sub.add_argument("--no-derivations", action="store_true", help="drop derivation matrices (enables decision persistence)")
        sub.add_argument("--progress", action="store_true", help="stream per-partition progress to stderr")
        if extra:
            sub.add_argument("batch", help="batch file: {\"upserts\": [...], \"deletes\": [...]}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.block and args.sort:
        raise SystemExit("--block and --sort are mutually exclusive")
    return args.handler(args)


__all__ = [
    "build_detector",
    "build_parser",
    "build_session",
    "main",
    "parse_key",
    "parse_min_similarity",
]
