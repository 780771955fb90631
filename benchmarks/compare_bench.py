"""Benchmark trajectory tracker: run the suite, diff against all runs.

Runs the pytest-benchmark suite with ``--benchmark-json``, writes the
result compactly to ``BENCH_<n>.json`` at the repository root (n
increments per run), and prints two tables:

* a **regression table** against the immediately previous
  ``BENCH_*.json`` (ratio + REGRESSED/improved verdict per benchmark);
* the full **trajectory table** ``BENCH_0 → BENCH_N``: one row per
  benchmark of the current run, one column per recorded run, so the
  whole performance history is reviewable per PR — not just the last
  hop.

Usage::

    python benchmarks/compare_bench.py              # full suite
    python benchmarks/compare_bench.py -k kernels   # forward pytest args
    python benchmarks/compare_bench.py --quick      # CI smoke subset

``--quick`` runs only the kernel, planner, storage, cutoff, scheduler
and fault benches with minimal rounds and writes ``BENCH_quick.json``
(outside the numbered trajectory), so CI can smoke the harness
quickly.

Exit status is the pytest exit status; the regression table marks every
benchmark whose mean moved by more than ``THRESHOLD`` in either
direction *and* by more than ``NOISE_SIGMAS`` combined standard
deviations of the two runs (``sqrt(sd_previous² + sd_current²)``), so
round-to-round noise never reads as a regression.

BENCH JSON schema
-----------------

``BENCH_<n>.json`` is pytest-benchmark's ``--benchmark-json`` output,
re-serialized to a single line (``json.dumps(..., separators=(",", ":"),
sort_keys=True)``).  The fields this tracker and the benches rely on:

``benchmarks``
    List of run benchmarks.  Per entry:

    ``fullname``
        ``"benchmarks/<module>.py::<test>[<param>]"`` — the stable key
        the trajectory is joined on across runs.
    ``stats``
        Timing statistics in **seconds**; this tracker reads
        ``stats.mean`` only, but ``min``/``max``/``stddev``/
        ``median``/``rounds``/``iterations`` are preserved for manual
        analysis.
    ``params`` / ``name`` / ``group``
        pytest-benchmark bookkeeping, preserved verbatim.

``machine_info`` / ``commit_info``
    Provenance of the run (hostname, Python build, git revision).
    Means are only comparable within one machine generation; the
    README's benchmark section records which machine produced which
    artifact.
``datetime`` / ``version``
    Run timestamp and pytest-benchmark schema version.
``kernel_backend``
    Written by earlier versions of this tracker (the kernel-backend
    selector a run was steered through); still present in older
    ``BENCH_*.json`` files and ignored like any other unknown key.
``cpu_count`` / ``cpu_affinity``
    Added by this tracker: ``os.cpu_count()`` and the number of CPUs
    the run could use (``len(os.sched_getaffinity(0))`` where the
    platform has it).

Anything else pytest-benchmark emits is carried along untouched —
consumers must tolerate unknown keys.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

#: Relative mean-time change below which a benchmark counts as unchanged.
THRESHOLD = 0.15

#: A verdict also needs the means to differ by more than this many
#: combined standard deviations of the two runs.
NOISE_SIGMAS = 2.0

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATTERN = re.compile(r"BENCH_(\d+)\.json$")

#: Pytest arguments selecting the CI smoke subset.  The round flags only
#: affect non-pedantic benches; pedantic benches (end-to-end detections)
#: honor the ``BENCH_QUICK`` environment variable instead, which
#: :func:`run_suite` exports in quick mode.
QUICK_ARGS = [
    "-k",
    "kernels or planner or storage or columnar or cutoffs or scheduler or faults"
    " or ingest_journaled",
    "--benchmark-min-rounds=1",
    "--benchmark-max-time=0.1",
]


def existing_runs() -> list[tuple[int, Path]]:
    """All ``BENCH_<n>.json`` files at the repo root, ordered by n."""
    runs = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        match = BENCH_PATTERN.search(path.name)
        if match:
            runs.append((int(match.group(1)), path))
    return sorted(runs)


def load_stats(path: Path) -> dict[str, tuple[float, float]]:
    """``{benchmark fullname: (mean, stddev)}`` in seconds from a
    benchmark JSON (a single-round benchmark has a stddev of 0)."""
    data = json.loads(path.read_text())
    return {
        bench["fullname"]: (
            bench["stats"]["mean"],
            bench["stats"].get("stddev") or 0.0,
        )
        for bench in data.get("benchmarks", [])
    }


def load_means(path: Path) -> dict[str, float]:
    """``{benchmark fullname: mean seconds}`` from a benchmark JSON."""
    return {name: mean for name, (mean, _) in load_stats(path).items()}


def run_suite(
    json_path: Path, pytest_args: list[str], *, quick: bool = False
) -> int:
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks"),
        f"--benchmark-json={json_path}",
        *pytest_args,
    ]
    env = dict(os.environ)
    # The benches import ``repro`` from this checkout's ``src/``.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    if quick:
        env["BENCH_QUICK"] = "1"
    print("$", " ".join(command))
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1000.0:8.3f}ms"


def print_table(
    previous: dict[str, tuple[float, float]],
    current: dict[str, tuple[float, float]],
) -> None:
    shared = sorted(set(previous) & set(current))
    if not shared:
        print("no overlapping benchmarks to compare")
        return
    name_width = max(len(_short(name)) for name in shared)
    header = (
        f"{'benchmark':<{name_width}}  {'previous':>10}  {'current':>10}"
        f"  {'ratio':>7}  verdict"
    )
    print(header)
    print("-" * len(header))
    regressions = 0
    for name in shared:
        (old, old_sd), (new, new_sd) = previous[name], current[name]
        ratio = new / old if old > 0 else float("inf")
        beyond_noise = abs(new - old) > NOISE_SIGMAS * math.hypot(
            old_sd, new_sd
        )
        if ratio > 1.0 + THRESHOLD and beyond_noise:
            verdict = "REGRESSED"
            regressions += 1
        elif ratio < 1.0 - THRESHOLD and beyond_noise:
            verdict = "improved"
        else:
            verdict = "~"
        print(
            f"{_short(name):<{name_width}}  {format_seconds(old)}"
            f"  {format_seconds(new)}  {ratio:6.2f}x  {verdict}"
        )
    added = sorted(set(current) - set(previous))
    removed = sorted(set(previous) - set(current))
    print("-" * len(header))
    print(
        f"{len(shared)} compared, {regressions} regressed, "
        f"{len(added)} new, {len(removed)} removed"
    )


def print_trajectory(
    runs: list[tuple[int, Path]], current_index: int, current: dict[str, float]
) -> None:
    """The full BENCH_0 → BENCH_N history of the current benchmarks.

    One row per benchmark of the *current* run, one column per recorded
    run (missing cells — benchmarks that did not exist yet, or were
    retired and re-added — print as ``—``), so a PR review sees the
    whole trajectory instead of only the last hop.
    """
    history: list[tuple[int, dict[str, float]]] = [
        (index, load_means(path)) for index, path in runs
    ]
    history.append((current_index, current))
    names = sorted(current)
    if not names:
        print("no benchmarks in the current run")
        return
    name_width = max(len(_short(name)) for name in names)
    columns = [f"BENCH_{index}" for index, _ in history]
    header = f"{'benchmark':<{name_width}}  " + "  ".join(
        f"{column:>10}" for column in columns
    )
    print(header)
    print("-" * len(header))
    for name in names:
        cells = []
        for _, means in history:
            mean = means.get(name)
            cells.append(
                f"{format_seconds(mean):>10}" if mean is not None else
                f"{'—':>10}"
            )
        print(f"{_short(name):<{name_width}}  " + "  ".join(cells))
    print("-" * len(header))


def _short(fullname: str) -> str:
    """Strip the ``benchmarks/`` prefix for narrower tables."""
    return fullname.removeprefix("benchmarks/")


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    argv = [argument for argument in argv if argument != "--quick"]
    if quick:
        argv = QUICK_ARGS + argv
    runs = existing_runs()
    if quick:
        target = REPO_ROOT / "BENCH_quick.json"
    else:
        next_index = runs[-1][0] + 1 if runs else 0
        target = REPO_ROOT / f"BENCH_{next_index}.json"
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "bench.json"
        status = run_suite(scratch, argv, quick=quick)
        try:
            data = json.loads(scratch.read_text())
        except (OSError, ValueError):
            # pytest-benchmark leaves an empty file when the run fails
            # before any benchmark (an import error, say).
            print(
                f"benchmark run produced no JSON (pytest exit status "
                f"{status}); nothing written"
            )
            return status or 1
        # Compact re-serialization: pytest-benchmark pretty-prints >100k
        # lines; one line per run keeps the committed artifacts small.
        data["cpu_count"] = os.cpu_count()
        data["cpu_affinity"] = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        target.write_text(
            json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
        )
    print(f"\nwrote {target.name}")
    if quick:
        # Single-round quick means are not comparable to full-length
        # trajectory runs; diffing them would flag bogus regressions.
        print("quick smoke run — trajectory comparison skipped")
    elif runs:
        current = load_means(target)
        previous_path = runs[-1][1]
        print(f"comparing against {previous_path.name}:\n")
        print_table(load_stats(previous_path), load_stats(target))
        next_index = runs[-1][0] + 1
        print(f"\nfull trajectory BENCH_0 → BENCH_{next_index}:\n")
        print_trajectory(runs, next_index, current)
    else:
        print("no previous BENCH_*.json — this run is the baseline")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
