"""Docs ↔ code link check (CI gate).

EXPERIMENTS.md names runnable experiments with the ``**Title
(`id`).**`` convention; every such id must resolve in the
``repro.experiments.ALL_EXPERIMENTS`` registry (which in turn means a
module under ``src/repro/experiments/`` backs it).  Catches the drift
where a doc entry outlives a renamed or deleted experiment — the
failure mode the read-path documentation pass exists to prevent.

Also verifies that every committed ``results/<id>.csv`` whose id is in
the registry is indexed by ``results/manifest.json``, so the artifact
directory stays discoverable.

Four taxonomy checks keep OBSERVABILITY.md honest the same way: every
bench kernel registered in ``repro.obs.bench._LOOPS`` must be named in
the doc (the BENCH workflow section documents each kernel's workload),
every ``lsh.*`` instrument the LSH subsystem emits must appear in the
instrument table, and so must every ``linkfault.*`` /
``maint.antientropy.*`` instrument of the message-plane fault
subsystem.  The ``publish.*`` check runs both ways: every name the
package emits must be in an instrument-table row, and every name a row
documents must still be emitted somewhere under ``src/repro``.

Run as ``python tools/check_docs.py`` from the repo root (CI does;
``repro`` must be importable — ``pip install -e .`` or
``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``**X-BUILD (`buildscale`).**`` → ``buildscale``
_ENTRY = re.compile(r"\*\*[^*\n]+\(`([a-z0-9_]+)`\)\.?\*\*")
#: A ``publish.*`` instrument name as a string literal in the package.
_PUBLISH_EMITTED = re.compile(r"[\"'](publish\.[a-z_]+(?:\.[a-z_]+)*)[\"']")
#: A ``publish.*`` name in backticks in the first cell of a table row.
_PUBLISH_DOCUMENTED = re.compile(r"`(publish\.[a-z_]+(?:\.[a-z_]+)*)`")


def publish_instruments(obs_text: str) -> tuple[set[str], set[str]]:
    """(names emitted under ``src/repro``, names the instrument table
    documents) for the ``publish.*`` family."""
    emitted: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        emitted.update(_PUBLISH_EMITTED.findall(path.read_text()))
    documented: set[str] = set()
    for line in obs_text.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            documented.update(_PUBLISH_DOCUMENTED.findall(first_cell))
    return emitted, documented


def main() -> int:
    try:
        from repro.experiments import ALL_EXPERIMENTS
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.experiments import ALL_EXPERIMENTS

    failed: list[str] = []

    text = (ROOT / "EXPERIMENTS.md").read_text()
    documented = set(_ENTRY.findall(text))
    if not documented:
        failed.append("EXPERIMENTS.md: no **Title (`id`).** entries found")
    for exp_id in sorted(documented):
        if exp_id not in ALL_EXPERIMENTS:
            failed.append(
                f"EXPERIMENTS.md documents `{exp_id}` but it is not in "
                "repro.experiments.ALL_EXPERIMENTS"
            )

    from repro.obs.bench import _LOOPS

    obs_text = (ROOT / "OBSERVABILITY.md").read_text()
    for kernel in sorted(_LOOPS):
        if kernel not in obs_text:
            failed.append(
                f"bench kernel `{kernel}` is registered in repro.obs.bench "
                "but not documented in OBSERVABILITY.md"
            )
    # The instrument names the LSH subsystem emits (grep the package for
    # the literals): drift here means the taxonomy table went stale.
    lsh_instruments = (
        "lsh.signatures",
        "lsh.publish.items",
        "lsh.publish.copies",
        "lsh.probe.bands",
        "lsh.probe.candidates",
        "lsh.probe.unioned",
        "retrieve_multiprobe",
    )
    for name in lsh_instruments:
        if name not in obs_text:
            failed.append(
                f"LSH instrument `{name}` is emitted by repro.lsh but not "
                "documented in OBSERVABILITY.md"
            )

    chaos_instruments = (
        "linkfault.dropped",
        "linkfault.partition_dropped",
        "linkfault.duplicated",
        "linkfault.delayed",
        "linkfault.delay_jitter",
        "net.async_dead_dropped",
        "maint.antientropy.pass",
        "maint.antientropy.ticks",
        "maint.antientropy.dirtied",
        "maint.antientropy.reconciled",
        "maint.antientropy.replaced",
        "handoff_lost",
        "reconcile",
    )
    for name in chaos_instruments:
        if name not in obs_text:
            failed.append(
                f"chaos instrument `{name}` is emitted by the message-plane "
                "fault subsystem but not documented in OBSERVABILITY.md"
            )

    emitted, documented = publish_instruments(obs_text)
    for name in sorted(emitted - documented):
        failed.append(
            f"publish instrument `{name}` is emitted by repro but not "
            "documented in OBSERVABILITY.md"
        )
    for name in sorted(documented - emitted):
        failed.append(
            f"OBSERVABILITY.md documents publish instrument `{name}` but "
            "nothing in repro emits it"
        )

    manifest_path = ROOT / "results" / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        for csv_path in sorted((ROOT / "results").glob("*.csv")):
            exp_id = csv_path.stem
            if exp_id in ALL_EXPERIMENTS and exp_id not in manifest:
                failed.append(
                    f"results/{csv_path.name} is committed but missing from "
                    "results/manifest.json"
                )

    if failed:
        for line in failed:
            print(f"check_docs: {line}", file=sys.stderr)
        return 1
    print(
        f"check_docs: OK ({len(documented)} documented experiment ids, "
        f"{len(ALL_EXPERIMENTS)} registered)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
