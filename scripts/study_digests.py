#!/usr/bin/env python
"""Print a content digest of every registered study's table.

Runs each study at the default :class:`~repro.study.Profile`, serially,
on the reference engine and — for fleet-executed and engine-aware
studies — on the fast engine too, and prints one line per run::

    <study> <engine> <blake2b-128 of ResultTable.to_json()>

Two checkouts that print identical output produce byte-identical study
tables.  Within one checkout the fast engine must reproduce the reference
table byte for byte: the script exits 1, naming each study whose two
digests differ.  Run from the repo root::

    PYTHONPATH=src python scripts/study_digests.py
"""

from __future__ import annotations

import hashlib
import sys

from repro.study import get_study, run_study, study_names


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def main() -> int:
    mismatched = []
    for name in study_names():
        study = get_study(name)
        engines = ["reference"]
        if study.fleet_executed or study.engine_aware:
            engines.append("fast")
        digests = set()
        for engine in engines:
            options = {"parallel": False} if study.fleet_executed else {}
            run = run_study(name, engine=engine, **options)
            value = digest(run.table.to_json())
            digests.add(value)
            print(f"{name} {engine} {value}", flush=True)
        if len(digests) > 1:
            mismatched.append(name)
    for name in mismatched:
        print(f"study_digests: {name}: fast and reference tables differ",
              file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
