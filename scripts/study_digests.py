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

The committed golden ledger, ``tests/golden/study_digests.txt``, holds
these lines under a header naming the numpy version and
``repro.SIM_SEMANTICS`` they were recorded with.  A study whose table
depends on the OpenBLAS kernel set lists one digest per kernel set
seen.  ``--check LEDGER`` exits 1, naming every study whose digest is
not among its line's; ``--write LEDGER`` records a ledger, adding this
host's digests as alternatives to a ledger of the same
``SIM_SEMANTICS`` (run it under each ``OPENBLAS_CORETYPE`` to record
them all).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro import SIM_SEMANTICS
from repro.study import get_study, run_study, study_names


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def read_ledger(path: str, key_fields: int = 2
                ) -> Tuple[Dict[str, str], Dict[str, List[str]]]:
    """``(header fields, {run id: digests})`` of a ledger, a run id being
    a line's first ``key_fields`` fields (``"<study> <engine>"`` here)."""
    header = {}
    runs = {}
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if line.startswith("#"):
                if len(fields) == 3:
                    header[fields[1]] = fields[2]
            elif fields:
                runs[" ".join(fields[:key_fields])] = fields[key_fields:]
    return header, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", metavar="LEDGER",
                       help="compare with a ledger; exit 1 on any difference")
    group.add_argument("--write", metavar="LEDGER",
                       help="record the digests as a new ledger")
    args = parser.parse_args(argv)
    mismatched = []
    lines = []
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
            lines.append(f"{name} {engine} {value}")
            if not args.check:
                print(lines[-1], flush=True)
        if len(digests) > 1:
            mismatched.append(name)
    for name in mismatched:
        print(f"study_digests: {name}: fast and reference tables differ",
              file=sys.stderr)
    failed = bool(mismatched)
    got = dict(line.rsplit(" ", 1) for line in lines)
    if args.write:
        runs = {}
        if os.path.exists(args.write):
            header, runs = read_ledger(args.write)
            if header.get("sim_semantics") != str(SIM_SEMANTICS):
                runs = {}
        with open(args.write, "w") as fh:
            fh.write("# golden study-table ledger: check it with "
                     "scripts/study_digests.py --check\n"
                     f"# numpy {np.__version__}\n"
                     f"# sim_semantics {SIM_SEMANTICS}\n")
            for run_id, value in got.items():
                digests = runs.get(run_id, [])
                if value not in digests:
                    digests = digests + [value]
                fh.write(" ".join([run_id] + digests) + "\n")
    if args.check:
        header, recorded = read_ledger(args.check)
        for run_id in sorted(set(got) | set(recorded)):
            if got.get(run_id) not in recorded.get(run_id, ()):
                failed = True
                print(f"study_digests: {run_id}: {got.get(run_id)} not in "
                      f"ledger {recorded.get(run_id)}", file=sys.stderr)
        if failed and header.get("numpy") != np.__version__:
            print(f"study_digests: the ledger was recorded under numpy "
                  f"{header.get('numpy')}, this is numpy {np.__version__}",
                  file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
