#!/usr/bin/env python
"""Print a content digest of every sampled fuzz scenario's result.

Runs the scenarios of ``tests/sampler.py`` (``sample_scenarios(FUZZ_SEED,
300)``, every trace kind, runtime, capacitor and monitor knob) on the
fast engine and prints one line per scenario::

    <scenario name> <blake2b-128 of encode_result(result)>

``encode_result`` holds every field of a result but its spec, floats in
round-trip form, so two checkouts that print identical output simulate
identical bits over the sampled spec space, not only at the default
profile the study ledger pins.  Run from the repo root::

    PYTHONPATH=src python scripts/scenario_digests.py

The committed scenario ledger, ``tests/golden/scenario_digests.txt``,
holds these lines under the study ledger's header: the numpy version
and ``repro.SIM_SEMANTICS`` they were recorded with.  ``--check LEDGER``
exits 1, naming every scenario whose digest differs; ``--write LEDGER``
records a ledger.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # for scripts.study_digests and tests.sampler

from repro import SIM_SEMANTICS  # noqa: E402
from repro.fleet import ModelCache, execute_scenario  # noqa: E402
from repro.store.records import encode_result  # noqa: E402
from scripts.study_digests import digest, read_ledger  # noqa: E402
from tests.sampler import FUZZ_SEED, sample_scenarios  # noqa: E402

#: Sampled specs the ledger pins (the scenario fuzz's budget).
COUNT = 300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", metavar="LEDGER",
                       help="compare with a ledger; exit 1 on any difference")
    group.add_argument("--write", metavar="LEDGER",
                       help="record the digests as a new ledger")
    args = parser.parse_args(argv)
    models = ModelCache()
    got = {}
    for scenario in sample_scenarios(FUZZ_SEED, COUNT):
        result = execute_scenario(scenario, models.get(scenario),
                                  engine="fast")
        got[scenario.name] = digest(encode_result(result))
        if not args.check:
            print(f"{scenario.name} {got[scenario.name]}", flush=True)
    if args.write:
        with open(args.write, "w") as fh:
            fh.write("# golden scenario-result ledger: check it with "
                     "scripts/scenario_digests.py --check\n"
                     f"# numpy {np.__version__}\n"
                     f"# sim_semantics {SIM_SEMANTICS}\n")
            for name, value in got.items():
                fh.write(f"{name} {value}\n")
    failed = False
    if args.check:
        header, recorded = read_ledger(args.check, key_fields=1)
        for name in sorted(set(got) | set(recorded)):
            if got.get(name) not in recorded.get(name, ()):
                failed = True
                print(f"scenario_digests: {name}: {got.get(name)} not in "
                      f"ledger {recorded.get(name)}", file=sys.stderr)
        if failed and header.get("numpy") != np.__version__:
            print(f"scenario_digests: the ledger was recorded under numpy "
                  f"{header.get('numpy')}, this is numpy {np.__version__}",
                  file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
