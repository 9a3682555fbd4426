#!/usr/bin/env python3
"""Regenerate every registered study and dump its artifact to stdout.

One loop over the study registry (``repro list``); the full training
profile goes to the studies that declare one (Table II) unless
``--fast`` is given::

    PYTHONPATH=src python scripts/record_experiments.py [--fast]
"""

import argparse
import time

from repro.study import Profile, get_study, run_study, study_names


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="use the small training profile (quick sanity run)")
    args = parser.parse_args()

    t0 = time.time()
    for name in study_names():
        study = get_study(name)
        profile = Profile(full="full" in study.params and not args.fast)
        print(f"\n{'=' * 72}\n{name}: {study.artifact or study.title}\n"
              f"{'=' * 72}")
        print(run_study(name, profile=profile).render())
        print(f"[{name} done at {time.time() - t0:.0f}s]")


if __name__ == "__main__":
    main()
