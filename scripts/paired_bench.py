#!/usr/bin/env python
"""Paired timing of two checkouts with ``perfbench/run.py``.

Runs ``perfbench/run.py --workload W --trace 0`` on a base and a head
checkout, one pair of runs after another, flipping which side runs
first each pair (host speed drifts in phases, so a fixed order would
bias one side).  Prints every pair, and for each lower-is-better
end-to-end metric asked for (``wall_s`` by default; ``--metric`` may
repeat) each side's median and quartiles, the pairs head won, and
whether the gain rule holds: head wins at least 9 in 10 pairs, and its
median beats base's by more than base's interquartile range.  Run from
the repository root::

    python scripts/paired_bench.py --workload fleet-default --pairs 10 \\
        --base HEAD~1 --head HEAD

A side is a git revision, exported with ``git archive`` into a temporary
directory (removed afterwards; the repository and its worktree list are
not touched), or an existing directory used as it is — ``--head .`` times
uncommitted changes.  Exits 2 if any run fails its own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(side: str, tmp: str, name: str) -> str:
    """A directory holding ``side``: itself if a directory, else an
    export of that git revision under ``tmp``."""
    if os.path.isdir(side):
        return os.path.abspath(side)
    dest = os.path.join(tmp, name)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", side],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)
    return dest


def run_once(where: str, args) -> Dict:
    """One ``perfbench/run.py`` run in ``where``: its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=where, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {where} "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: List[float]):
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1",
                        help="git revision or directory (default HEAD~1)")
    parser.add_argument("--head", default="HEAD",
                        help="git revision or directory (default HEAD)")
    parser.add_argument("--metric", action="append",
                        help="lower-is-better end-to-end metric "
                             "(repeatable; default wall_s)")
    parser.add_argument("--seed", type=int, default=20221)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="perfbench --seconds per run")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    metrics = args.metric or ["wall_s"]
    values = {(side, m): [] for side in ("base", "head") for m in metrics}
    tmp = tempfile.mkdtemp(prefix="paired-bench-")
    try:
        dirs = {"base": checkout(args.base, tmp, "base"),
                "head": checkout(args.head, tmp, "head")}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            got = {}
            for side in order:
                result = run_once(dirs[side], args)
                if not result["correct"]:
                    print(f"paired_bench: {side} run failed "
                          f"{result['failed']} of {result['attempted']} "
                          "checks", file=sys.stderr)
                    return 2
                for m in metrics:
                    got[side, m] = result["metrics"][m]["value"]
                    values[side, m].append(got[side, m])
            print(f"pair {pair + 1:2d} ({order[0]} first): " + "; ".join(
                f"{m} base {got['base', m]:.4f}, head {got['head', m]:.4f}"
                for m in metrics), flush=True)
    except RuntimeError as exc:
        print(f"paired_bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for m in metrics:
        base, head = values["base", m], values["head", m]
        for side, runs in (("base", base), ("head", head)):
            q1, q2, q3 = quartiles(runs)
            print(f"{m} {side}: median {q2:.4f}, quartiles {q1:.4f} .. "
                  f"{q3:.4f} ({args.workload})")
        wins = sum(h < b for b, h in zip(base, head))
        b1, b_median, b3 = quartiles(base)
        gap = b_median - statistics.median(head)
        rule = wins * 10 >= 9 * args.pairs and gap > b3 - b1
        print(f"{m}: head won {wins} of {args.pairs} pairs; median gap "
              f"{gap:.4f} vs base IQR {b3 - b1:.4f}: gain rule "
              f"{'met' if rule else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
