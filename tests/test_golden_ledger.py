"""The committed golden ledger of study-table digests.

``tests/golden/study_digests.txt`` holds one BLAKE2b digest per study
table (both engines where a study is engine-aware), as
``scripts/study_digests.py`` prints them, under a header naming the
numpy version and :data:`repro.SIM_SEMANTICS` they were recorded with.
A change to any simulated bit fails here, naming the study, on any host
that runs the recorded numpy.  ``ablation-overflow`` compares against a
float forward pass that runs through BLAS, so its line lists one digest
per OpenBLAS kernel set (SkylakeX, Haswell, Sandybridge, Prescott).
Any change to the ledger's digest lines — an intended bit change, or a
kernel set's digest added — records it with ``scripts/study_digests.py
--write``, bumps ``SIM_SEMANTICS`` (so durable stores and service
caches stop serving the old bits) and appends the new fingerprint
below.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import SIM_SEMANTICS

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "golden" / "study_digests.txt"

#: Fingerprint of the ledger's digest lines under each ``SIM_SEMANTICS``
#: value.  Entries are only ever appended.
LEDGER_FINGERPRINTS = {
    1: "8e57ea0a5ca430a38d18b09d80d9fc94",
}


def read_ledger():
    """``(header fields, digest lines)`` of the committed ledger."""
    header = {}
    lines = []
    for line in LEDGER.read_text().splitlines():
        fields = line.split()
        if line.startswith("#"):
            if len(fields) == 3:
                header[fields[1]] = fields[2]
        elif fields:
            lines.append(" ".join(fields))
    return header, lines


def fingerprint(lines) -> str:
    return hashlib.blake2b("\n".join(lines).encode("utf-8"),
                           digest_size=16).hexdigest()


def test_sim_semantics_names_the_ledger():
    header, lines = read_ledger()
    assert header["sim_semantics"] == str(SIM_SEMANTICS)
    assert LEDGER_FINGERPRINTS.get(SIM_SEMANTICS) == fingerprint(lines), (
        f"the ledger's digest lines changed under SIM_SEMANTICS "
        f"{SIM_SEMANTICS}: bump repro.SIM_SEMANTICS and record the new "
        f"fingerprint {fingerprint(lines)}")
    assert len(set(LEDGER_FINGERPRINTS.values())) == len(LEDGER_FINGERPRINTS)


def test_every_study_matches_the_ledger():
    header, _ = read_ledger()
    if header["numpy"] != np.__version__:
        pytest.skip(f"ledger recorded under numpy {header['numpy']}, "
                    f"this is numpy {np.__version__}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "study_digests.py"),
         "--check", str(LEDGER)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, (
        "study tables differ from the golden ledger:\n" + proc.stderr)
