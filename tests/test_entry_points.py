"""Every example and script imports cleanly.

They are run by hand, not by the suite, so a dangling import of a
renamed or deleted library name would otherwise go unnoticed.  Each file
keeps its work behind a ``__main__`` guard, so importing it only binds
names.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = sorted(
    [*ROOT.glob("examples/*.py"), *ROOT.glob("scripts/*.py")])


def test_entry_points_found():
    assert {p.parent.name for p in ENTRY_POINTS} == {"examples", "scripts"}


@pytest.mark.parametrize(
    "path", ENTRY_POINTS, ids=[f"{p.parent.name}/{p.name}" for p in ENTRY_POINTS])
def test_imports_by_path(path):
    assert "__main__" in path.read_text()
    spec = importlib.util.spec_from_file_location(
        f"_entry_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
