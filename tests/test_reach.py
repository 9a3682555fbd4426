"""Every public definition in ``src/repro`` is reached by the product.

A name is *reached* when code in ``src/``, ``scripts/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` refers to it: as a name, an attribute,
the constant name of a ``getattr``/``hasattr`` call, or an import outside
a package ``__init__``.  Its own definition, a re-export from a package
``__init__`` and an ``__all__`` entry do not count, and neither do the
tests: code that only its unit tests call is dead weight that the
studies, the CLI and the service never run.

The check is by name, so it errs towards "reached" (any attribute spelled
like a method reaches it).  ``KEPT`` lists the unreached names kept on
purpose, each with its reason.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REACHING = ("src", "scripts", "perfbench", "benchmarks", "examples")

KEPT = {
    "fft_reference": "oracle: float FFT the Q15 FFT kernels are tested against",
    "rfft_reference": "oracle: float real FFT the Q15 real FFT is tested against",
    "q15_rfft_reference": "oracle: the unplanned real FFT its plan must equal",
    "q15_rfft": "the LEA real-FFT kernel q15_rfft_reference checks; no "
                "study runs it yet",
    "bcm_to_dense": "oracle: the dense matrix the BCM products must equal",
    "draw_segment": "oracle: one stroke, the batched stroke renderer's reference",
    "plan_cache_stats": "test seam: kernel plan cache sizes",
    "clear_plan_caches": "test seam: kernel plan cache reset",
    "clear_rf_segments": "test seam: RF segment cache reset",
    "empty_snapshot": "test seam: the snapshot of a process that recorded nothing",
    "do_GET": "called by http.server's request dispatch",
    "do_POST": "called by http.server's request dispatch",
    "do_DELETE": "called by http.server's request dispatch",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


@lru_cache(maxsize=None)
def definitions() -> dict[str, list[str]]:
    """Public top-level functions and classes, and public methods, by name."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE.parent).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _public(node.name):
                found.setdefault(node.name, []).append(where)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _public(item.name)):
                        found.setdefault(item.name, []).append(
                            f"{where}:{node.name}")
    return found


@lru_cache(maxsize=None)
def references() -> frozenset[str]:
    """Every name the reaching directories refer to."""
    seen: set[str] = set()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    seen.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "hasattr")
                      and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)):
                    seen.add(node.args[1].value)
    return frozenset(seen)


def test_every_public_definition_is_reached():
    seen = references()
    unreached = sorted(
        f"{name} ({', '.join(places)})"
        for name, places in definitions().items()
        if name not in seen and name not in KEPT)
    assert not unreached, (
        "defined in src/repro but reached by no study, CLI, service, "
        "script, benchmark or example:\n  " + "\n  ".join(unreached))


def test_kept_names_are_still_defined_and_unreached():
    defined, seen = definitions(), references()
    assert not [name for name in KEPT if name not in defined]
    assert not [name for name in KEPT if name in seen]
