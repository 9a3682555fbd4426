"""Every public definition and defaulted parameter in ``src/repro`` is
reached by the product.

A name is *reached* when code in ``src/``, ``scripts/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` refers to it: as a name, an attribute,
the constant name of a ``getattr``/``hasattr`` call, or an import outside
a package ``__init__``.  Its own definition, a re-export from a package
``__init__`` and an ``__all__`` entry do not count, and neither do the
tests: code that only its unit tests call is dead weight that the
studies, the CLI and the service never run.

A defaulted parameter is *passed* when a call in the same directories
names a function or method of its name and passes the parameter by
keyword or by position.  A call through a class name (or a subclass's)
counts for the class's ``__init__``; a call that forwards ``*args`` or
``**kwargs`` counts as passing every parameter.  A parameter no call
passes always takes its default, so it and the branch it guards are
dead.  Parameters named with a leading underscore are skipped: they bind
a global as a default for speed, they are not options.  Functions in
``KEPT`` are skipped too: nothing in the product calls them at all.

Both checks are by name, so they err towards "reached" (any attribute
spelled like a method reaches it).  ``KEPT`` and ``KEPT_PARAMETERS`` list
what is unreached on purpose, each with its reason.
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

_MAKERS = "passed through _DATASET_MAKERS[task](...) in repro.experiments.common"
_RETRY = "test seam: a fast or single-attempt RetryPolicy"
_FFT = ("test seam: the planned stage loop, run unscaled as BCMPlan runs it "
        "and with overflow counts, checked against its reference")

KEPT_PARAMETERS = {
    "fit(loss_fn)": "ROADMAP item 2 decides",
    "fit(x_val)": "ROADMAP item 2 decides",
    "fit(y_val)": "ROADMAP item 2 decides",
    "fit(patience)": "ROADMAP item 2 decides",
    "fit(val_history)": "ROADMAP item 2 decides",
    "make_mnist(render)": _MAKERS,
    "make_har(render)": _MAKERS,
    "make_okg(render)": _MAKERS,
    "FleetRunner.__init__(retry)": _RETRY,
    "StudyService.__init__(retry)": _RETRY,
    "ServeClient.__init__(retry)": _RETRY,
    "ShardStore.__init__(retry)": _RETRY,
    "ServeClient.__init__(connect_wait_s)":
        "test seam: a short wait for a server that never comes up",
    "FastMachine.__init__(cache)": "test seam: a private ProgramCache",
    "make_machine(max_reboots)":
        "test seam: the conformance suite bounds livelocked runs and "
        "reaches the reboot-budget exhaustion path",
    "StochasticRFTrace.__init__(horizon_s)":
        "test seam: a short horizon reaches the wrap-around past it",
    "scenario_key(semantics)":
        "test seam: a SIM_SEMANTICS bump changes every key",
    "QuantBCM.forward_reference(mode)":
        "oracle: the planned forward is checked against it in every mode",
    "q15_fft(scaling)": _FFT,
    "q15_fft(monitor)": _FFT,
    "q15_ifft(scaling)": _FFT,
    "q15_ifft(monitor)": _FFT,
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


def _defaulted(fn: ast.FunctionDef, bound: bool):
    """``(name, position)`` of each defaulted parameter of ``fn``; the
    position counts call arguments (``None``: keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


@lru_cache(maxsize=None)
def parameters() -> dict[str, tuple[tuple[str, ...], str, int | None, str]]:
    """Public defaulted parameters of every function and method outside
    ``KEPT``, as ``"[Class.]function(param)"`` -> (the names a call may
    use, the parameter, its position, where it is defined)."""
    tree_of = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.rglob("*.py"))}
    subclasses: dict[str, set[str]] = {}
    for tree in tree_of.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, (ast.Name, ast.Attribute)):
                        base_name = getattr(base, "id", None) or base.attr
                        subclasses.setdefault(base_name, set()).add(node.name)

    def family(cls: str) -> set[str]:
        names, todo = {cls}, [cls]
        while todo:
            for sub in subclasses.get(todo.pop(), ()):
                if sub not in names:
                    names.add(sub)
                    todo.append(sub)
        return names

    found = {}

    def visit(node, cls, where):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, item.name, where)
                continue
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(item, cls, where)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in item.decorator_list)
            names = {item.name}
            if cls is not None and item.name == "__init__":
                names |= family(cls)
            label = f"{cls}.{item.name}" if cls else item.name
            if item.name not in KEPT:
                for param, position in _defaulted(
                        item, cls is not None and not static):
                    if _public(param):
                        found[f"{label}({param})"] = (
                            tuple(sorted(names)), param, position,
                            f"{where}:{item.lineno}")
            visit(item, None, where)

    for path, tree in tree_of.items():
        visit(tree, None, path.relative_to(PACKAGE.parent).as_posix())
    return found


@lru_cache(maxsize=None)
def passes() -> dict[str, tuple[frozenset[str], int, bool]]:
    """Per callee name: the keywords its calls pass, the most positional
    arguments one call passes, and whether a call forwards ``*``/``**``."""
    keywords: dict[str, set[str]] = {}
    most: dict[str, int] = {}
    forwards: set[str] = set()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords if k.arg is not None)
                positional = [a for a in node.args
                              if not isinstance(a, ast.Starred)]
                most[name] = max(most.get(name, 0), len(positional))
                if (len(positional) < len(node.args)
                        or any(k.arg is None for k in node.keywords)):
                    forwards.add(name)
    return {name: (frozenset(keywords[name]), most[name], name in forwards)
            for name in keywords}


def _passed(names, param, position) -> bool:
    calls = passes()
    for name in names:
        if name not in calls:
            continue
        keywords, most, forwards = calls[name]
        if (forwards or param in keywords
                or (position is not None and position < most)):
            return True
    return False


def test_every_defaulted_parameter_is_passed():
    unpassed = sorted(
        f"{label} ({where})"
        for label, (names, param, position, where) in parameters().items()
        if label not in KEPT_PARAMETERS
        and not _passed(names, param, position))
    assert not unpassed, (
        "a defaulted parameter in src/repro that no call in the study, "
        "CLI, service, script, benchmark or example code passes:\n  "
        + "\n  ".join(unpassed))


def test_kept_parameters_are_still_defaulted_and_unpassed():
    found = parameters()
    assert not [label for label in KEPT_PARAMETERS if label not in found]
    assert not [label for label in KEPT_PARAMETERS
                if _passed(*found[label][:3])]
