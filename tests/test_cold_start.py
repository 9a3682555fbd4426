"""Cold ``repro`` processes import only what their command runs.

Each case starts a fresh interpreter, runs one command in it, and reads
the process's ``sys.modules`` as it exits: the study registry,
``repro list`` and option checks load no numpy and no simulator, a
direct study loads no fleet engine, result store or service, rendering
a stored table loads no simulator, and the service client loads no
simulator.  A top-level import of a heavy module in ``repro/study/``,
``repro/cli.py`` or ``repro/serve/client.py`` fails here (DESIGN.md,
"The import rule").
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``perfbench``'s set-up probe: what every cold ``repro`` command pays.
SETUP_PROBE = ("import repro.cli\n"
               "from repro.study import study_names\n"
               "study_names()\n")

#: Prints the process's module names to stderr at exit, after a marker.
_DUMP = ("import atexit, sys\n"
         "atexit.register(lambda: sys.stderr.write("
         "'\\n@@modules\\n' + '\\n'.join(sorted(sys.modules))))\n")


def imported(code, *args):
    """Every module name a fresh ``python -c code *args`` has loaded at exit."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP + code, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stderr.rsplit("@@modules\n", 1)[1].split())


def cli(*args):
    """Modules loaded by ``python -m repro *args`` (run through runpy)."""
    return imported("import runpy\n"
                    "sys.argv[0] = 'repro'\n"
                    "runpy.run_module('repro', run_name='__main__')\n",
                    *args)


def loaded(names, *packages):
    """The packages of ``packages`` (or their submodules) in ``names``."""
    return sorted(
        p for p in packages
        if any(n == p or n.startswith(p + ".") for n in names))


def test_setup_probe_loads_no_numpy_and_no_simulator():
    names = imported(SETUP_PROBE)
    assert "repro.study.studies" in names  # the registry did load
    assert loaded(names, "numpy", "repro.sim") == []


def test_repro_list_loads_no_numpy_and_no_simulator():
    names = cli("list")
    assert loaded(names, "numpy", "repro.sim") == []


def test_direct_study_loads_no_fleet_store_or_service(tmp_path):
    names = cli("run", "table1", "--json", str(tmp_path / "table1.json"))
    assert (tmp_path / "table1.json").is_file()
    assert "repro.bcm" in names  # the study did run
    assert loaded(names, "repro.store", "repro.fleet", "repro.sim",
                  "repro.serve") == []


def test_service_client_loads_no_simulator():
    names = imported("from repro.serve.client import ServeClient")
    assert loaded(names, "repro.sim", "repro.fleet") == []


def test_submit_side_option_checks_load_no_simulator():
    # What ``repro submit`` builds before it sends: a validated job spec.
    names = imported((
        "from repro.serve import JobSpec, ServeClient\n"
        "from repro.study import Profile\n"
        "JobSpec('fig7', engine='fast', profile=Profile(tasks=('har',)))\n"))
    assert loaded(names, "repro.sim", "repro.fleet") == []


def test_rendering_a_stored_table_loads_no_simulator(tmp_path):
    # The studies whose renderers reach past format_table: Figure 7's
    # paper ratios, the checkpoint bound, the fleet report's tables.
    from repro.study import Profile, run_study

    har = Profile(tasks=("har",))
    for name, profile in (("fig7", har), ("overhead", har),
                          ("fleet", Profile(samples=1))):
        run = run_study(name, engine="fast", parallel=False, profile=profile)
        (tmp_path / f"{name}.json").write_text(run.table.to_json())
    names = imported(
        "from pathlib import Path\n"
        "from repro.study import ResultTable, get_study\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.json')):\n"
        "    table = ResultTable.from_json(path.read_text())\n"
        "    assert get_study(path.stem).render(table)\n",
        str(tmp_path))
    assert "repro.fleet.report" in names  # the fleet table did render
    assert loaded(names, "repro.sim", "repro.power", "repro.rad",
                  "repro.fleet.runner") == []


@pytest.mark.parametrize("name", ["ResultTable", "Column", "percentile"])
def test_study_package_exports_still_resolve(name):
    names = imported((
        "import repro.study\n"
        "assert 'numpy' not in sys.modules, 'repro.study loaded numpy'\n"
        f"from repro.study import {name}\n"
        f"assert {name}.__module__ == 'repro.study.table'\n"))
    assert "repro.study.table" in names
