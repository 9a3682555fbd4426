"""The fast engine's compile tables, each checked against the reference.

``compile_program`` builds its tables from :mod:`repro.hw.board`'s draw
builders.  These tests log what the reference machine actually draws and
books over uninterrupted runs of the 15 task x runtime programs, and pin
each table builder's output to that log; they also pin
:func:`~repro.hw.board.booking_total` to left-to-right addition, the
arithmetic both engines rely on.
"""

import functools
import operator

import pytest

from repro.experiments.common import (
    RUNTIME_ORDER,
    make_dataset,
    make_runtime,
    prepare_quantized,
)
from repro.hw.board import (
    Device,
    booking_total,
    commit_draw,
    execute_draw,
    restore_draw,
)
from repro.power import Capacitor, ConstantTrace, EnergyHarvester, VoltageMonitor
from repro.sim import IntermittentMachine, compile_program

TASKS = ("mnist", "har", "okg")
PROGRAMS = [(task, name) for task in TASKS for name in RUNTIME_ORDER]


def left_to_right(bookings):
    return functools.reduce(operator.add, [b[2] for b in bookings])


def logged_walk(runtime, x, supply=None):
    """One uninterrupted reference run of ``runtime``, logged draw by draw.

    Returns ``(result, draws, drawn)``: the run's result, every
    ``Device._draw_and_record`` call as ``(bookings, time_s)``, and every
    energy the supply was asked for (harvested runs only).
    """
    draws = []
    drawn = []
    record = Device._draw_and_record
    supply_draw = EnergyHarvester.draw

    def logging_record(self, bookings, time_s):
        draws.append((list(bookings), time_s))
        record(self, bookings, time_s)

    def logging_draw(self, energy_j, time_s):
        drawn.append(energy_j)
        return supply_draw(self, energy_j, time_s)

    monitor = None
    if supply is not None and runtime.snapshot_on_warning:
        monitor = VoltageMonitor(supply)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Device, "_draw_and_record", logging_record)
        mp.setattr(EnergyHarvester, "draw", logging_draw)
        result = IntermittentMachine(Device(supply=supply), runtime,
                                     monitor=monitor).run(x)
    assert result.completed and result.reboots == 0
    if monitor is not None:
        assert monitor.warnings == 0
    return result, draws, drawn


@pytest.fixture(scope="module")
def zoo():
    """``(task, runtime) -> (runtime, program, mains walk, harvested walk)``.

    The harvested walk runs on a 1 F capacitor with no income: it never
    browns out or warns, so every loop atom runs as one chunk.
    """
    out = {}
    for task in TASKS:
        qmodel = prepare_quantized(task, seed=0)
        x = make_dataset(task, 16, seed=3).x[0]
        for name in RUNTIME_ORDER:
            runtime = make_runtime(name, qmodel)
            supply = EnergyHarvester(ConstantTrace(0.0), Capacitor(1.0))
            out[task, name] = (
                runtime,
                compile_program(runtime),
                logged_walk(runtime, x),
                logged_walk(runtime, x, supply),
            )
    return out


class TestBookingTotal:
    def test_adds_left_to_right(self):
        # Compensated summation (CPython >= 3.12 ``sum()``) gives
        # 1.0000000000000002 here; sequential adds round back to 1.0.
        bookings = [("cpu", 0.0, 1.0, "compute"), ("fram", 0.0, 1e-16, "compute"),
                    ("sram", 0.0, 1e-16, "compute")]
        assert booking_total(bookings) == 1.0 == left_to_right(bookings)

    @pytest.mark.parametrize("task,name", PROGRAMS)
    def test_every_compiled_draw(self, zoo, task, name):
        runtime, p, _, _ = zoo[task, name]
        draws = list(zip(p.ev_bookings, p.ev_total_l))
        draws += [(bookings, total) for bookings, _, total in p.ck_draws()]
        for atom in p.atoms:
            for bookings, _ in (execute_draw(atom),
                                execute_draw(atom, 1.0 / atom.iterations),
                                commit_draw(atom.commit_words, atom.iterations),
                                restore_draw(runtime.restore_words()
                                             + atom.volatile_words)):
                draws.append((bookings, booking_total(bookings)))
        assert draws
        for bookings, total in draws:
            assert total == left_to_right(bookings)


@pytest.mark.parametrize("task,name", PROGRAMS)
class TestTablesMatchReferenceWalk:
    def test_continuous_series(self, zoo, task, name):
        """Per-key and per-purpose series == the mains walk's bookings,
        grouped in first-seen order."""
        _, p, (result, draws, _), _ = zoo[task, name]
        energy, time, purpose = {}, {}, {}
        for bookings, _ in draws:
            for key, t, e, why in bookings:
                energy.setdefault(key, []).append(e)
                time.setdefault(key, []).append(t)
                purpose.setdefault(why, []).append(e)
        assert p.comp_keys == list(energy)
        assert p.purpose_keys == list(purpose)
        for key in p.comp_keys:
            assert p._energy_series[key][1:].tolist() == energy[key]
            assert p._time_series[key][1:].tolist() == time[key]
        for key in p.purpose_keys:
            assert p._purpose_series[key][1:].tolist() == purpose[key]
        assert p.cont_executed_cycles == result.executed_cycles

    def test_event_tables(self, zoo, task, name):
        """Events == the harvested walk's draws of non-divisible atoms, in
        order: bookings, durations, and the energy taken from the supply."""
        runtime, p, _, (_, draws, drawn) = zoo[task, name]
        assert len(drawn) == len(draws)
        events = []
        i = 0
        for atom in p.atoms:
            n = 2 if runtime.commit_enabled and atom.commit else 1
            if not atom.divisible:
                events += [(*draws[k], drawn[k]) for k in range(i, i + n)]
            i += n
        assert i == len(draws)
        assert p.n_events == len(events)
        assert p.ev_bookings == [bookings for bookings, _, _ in events]
        assert p.ev_dt_l == [time_s for _, time_s, _ in events]
        assert p.ev_total_l == [energy for _, _, energy in events]
