"""Tests for the intermittent machine: commit semantics, rollback, DNF,
on-demand snapshots — the Figure 6 mechanics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.board import Device, msp430fr5994
from repro.power import Capacitor, ConstantTrace, SquareWaveTrace, VoltageMonitor
from repro.sim import Atom, IntermittentMachine, InferenceRuntime, total_cycles, validate_program
from tests.supply import harvester


class ToyRuntime(InferenceRuntime):
    """Configurable runtime over an explicit atom list."""

    def __init__(self, atoms, *, name="toy", commit_enabled=True,
                 snapshot_on_warning=False):
        self._atoms = atoms
        self.name = name
        self.commit_enabled = commit_enabled
        self.snapshot_on_warning = snapshot_on_warning

    def build_atoms(self):
        return self._atoms

    def compute_logits(self, x):
        return np.array([1.0, 0.0])


def cpu_atom(cycles, *, commit=False, volatile=0, divisible=False, iters=1,
             label="work", layer=0):
    return Atom(
        label=label, layer=layer, component="cpu", cycles=cycles,
        commit=commit, commit_words=2, volatile_words=volatile,
        divisible=divisible, iterations=iters,
    )


def small_harvester(power_w=2e-3, cap_uF=20.0):
    """A deliberately small buffer so failures happen quickly."""
    return harvester(
        ConstantTrace(power_w),
        Capacitor(cap_uF * 1e-6, v_on=3.5),
        efficiency=1.0,
    )


class TestContinuousPower:
    def test_single_pass_completes(self):
        dev = Device()
        rt = ToyRuntime([cpu_atom(1000, commit=True) for _ in range(5)])
        res = IntermittentMachine(dev, rt).run(np.zeros(2))
        assert res.completed
        assert res.reboots == 0
        assert res.executed_cycles == pytest.approx(5000)
        assert res.wasted_cycles == 0

    def test_commit_costs_paid_even_without_failures(self):
        committing = ToyRuntime([cpu_atom(1000, commit=True) for _ in range(5)])
        plain = ToyRuntime(
            [cpu_atom(1000) for _ in range(5)], commit_enabled=False
        )
        dev1, dev2 = Device(), Device()
        r1 = IntermittentMachine(dev1, committing).run(np.zeros(2))
        r2 = IntermittentMachine(dev2, plain).run(np.zeros(2))
        assert r1.energy_j > r2.energy_j
        assert r1.checkpoint_energy_j > 0
        assert r2.checkpoint_energy_j == 0

    def test_logits_and_prediction(self):
        res = IntermittentMachine(Device(), ToyRuntime([cpu_atom(10, commit=True)])).run(np.zeros(2))
        assert res.predicted_class == 0


class TestIntermittentCommit:
    def test_committed_program_completes_across_failures(self):
        h = small_harvester()
        dev = Device(supply=h)
        # 40 atoms of 20k cycles each: several per charge, not all at once.
        atoms = [cpu_atom(20000, commit=True, label=f"a{i}") for i in range(40)]
        rt = ToyRuntime(atoms)
        res = IntermittentMachine(dev, rt).run(np.zeros(2))
        assert res.completed
        assert res.reboots > 0
        assert res.charge_time_s > 0
        # Rollback waste is bounded by one atom per reboot.
        assert res.wasted_cycles <= res.reboots * 20000

    def test_uncommitted_program_dnfs(self):
        h = small_harvester()
        dev = Device(supply=h)
        atoms = [cpu_atom(20000, label=f"a{i}") for i in range(40)]
        rt = ToyRuntime(atoms, commit_enabled=False)
        res = IntermittentMachine(dev, rt, stall_limit=4).run(np.zeros(2))
        assert not res.completed
        assert "no durable progress" in res.dnf_reason
        assert res.logits is None

    def test_volatile_commits_are_not_durable(self):
        """Commits with live volatile state must roll back to the last
        writeback — the TAILS-on-FFT behaviour of Figure 6 (left)."""
        h = small_harvester()
        dev = Device(supply=h)
        # A chain: [start, mid(volatile), mid(volatile), writeback] x N.
        atoms = []
        for i in range(12):
            atoms.append(cpu_atom(5000, commit=True, volatile=64, label=f"c{i}.fft", layer=i))
            atoms.append(cpu_atom(5000, commit=True, volatile=64, label=f"c{i}.mpy", layer=i))
            atoms.append(cpu_atom(5000, commit=True, volatile=0, label=f"c{i}.wb", layer=i))
        rt = ToyRuntime(atoms)
        res = IntermittentMachine(dev, rt).run(np.zeros(2))
        assert res.completed
        # Wasted work exists (mid-chain failures redo the chain) but is
        # bounded by one chain per reboot.
        assert res.wasted_cycles <= res.reboots * 15000

    def test_divisible_atom_resumes_mid_loop(self):
        h = small_harvester()
        dev = Device(supply=h)
        # One big loop: per-iteration commit makes it durable mid-atom.
        atoms = [cpu_atom(400000, commit=True, divisible=True, iters=400)]
        rt = ToyRuntime(atoms)
        res = IntermittentMachine(dev, rt).run(np.zeros(2))
        assert res.completed
        assert res.reboots > 0
        # At most ~one iteration wasted per reboot.
        assert res.wasted_cycles <= res.reboots * (400000 / 400) + 1

    def test_divisible_without_commit_dnfs_if_too_big(self):
        h = small_harvester()
        dev = Device(supply=h)
        atoms = [cpu_atom(4000000, divisible=True, iters=400)]
        rt = ToyRuntime(atoms, commit_enabled=False)
        res = IntermittentMachine(dev, rt, stall_limit=3).run(np.zeros(2))
        assert not res.completed


class TestFlexSnapshots:
    def test_snapshot_makes_volatile_chain_durable(self):
        """With on-demand snapshots the same volatile chain wastes less
        work than without (Figure 6 right vs left)."""
        def chain_atoms():
            atoms = []
            for i in range(12):
                atoms.append(cpu_atom(5000, commit=True, volatile=64, label=f"c{i}.fft", layer=i))
                atoms.append(cpu_atom(5000, commit=True, volatile=64, label=f"c{i}.mpy", layer=i))
                atoms.append(cpu_atom(5000, commit=True, volatile=0, label=f"c{i}.wb", layer=i))
            return atoms

        h1 = small_harvester()
        dev1 = Device(supply=h1)
        tails_like = ToyRuntime(chain_atoms(), name="tails-like")
        r1 = IntermittentMachine(dev1, tails_like).run(np.zeros(2))

        h2 = small_harvester()
        dev2 = Device(supply=h2)
        mon = VoltageMonitor(h2, v_warn=2.6)
        flex_like = ToyRuntime(chain_atoms(), name="flex-like",
                               snapshot_on_warning=True)
        r2 = IntermittentMachine(dev2, flex_like, monitor=mon).run(np.zeros(2))

        assert r1.completed and r2.completed
        assert r2.wasted_cycles <= r1.wasted_cycles

    def test_snapshot_requires_monitor_under_harvested_power(self):
        h = small_harvester()
        dev = Device(supply=h)
        rt = ToyRuntime([cpu_atom(10)], snapshot_on_warning=True)
        with pytest.raises(ConfigurationError):
            IntermittentMachine(dev, rt)


class TestDnfAndValidation:
    def test_max_reboots_guard(self):
        h = small_harvester()
        dev = Device(supply=h)
        atoms = [cpu_atom(20000, commit=True, divisible=True, iters=2,
                          label=f"a{i}") for i in range(2000)]
        rt = ToyRuntime(atoms)
        res = IntermittentMachine(dev, rt, max_reboots=3).run(np.zeros(2))
        assert not res.completed
        assert "max_reboots" in res.dnf_reason

    def test_failure_during_restore_terminates(self):
        """The pathological branch at machine.py's restore step: a capacitor
        whose swing is smaller than the restore cost browns out *inside*
        restore on every cycle.  The machine must keep cycling (the
        ``continue`` path skips the cursor reset) and still land on a stall
        DNF; restore brown-outs hit the supply's failure counter but are
        not reboots."""
        h = harvester(
            ConstantTrace(2e-6),  # weak: recharge stops right at v_on
            Capacitor(0.1e-6, v_on=1.81),
            charge_timeout_s=1.0,
        )
        dev = Device(supply=h)
        atoms = [cpu_atom(50000, commit=True, label=f"a{i}", layer=i)
                 for i in range(4)]
        res = IntermittentMachine(dev, ToyRuntime(atoms), stall_limit=3).run(
            np.zeros(2)
        )
        assert not res.completed
        assert "no durable progress" in res.dnf_reason
        assert h.failures > res.reboots  # restore failures are extra

    def test_dead_supply_reports_reason(self):
        h = harvester(
            ConstantTrace(0.0),
            Capacitor(20e-6),
            charge_timeout_s=0.02,
        )
        dev = Device(supply=h)
        rt = ToyRuntime([cpu_atom(10_000_000, commit=True, divisible=True,
                                  iters=1000)])
        res = IntermittentMachine(dev, rt).run(np.zeros(2))
        assert not res.completed
        assert "too little energy" in res.dnf_reason

    def test_program_validation(self):
        with pytest.raises(ConfigurationError):
            validate_program([])
        a0 = cpu_atom(10, layer=1)
        a1 = cpu_atom(10, layer=0)
        with pytest.raises(ConfigurationError):
            validate_program([a0, a1])

    def test_total_cycles(self):
        assert total_cycles([cpu_atom(10), cpu_atom(30)]) == 40

    def test_atom_validation(self):
        with pytest.raises(ConfigurationError):
            Atom(label="x", layer=0, component="npu", cycles=1)
        with pytest.raises(ConfigurationError):
            Atom(label="x", layer=0, component="cpu", cycles=-1)
        with pytest.raises(ConfigurationError):
            Atom(label="x", layer=0, component="cpu", cycles=1,
                 divisible=True, iterations=1)

    def test_atom_scaled(self):
        atom = cpu_atom(100, divisible=True, iters=10)
        half = atom.scaled(0.5)
        assert half.cycles == 50
        assert not half.divisible
        with pytest.raises(ConfigurationError):
            atom.scaled(1.5)
