"""Tests for the device model: meter, cost helpers, board."""

import numpy as np
import pytest

from repro.hw import (
    Device,
    EnergyMeter,
    alu_cycles,
    copy_cycles,
    op_cycles,
    software_fft_cycles,
    transfer_cycles,
)
from repro.hw import constants as C
from repro.sim.atoms import Atom


class TestMeter:
    def test_record_and_totals(self):
        m = EnergyMeter()
        m.record("cpu", time_s=1e-3, energy_j=5e-6)
        m.record("lea", time_s=2e-3, energy_j=4e-6, purpose="data")
        assert m.total_energy_j == pytest.approx(9e-6)
        assert m.total_time_s == pytest.approx(3e-3)
        assert m.purpose_of("data") == pytest.approx(4e-6)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter().record("gpu", energy_j=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter().record("cpu", energy_j=-1.0)

    def test_diff(self):
        m = EnergyMeter()
        m.record("cpu", energy_j=1e-6)
        snap = m.snapshot()
        m.record("cpu", energy_j=3e-6)
        assert m.diff(snap).energy_j["cpu"] == pytest.approx(3e-6)

    def test_summary_contains_components(self):
        m = EnergyMeter()
        m.record("fram", energy_j=1e-6)
        assert "fram" in m.summary()


class TestCycleHelpers:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alu_cycles(-1)
        with pytest.raises(ValueError):
            copy_cycles(-1)

    def test_software_fft_requires_power_of_two(self):
        with pytest.raises(ValueError):
            software_fft_cycles(100)
        assert software_fft_cycles(128) > software_fft_cycles(64)

    def test_lea_op_costs(self):
        assert op_cycles("mac", 100) == C.LEA_SETUP_CYCLES + 100 * C.LEA_MAC_CYCLES_PER_ELEM
        with pytest.raises(ValueError):
            op_cycles("conv", 10)
        with pytest.raises(ValueError):
            op_cycles("fft", 100)  # not a power of two

    def test_lea_faster_than_cpu_for_long_vectors(self):
        assert 256 * C.CPU_MAC_CYCLES / op_cycles("mac", 256) > 3.0

    def test_dma_beats_cpu_for_bulk(self):
        assert transfer_cycles(64) < copy_cycles(64)
        assert transfer_cycles(1) >= copy_cycles(1)

    def test_dma_zero_words_free(self):
        assert transfer_cycles(0) == 0.0


class TestDeviceExecution:
    def _atom(self, **kw):
        base = dict(label="a", layer=0, component="cpu", cycles=1600.0)
        base.update(kw)
        return Atom(**base)

    def test_cpu_atom_time_energy(self):
        dev = Device()
        atom = self._atom()
        t, e = dev.atom_cost(atom)
        assert t == pytest.approx(1600 * C.EFFECTIVE_CYCLE_S)
        assert e == pytest.approx(C.CPU_ACTIVE_W * t)

    def test_memory_traffic_adds_energy(self):
        dev = Device()
        plain = self._atom()
        heavy = self._atom(fram_writes=1000)
        assert dev.atom_cost(heavy)[1] > dev.atom_cost(plain)[1]

    def test_execute_books_to_meter(self):
        dev = Device()
        dev.execute(self._atom(component="lea", fram_reads=10))
        assert dev.meter.energy_j["lea"] > 0
        assert dev.meter.energy_j["fram"] > 0

    def test_fractional_execution(self):
        dev = Device()
        atom = self._atom()
        dev.execute(atom, fraction=0.25)
        t_full, _ = dev.atom_cost(atom)
        assert dev.meter.total_time_s == pytest.approx(0.25 * t_full)

    def test_checkpoint_purpose(self):
        dev = Device()
        dev.checkpoint(4)
        assert dev.meter.purpose_of("checkpoint") > 0

    def test_power_failure_counts_a_reboot(self):
        dev = Device()
        dev.on_power_failure()
        assert dev.reboots == 1
