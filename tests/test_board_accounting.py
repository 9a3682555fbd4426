"""Direct tests of the device's energy accounting, including the
partial-metering path when a brown-out interrupts an action."""

import numpy as np
import pytest

from repro.errors import PowerFailureError
from repro.hw.board import Device
from repro.power import Capacitor, ConstantTrace
from repro.sim.atoms import Atom
from tests.supply import harvester


def tiny_supply(energy_j: float):
    """A harvester holding ~energy_j of usable charge and no income."""
    # Solve for capacitance: E = 0.5 C (v_on^2 - v_off^2).
    cap_f = 2.0 * energy_j / (3.5 ** 2 - 1.8 ** 2)
    return harvester(ConstantTrace(0.0), Capacitor(cap_f), efficiency=1.0)


def big_atom(cycles=10_000_000.0, **kw):
    base = dict(label="big", layer=0, component="cpu", cycles=cycles)
    base.update(kw)
    return Atom(**base)


class TestPartialMetering:
    def test_interrupted_atom_meters_only_available_energy(self):
        supply = tiny_supply(1e-5)
        available = supply.available_energy_j
        device = Device(supply=supply)
        with pytest.raises(PowerFailureError):
            device.execute(big_atom())
        assert device.meter.total_energy_j == pytest.approx(available, rel=1e-6)

    def test_successful_atom_meters_full_energy(self):
        supply = tiny_supply(1e-3)
        device = Device(supply=supply)
        atom = big_atom(cycles=1000.0)
        _, energy = device.atom_cost(atom)
        device.execute(atom)
        assert device.meter.total_energy_j == pytest.approx(energy, rel=1e-9)

    def test_memory_bookings_scale_proportionally(self):
        supply = tiny_supply(1e-5)
        device = Device(supply=supply)
        atom = big_atom(fram_writes=10_000_000)
        with pytest.raises(PowerFailureError):
            device.execute(atom)
        total = device.meter.total_energy_j
        fram = device.meter.energy_j["fram"]
        cpu = device.meter.energy_j["cpu"]
        assert total == pytest.approx(fram + cpu, rel=1e-9)
        # The split matches the atom's intrinsic core/memory ratio.
        _, full_energy = device.atom_cost(atom)
        from repro.hw import constants as C

        full_fram = atom.fram_writes * C.FRAM_WRITE_J
        assert fram / total == pytest.approx(full_fram / full_energy, rel=1e-6)

    def test_interrupted_checkpoint_still_fails(self):
        supply = tiny_supply(1e-12)
        device = Device(supply=supply)
        with pytest.raises(PowerFailureError):
            device.checkpoint(10_000_000)

    def test_continuous_power_never_fails(self):
        device = Device()
        device.execute(big_atom())
        device.checkpoint(4)
        device.checkpoint_bulk(2, 100)
        device.restore(6)
        assert device.meter.total_energy_j > 0

    def test_bulk_commit_scales_with_count(self):
        d1, d2 = Device(), Device()
        d1.checkpoint_bulk(2, 1)
        d2.checkpoint_bulk(2, 10)
        assert d2.meter.total_energy_j == pytest.approx(
            10 * d1.meter.total_energy_j, rel=1e-9
        )

    def test_restore_reads_not_writes(self):
        device = Device()
        device.restore(100)
        from repro.hw import constants as C

        assert device.meter.energy_j["fram"] == pytest.approx(
            100 * C.FRAM_READ_RAW_J
        )


class TestCheckpointPurpose:
    def test_all_progress_costs_are_checkpoint_purpose(self):
        device = Device()
        device.checkpoint(4)
        device.checkpoint_bulk(2, 5)
        device.restore(3)
        assert device.meter.purpose_of("checkpoint") == pytest.approx(
            device.meter.total_energy_j, rel=1e-9
        )

    def test_compute_and_data_purposes_separate(self):
        device = Device()
        device.execute(big_atom(cycles=100.0, purpose="compute"))
        device.execute(
            Atom(label="mv", layer=0, component="dma", cycles=100.0,
                 purpose="data")
        )
        assert device.meter.purpose_of("compute") > 0
        assert device.meter.purpose_of("data") > 0
