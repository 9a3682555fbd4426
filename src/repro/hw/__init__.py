"""Simulated MSP430FR5994 hardware: cost constants, CPU/LEA/DMA cost
helpers, energy metering, and the Device that executes atoms."""

from repro.hw import constants
from repro.hw.board import Device, msp430fr5994
from repro.hw.cpu import alu_cycles, copy_cycles, software_fft_cycles
from repro.hw.dma import transfer_cycles
from repro.hw.energymeter import EnergyMeter
from repro.hw.lea import LEA_OPS, op_cycles

__all__ = [
    "Device",
    "EnergyMeter",
    "LEA_OPS",
    "alu_cycles",
    "constants",
    "copy_cycles",
    "msp430fr5994",
    "op_cycles",
    "software_fft_cycles",
    "transfer_cycles",
]
