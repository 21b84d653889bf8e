"""CACTI-like analytic SRAM energy model.

CACTI 6.5 estimates per-access energy and leakage power of SRAM arrays from
their geometry.  This module provides a small analytic stand-in with the same
interface role: given a structure's capacity and port count it returns a
per-access dynamic energy (picojoules) and a leakage power (milliwatts) with
magnitudes representative of small 22 nm SRAM arrays.  The paper uses this
only for the runahead-specific structures (SST, PRDQ, EMQ), whose total
storage is a few kilobytes, so the absolute numbers are small compared to the
core; what matters is that they are accounted for at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def sram_access_energy_pj(capacity_bytes: int, ports: int = 1) -> float:
    """Per-access dynamic energy (pJ) of a small SRAM array.

    The energy grows roughly with the square root of capacity (bitline and
    wordline length) and linearly with the number of ports.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if ports <= 0:
        raise ValueError("ports must be positive")
    kilobytes = capacity_bytes / 1024.0
    return 0.35 * math.sqrt(max(kilobytes, 1.0 / 64.0)) * (0.6 + 0.4 * ports)


def sram_leakage_mw(capacity_bytes: int) -> float:
    """Leakage power (mW) of a small SRAM array at 22 nm."""
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    kilobytes = capacity_bytes / 1024.0
    return 0.08 * kilobytes


@dataclass(frozen=True)
class SRAMModel:
    """Energy characteristics of one SRAM structure."""

    name: str
    capacity_bytes: int
    read_ports: int = 1
    write_ports: int = 1

    @property
    def read_energy_pj(self) -> float:
        """Dynamic energy of one read access."""
        return sram_access_energy_pj(self.capacity_bytes, self.read_ports)

    @property
    def write_energy_pj(self) -> float:
        """Dynamic energy of one write access."""
        return sram_access_energy_pj(self.capacity_bytes, self.write_ports)

    @property
    def leakage_mw(self) -> float:
        """Leakage power of the array."""
        return sram_leakage_mw(self.capacity_bytes)
