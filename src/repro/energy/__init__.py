"""Energy modelling substrate.

The paper evaluates energy with McPAT (core + DRAM, 22 nm) and CACTI 6.5 (the
SST, PRDQ and EMQ SRAM structures).  Neither tool is available here, so this
package provides an event-based equivalent: the core counts per-structure
dynamic events (:class:`repro.uarch.stats.EventCounts`), this package
multiplies them by per-access energies representative of a 22 nm core, adds
leakage proportional to execution time, and adds the runahead structures'
energy from an analytic SRAM model.  The paper's energy argument is structural
(re-fetching and re-executing whole windows versus small extra SRAM
structures), which this accounting captures: every variant is charged from
the same event counts and per-access energies, so the comparison between
variants does not depend on matching McPAT's absolute figures.
"""

from repro.energy.cacti import SRAMModel, sram_access_energy_pj, sram_leakage_mw
from repro.energy.mcpat import EnergyParameters, EnergyBreakdown
from repro.energy.model import EnergyModel, EnergyReport

__all__ = [
    "SRAMModel",
    "sram_access_energy_pj",
    "sram_leakage_mw",
    "EnergyParameters",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyReport",
]
