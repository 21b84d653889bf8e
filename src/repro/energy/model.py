"""The composed energy model: core + DRAM + runahead structures.

``EnergyModel.evaluate`` converts a finished simulation (its
:class:`~repro.uarch.stats.CoreStats` event counts, the memory hierarchy's
access counts, and the runahead structures configured for the variant) into an
:class:`EnergyReport`.  Energy savings relative to the baseline core — the
quantity Figure 3 of the paper reports — are then simple ratios of report
totals, computed by :mod:`repro.simulation.experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.energy.cacti import SRAMModel
from repro.energy.mcpat import EnergyBreakdown, EnergyParameters
from repro.memory.hierarchy import PrivateHierarchy
from repro.serde import JSONSerializable
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats


@dataclass
class EnergyReport(JSONSerializable):
    """Total energy of one run plus its component breakdown."""

    variant: str
    cycles: int
    frequency_ghz: float
    breakdown: EnergyBreakdown

    @property
    def seconds(self) -> float:
        """Execution time in seconds."""
        return self.cycles / (self.frequency_ghz * 1e9)

    @property
    def total_nj(self) -> float:
        """Total core + DRAM energy in nanojoules."""
        return self.breakdown.total_nj


class EnergyModel:
    """Event-count energy model for the core, the memory system and PRE's structures."""

    def __init__(self, parameters: Optional[EnergyParameters] = None) -> None:
        self.parameters = parameters or EnergyParameters()

    def evaluate(
        self,
        variant: str,
        stats: CoreStats,
        hierarchy: PrivateHierarchy,
        config: CoreConfig,
        extra_sram: Optional[Dict[str, SRAMModel]] = None,
    ) -> EnergyReport:
        """Compute the energy of one finished simulation run.

        ``extra_sram`` maps structure names (``"sst"``, ``"prdq"``, ``"emq"``,
        ``"runahead_buffer"``) to their SRAM models; each is billed its read
        energy per access counted in the run's events.
        """
        params = self.parameters
        events = stats.events
        breakdown = EnergyBreakdown()

        breakdown.frontend_nj = (
            events.fetched_uops * params.fetch_pj
            + events.decoded_uops * params.decode_pj
            + events.branch_predictions * params.branch_prediction_pj
        ) / 1000.0
        breakdown.rename_dispatch_nj = (
            events.renamed_uops * params.rename_pj
            + events.rob_writes * params.rob_write_pj
            + events.rob_reads * params.rob_read_pj
            + events.iq_writes * params.iq_write_pj
            + events.iq_wakeups * params.iq_wakeup_pj
        ) / 1000.0

        breakdown.issue_execute_nj = (
            events.executed_uops * params.int_op_pj
        ) / 1000.0
        breakdown.regfile_nj = (
            events.regfile_reads * params.regfile_read_pj
            + events.regfile_writes * params.regfile_write_pj
        ) / 1000.0
        breakdown.lsq_nj = events.lsq_accesses * params.lsq_access_pj / 1000.0

        breakdown.cache_nj = (
            (hierarchy.l1d.stats.accesses + hierarchy.l1i.stats.accesses) * params.l1_access_pj
            + hierarchy.l2.stats.accesses * params.l2_access_pj
            + hierarchy.l3.stats.accesses * params.l3_access_pj
        ) / 1000.0
        # Reads and writes are billed separately: writeback propagation means
        # DRAM write counts now reflect every dirty victim that reaches main
        # memory, not just L3 victims.
        breakdown.dram_dynamic_nj = (
            hierarchy.dram.stats.reads * params.dram_access_pj
            + hierarchy.dram.stats.writes * params.dram_write_pj
        ) / 1000.0

        breakdown.runahead_structures_nj = self._runahead_structures_nj(stats, extra_sram or {})

        seconds = stats.cycles / (config.frequency_ghz * 1e9)
        static_w = params.core_static_w + params.llc_static_w
        static_w += sum(model.leakage_mw for model in (extra_sram or {}).values()) * 1e-3
        breakdown.core_static_nj = static_w * seconds * 1e9
        breakdown.dram_static_nj = params.dram_static_w * seconds * 1e9

        return EnergyReport(
            variant=variant,
            cycles=stats.cycles,
            frequency_ghz=config.frequency_ghz,
            breakdown=breakdown,
        )

    @staticmethod
    def _runahead_structures_nj(stats: CoreStats, extra_sram: Dict[str, SRAMModel]) -> float:
        total_pj = 0.0
        events = stats.events
        accesses = {
            "sst": events.sst_lookups + events.sst_inserts,
            "prdq": events.prdq_writes + events.prdq_deallocations,
            "emq": events.emq_writes + events.emq_reads,
            "runahead_buffer": events.runahead_buffer_reads + events.runahead_buffer_writes,
        }
        for name, model in extra_sram.items():
            total_pj += accesses.get(name, 0) * model.read_energy_pj
        return total_pj / 1000.0
