"""Core configuration (Table 1 of the paper).

``CoreConfig`` collects every microarchitectural parameter of the simulated
core, defaulting to the baseline configuration the paper evaluates: a 2.66 GHz
4-wide out-of-order core with a 192-entry ROB, 92-entry issue queue, 64-entry
load and store queues, an 8-stage front-end that delivers up to 8 micro-ops
per cycle, and Haswell-like register files (168 integer + 168 floating-point
physical registers).  The runahead-specific structure sizes (SST, PRDQ, EMQ)
follow Sections 3.6 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.serde import JSONSerializable


@dataclass(frozen=True)
class CoreConfig(JSONSerializable):
    """Microarchitectural parameters of the simulated core."""

    # Clock and pipeline shape ------------------------------------------------
    frequency_ghz: float = 2.66
    #: Rename/dispatch/issue/commit width ("Width: 4" in Table 1).
    pipeline_width: int = 4
    #: Micro-ops the front-end can deliver per cycle (Section 4: "up to 8").
    fetch_width: int = 8
    #: Front-end depth in stages ("Depth (front-end only): 8 stages").
    frontend_depth: int = 8
    #: Capacity of the micro-op queue between decode and rename.
    uop_queue_size: int = 64

    # Back-end structures -----------------------------------------------------
    rob_size: int = 192
    issue_queue_size: int = 92
    load_queue_size: int = 64
    store_queue_size: int = 64
    int_registers: int = 168
    fp_registers: int = 168

    # Execution ports ---------------------------------------------------------
    max_loads_per_cycle: int = 2
    max_stores_per_cycle: int = 1

    # Branch prediction -------------------------------------------------------
    branch_predictor_entries: int = 4096
    branch_history_bits: int = 12
    #: Cycles from a mispredicted branch's execution to the first corrected fetch.
    branch_misprediction_penalty: int = 8

    # Runahead structures (Sections 3.6 and 4) --------------------------------
    sst_entries: int = 256
    prdq_entries: int = 192
    emq_entries: int = 768
    #: Minimum estimated remaining miss latency (cycles) below which the
    #: traditional runahead proposal does not enter runahead mode (the Mutlu
    #: et al. short-interval optimization discussed in Section 2.4).
    runahead_minimum_interval: int = 56
    #: Maximum length of the dependence chain the runahead buffer extracts.
    runahead_buffer_chain_length: int = 32

    def __post_init__(self) -> None:
        positive_fields = {
            "pipeline_width": self.pipeline_width,
            "fetch_width": self.fetch_width,
            "frontend_depth": self.frontend_depth,
            "uop_queue_size": self.uop_queue_size,
            "rob_size": self.rob_size,
            "issue_queue_size": self.issue_queue_size,
            "load_queue_size": self.load_queue_size,
            "store_queue_size": self.store_queue_size,
            "int_registers": self.int_registers,
            "fp_registers": self.fp_registers,
            "sst_entries": self.sst_entries,
            "prdq_entries": self.prdq_entries,
            "emq_entries": self.emq_entries,
        }
        for name, value in positive_fields.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        if self.int_registers < 32 or self.fp_registers < 32:
            raise ValueError(
                "register files must hold at least the 32 architectural registers of each type"
            )

    def with_overrides(self, **overrides: object) -> "CoreConfig":
        """Return a copy of this configuration with some fields replaced.

        The merged fields go through the strict decoder of
        :mod:`repro.serde`, so an unknown field or a wrongly typed value
        (``rob_size=64.5``) raises :class:`ValueError`.
        """
        return type(self).from_dict({**self.to_dict(), **overrides}, strict=True)

    def summary(self) -> Dict[str, str]:
        """Return a Table 1-style summary of the configuration."""
        return {
            "Core": (
                f"{self.frequency_ghz:.2f} GHz out-of-order, ROB: {self.rob_size}, "
                f"Issue/Load/Store queue: {self.issue_queue_size}/{self.load_queue_size}/"
                f"{self.store_queue_size}, Width: {self.pipeline_width}, "
                f"Depth (front-end only): {self.frontend_depth} stages"
            ),
            "Register file": (
                f"{self.int_registers} int (64 bit), {self.fp_registers} fp (128 bit)"
            ),
            "SST": f"{self.sst_entries} entry, fully assoc, LRU",
            "PRDQ size": str(self.prdq_entries),
            "EMQ size": str(self.emq_entries),
        }
