"""DDR3-like main-memory timing model.

Models the DRAM parameters of Table 1: DDR3-1600 (800 MHz bus), 4 ranks,
32 banks, 4 KB pages (row-buffer), 64-bit bus, tRP-tCL-tRCD = 11-11-11 memory
cycles.  The model converts memory-clock timings to core cycles (2.66 GHz core)
and accounts for row-buffer hits/misses, per-bank service occupancy, and a
shared data bus, which is sufficient to capture the latency and bandwidth
effects the paper's evaluation depends on (a few hundred core cycles per LLC
miss, higher when banks or the bus conflict).

Reads and writes are tracked in separate queues with separate latency
accounting: reads are demand/prefetch fills whose latency the core observes,
writes are posted cache writebacks whose *latency* nobody waits on but whose
bank and bus occupancy delays subsequent reads — so writeback traffic has a
real bandwidth cost instead of being free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.serde import JSONSerializable


@dataclass(frozen=True)
class DRAMConfig(JSONSerializable):
    """DRAM organisation and timing parameters (Table 1)."""

    core_frequency_ghz: float = 2.66
    bus_frequency_mhz: float = 800.0
    num_ranks: int = 4
    num_banks: int = 32
    page_bytes: int = 4096
    bus_bytes: int = 8
    trp: int = 11
    tcl: int = 11
    trcd: int = 11
    #: Fixed controller + interconnect overhead added to every request, in core cycles.
    controller_latency_cycles: int = 40
    #: Data-burst occupancy of a 64-byte line transfer, in memory cycles.
    burst_cycles: int = 4

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.num_ranks <= 0:
            raise ValueError("bank/rank counts must be positive")
        if self.core_frequency_ghz <= 0 or self.bus_frequency_mhz <= 0:
            raise ValueError("frequencies must be positive")

    @property
    def core_cycles_per_memory_cycle(self) -> float:
        """Ratio between core and memory-bus clock periods."""
        return (self.core_frequency_ghz * 1000.0) / self.bus_frequency_mhz

    def to_core_cycles(self, memory_cycles: float) -> int:
        """Convert a number of memory-bus cycles to core cycles (rounded up)."""
        value = memory_cycles * self.core_cycles_per_memory_cycle
        return int(value) + (0 if value == int(value) else 1)


@dataclass
class DRAMStats:
    """Access statistics for the DRAM model, split by direction."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    read_latency_cycles: int = 0
    write_latency_cycles: int = 0
    read_queue_peak: int = 0
    write_queue_peak: int = 0

    @property
    def accesses(self) -> int:
        """Total number of DRAM requests."""
        return self.reads + self.writes

    @property
    def average_write_latency(self) -> float:
        """Average posted-write (writeback) latency in core cycles."""
        return self.write_latency_cycles / self.writes if self.writes else 0.0


class DRAMModel:
    """Bank- and bus-aware DRAM latency model.

    ``access`` returns the number of core cycles from request issue until the
    critical word is available at the memory controller.  Each bank serialises
    its requests, and every data transfer additionally occupies the single
    shared data bus for its burst duration: a request arriving while its bank
    or the bus is busy waits for both to free up first.  Posted writes queue
    and occupy resources like reads do (delaying later reads that hit the same
    bank or the bus) but nobody waits on their returned latency.
    """

    def __init__(self, config: DRAMConfig = DRAMConfig()) -> None:
        self.config = config
        self.stats = DRAMStats()
        self._open_row: Dict[int, int] = {}
        self._bank_free_at: Dict[int, int] = {}
        self._bus_free_at: int = 0
        # Completion cycles of in-flight requests, per direction; pruned lazily
        # to measure queue depth.
        self._read_queue: List[int] = []
        self._write_queue: List[int] = []
        #: Breakdown of the most recent ``access``, for per-core attribution
        #: by the uncore: cycles the request waited on a busy bank/bus, and
        #: cycles its transfer occupied the shared data bus.  Bookkeeping
        #: only — reading them never perturbs timing.
        self.last_queue_delay: int = 0
        self.last_bus_cycles: int = 0

    def _bank_and_row(self, addr: int) -> tuple:
        page = addr // self.config.page_bytes
        # XOR-fold higher page bits into the bank index, as real memory
        # controllers do, so that regularly-strided streams do not all alias
        # onto the same bank.
        bank = (page ^ (page // self.config.num_banks)) % self.config.num_banks
        row = page // self.config.num_banks
        return bank, row

    def access(self, addr: int, cycle: int, is_write: bool = False) -> int:
        """Issue a request at ``cycle``; return its latency in core cycles."""
        config = self.config
        bank, row = self._bank_and_row(addr)

        if self._open_row.get(bank) == row:
            self.stats.row_hits += 1
            array_cycles = config.tcl
            # Back-to-back accesses to an open row stream at the burst rate;
            # only the data transfer occupies the bank.
            occupancy_cycles = config.burst_cycles
        else:
            self.stats.row_misses += 1
            array_cycles = config.trp + config.trcd + config.tcl
            # A row miss keeps the bank busy for precharge + activate + burst.
            occupancy_cycles = config.trp + config.trcd + config.burst_cycles
            self._open_row[bank] = row

        access_cycles = config.to_core_cycles(array_cycles + config.burst_cycles)
        service_cycles = config.to_core_cycles(occupancy_cycles)
        bus_cycles = config.to_core_cycles(config.burst_cycles)

        start = max(cycle, self._bank_free_at.get(bank, 0), self._bus_free_at)
        queue_delay = start - cycle
        self._bank_free_at[bank] = start + service_cycles
        self._bus_free_at = start + bus_cycles
        self.last_queue_delay = queue_delay
        self.last_bus_cycles = bus_cycles

        latency = config.controller_latency_cycles + queue_delay + access_cycles
        completion = cycle + latency
        queue = self._write_queue if is_write else self._read_queue
        queue[:] = [done for done in queue if done > cycle]
        queue.append(completion)
        if is_write:
            self.stats.writes += 1
            self.stats.write_latency_cycles += latency
            self.stats.write_queue_peak = max(self.stats.write_queue_peak, len(queue))
        else:
            self.stats.reads += 1
            self.stats.read_latency_cycles += latency
            self.stats.read_queue_peak = max(self.stats.read_queue_peak, len(queue))
        return latency

    def reset(self) -> None:
        """Clear open-row, bank-occupancy and queue state and statistics."""
        self.stats = DRAMStats()
        self._open_row.clear()
        self._bank_free_at.clear()
        self._bus_free_at = 0
        self._read_queue.clear()
        self._write_queue.clear()
        self.last_queue_delay = 0
        self.last_bus_cycles = 0
