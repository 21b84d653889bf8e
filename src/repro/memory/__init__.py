"""Memory hierarchy substrate: caches, MSHRs, DRAM, and the composed hierarchy.

Models the three-level cache hierarchy plus DDR3-like DRAM from Table 1 of the
paper.  Timing is line-granular: an access returns the number of cycles until
its data is available, and outstanding misses are tracked so that later
accesses to the same line (demand hits under a runahead prefetch, for example)
observe only the *remaining* latency.
"""

from repro.memory.cache import CacheConfig, CacheStats, SetAssociativeCache
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.hierarchy import (
    AccessResult,
    HierarchyConfig,
    MemoryLevel,
    PrivateHierarchy,
    RequestKind,
    SharedUncore,
)
from repro.memory.mshr import MSHREntry, MSHRFile
from repro.memory.prefetcher import NextLinePrefetcher, StridePrefetcher

__all__ = [
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "DRAMConfig",
    "DRAMModel",
    "AccessResult",
    "HierarchyConfig",
    "MemoryLevel",
    "PrivateHierarchy",
    "RequestKind",
    "SharedUncore",
    "MSHREntry",
    "MSHRFile",
    "NextLinePrefetcher",
    "StridePrefetcher",
]
