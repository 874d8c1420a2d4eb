"""Storage substrate: persistent devices, DRAM staging, simulated GPU.

Everything the checkpoint engine touches below the algorithm layer lives
here.  See :mod:`repro.storage.device` for the persistence-domain model
shared by all backends.
"""

from repro.storage.device import (
    CACHE_LINE,
    DeviceStats,
    DeviceWrapper,
    IntervalSet,
    PersistentDevice,
    TwoImageDevice,
)
from repro.storage.dram import DRAMBufferPool, PinnedBuffer
from repro.storage.faults import CrashBudgetExhausted, CrashPointDevice
from repro.storage.gpu import (
    PCIE3_X8_BANDWIDTH,
    PCIE3_X16_BANDWIDTH,
    GPUBuffer,
    SimulatedGPU,
)
from repro.storage.pmem import CLWB_BANDWIDTH, NT_STORE_BANDWIDTH, SimulatedPMEM
from repro.storage.ssd import (
    PDSSD_NAIVE_BANDWIDTH,
    PDSSD_SATURATED_BANDWIDTH,
    SECTOR_SIZE,
    FileBackedSSD,
    InMemorySSD,
)
from repro.storage.striped import (
    STRIPE_HEADER_SIZE,
    StripedDevice,
    StripeManifest,
)

__all__ = [
    "CACHE_LINE",
    "CLWB_BANDWIDTH",
    "NT_STORE_BANDWIDTH",
    "PCIE3_X8_BANDWIDTH",
    "PCIE3_X16_BANDWIDTH",
    "PDSSD_NAIVE_BANDWIDTH",
    "PDSSD_SATURATED_BANDWIDTH",
    "SECTOR_SIZE",
    "STRIPE_HEADER_SIZE",
    "CrashBudgetExhausted",
    "CrashPointDevice",
    "DRAMBufferPool",
    "DeviceStats",
    "DeviceWrapper",
    "FileBackedSSD",
    "GPUBuffer",
    "InMemorySSD",
    "IntervalSet",
    "PersistentDevice",
    "PinnedBuffer",
    "SimulatedGPU",
    "SimulatedPMEM",
    "StripeManifest",
    "StripedDevice",
    "TwoImageDevice",
]
