"""Zynq SoC substrate: event kernel, AXI paths, DMA, PR controllers, SoC."""

from repro.zynq.bitstream import (
    PAPER_PARTIAL_BITSTREAM_BYTES,
    BitstreamRepository,
    PartialBitstream,
    paper_bitstreams,
)
from repro.zynq.bus import (
    GP_PORT_LITE,
    HP_PORT,
    HP_PORT_VIDEO,
    ICAP_PORT,
    PL_DDR_PORT,
    PS_CENTRAL_INTERCONNECT,
    PS_DDR_PORT,
    BusLink,
    LinkSpec,
    Path,
)
from repro.zynq.dma import DmaDescriptor, DmaEngine, DmaState
from repro.zynq.events import EventHandle, Simulator, Trace, TraceRecord
from repro.zynq.interrupts import InterruptController, InterruptLine
from repro.zynq.pr import (
    ALL_CONTROLLERS,
    THEORETICAL_MAX_MB_S,
    BasePrController,
    HwIcapController,
    PaperPrController,
    PcapController,
    PrState,
    ReconfigReport,
    ZycapController,
)
from repro.zynq.soc import FRAME_BYTES, RESULT_BYTES, HwDetector, ZynqSoC

__all__ = [
    "ALL_CONTROLLERS",
    "BasePrController",
    "BitstreamRepository",
    "BusLink",
    "DmaDescriptor",
    "DmaEngine",
    "DmaState",
    "EventHandle",
    "FRAME_BYTES",
    "GP_PORT_LITE",
    "HP_PORT",
    "HP_PORT_VIDEO",
    "HwDetector",
    "HwIcapController",
    "ICAP_PORT",
    "InterruptController",
    "InterruptLine",
    "LinkSpec",
    "PAPER_PARTIAL_BITSTREAM_BYTES",
    "PL_DDR_PORT",
    "PS_CENTRAL_INTERCONNECT",
    "PS_DDR_PORT",
    "PaperPrController",
    "PartialBitstream",
    "Path",
    "PcapController",
    "PrState",
    "RESULT_BYTES",
    "ReconfigReport",
    "Simulator",
    "THEORETICAL_MAX_MB_S",
    "Trace",
    "TraceRecord",
    "ZycapController",
    "ZynqSoC",
    "paper_bitstreams",
]
