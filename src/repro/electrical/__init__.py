"""The aggressive electrical baseline network (paper section 4, Table 2).

An input-queued virtual-channel mesh router in the Booksim mould: 10 VCs per
port with one entry each, iSLIP VC and switch allocation, a speculative 2- or
3-cycle per-hop pipeline, input speedup 4, credit-based flow control with
wait-for-tail, direct local ejection, an open-loop NIC FIFO and Virtual
Circuit Tree Multicasting for broadcasts.
"""

from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.islip import RoundRobinArbiter, SwitchAllocator, VcAllocator
from repro.electrical.network import ElectricalNetwork
from repro.electrical.power import ElectricalPowerModel
from repro.electrical.router import ElectricalRouter
from repro.electrical.vctm import VirtualCircuitTreeCache, split_by_output

__all__ = [
    "ElectricalConfig",
    "ElectricalNetwork",
    "ElectricalPowerModel",
    "ElectricalRouter",
    "Flit",
    "RoundRobinArbiter",
    "SwitchAllocator",
    "VcAllocator",
    "VirtualCircuitTreeCache",
    "split_by_output",
]
