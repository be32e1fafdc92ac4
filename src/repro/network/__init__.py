"""Simulated cluster network: NICs, switch fabric, and the message envelope.

Models what mattered in the paper's testbed (Figure 8): Fast Ethernet links
(100 Mb/s full duplex) from each node into non-blocking switches, small
per-hop latency, and a multicast channel used by membership heartbeats and
the backup data-location scheme.
"""

from repro.network.message import (
    MULTICAST,
    Message,
    RpcRemoteError,
    RpcTimeout,
)
from repro.network.nic import NIC, FAST_ETHERNET_BPS, GIGABIT_BPS
from repro.network.switch import Fabric, LinkFault

__all__ = [
    "Fabric",
    "LinkFault",
    "FAST_ETHERNET_BPS",
    "GIGABIT_BPS",
    "Message",
    "MULTICAST",
    "NIC",
    "RpcRemoteError",
    "RpcTimeout",
]
