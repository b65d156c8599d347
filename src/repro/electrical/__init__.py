"""The aggressive electrical baseline network (paper section 4, Table 2).

An input-queued virtual-channel mesh router in the Booksim mould: 10 VCs per
port with one entry each, iSLIP VC and switch allocation, a speculative 2- or
3-cycle per-hop pipeline, input speedup 4, credit-based flow control with
wait-for-tail, direct local ejection, an open-loop NIC FIFO and Virtual
Circuit Tree Multicasting for broadcasts.  Import the module that defines a
name; the package itself loads none of them.
"""
