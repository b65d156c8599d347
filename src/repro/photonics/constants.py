"""Calibrated physical and technology constants for the photonic models.

Every number here is either taken directly from the paper, from the
literature the paper cites, or is a *calibrated* constant whose derivation is
documented inline.  Calibrated constants are chosen so the analytical models
reproduce the paper's stated anchor results exactly:

- Fig 6: max hops per 4 GHz cycle = 8 / 5 / 4 under optimistic / average /
  pessimistic scaling, independent of WDM degree (32/64/128);
- Fig 7: peak optical power 32 W for (64λ, 4 hops, 98% crossing efficiency),
  32 W for (128λ, 5 hops, 98%), 15 W for (128λ, 4 hops, 98%);
- Fig 8: router area sweet spot at 64 wavelengths, matching the 3.5 mm²
  single-core node area.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Clocking (paper section 4: 16 nm node, 4 GHz processor and network clock).
# --------------------------------------------------------------------------
NETWORK_FREQUENCY_GHZ = 4.0
CYCLE_TIME_PS = 1e3 / NETWORK_FREQUENCY_GHZ  # 250 ps
#: Register setup/hold plus clock skew budgeted per cycle (section 3.1
#: "register overhead and clock skew"); calibrated.
REGISTER_AND_SKEW_PS = 5.0

# --------------------------------------------------------------------------
# Waveguides (paper section 3.1, citing Kirman et al.).
# --------------------------------------------------------------------------
#: Optical group delay in silicon waveguides; constant across technology.
WAVEGUIDE_DELAY_PS_PER_MM = 10.45

# --------------------------------------------------------------------------
# Die geometry (paper section 3.3, Kumar et al. methodology).
# --------------------------------------------------------------------------
#: Single core + 64KB L1s + 2MB L2 + memory controller.
NODE_AREA_SINGLE_CORE_MM2 = 3.5
#: Inter-router hop length = pitch of a 3.5 mm² node.
HOP_LENGTH_MM = NODE_AREA_SINGLE_CORE_MM2**0.5  # 1.871 mm

# --------------------------------------------------------------------------
# 16 nm component delays (ps) per scaling scenario (paper Fig 4: transmit
# 8.0-19.4 ps, receive 1.8-3.7 ps at 16 nm).  The resonator drive delay is
# the dominant contributor to the in-router critical paths ("most of the
# delay involves driving the resonators", section 3.1); its per-scenario
# values are calibrated so the hops-per-cycle solver lands on 8/5/4.
# --------------------------------------------------------------------------
TRANSMIT_DELAY_PS = {"optimistic": 8.0, "average": 12.0, "pessimistic": 19.4}
RECEIVE_DELAY_PS = {"optimistic": 1.8, "average": 2.6, "pessimistic": 3.7}
RESONATOR_DRIVE_DELAY_PS = {"optimistic": 1.5, "average": 9.0, "pessimistic": 12.0}
SCALING_SCENARIOS = ("optimistic", "average", "pessimistic")

#: Fixed waveguide length of the straight-line path across a router's
#: internal crossbar (~0.38 mm), expressed as delay.  Chosen above the
#: largest receive delay so that Packet Pass exceeds Packet Block for every
#: scenario, as the paper observes in section 3.1.
ROUTER_TRAVERSAL_BASE_PS = 4.0
#: Extra in-router waveguide length per WDM channel on a port (each
#: wavelength adds one resonator/receiver pair to the input port, paper
#: section 3.3); small enough that Fig 6 is WDM-independent.
ROUTER_TRAVERSAL_PER_WAVELENGTH_PS = 0.0005
#: Buffer write-enable generation on top of a Packet Accept when the packet
#: is latched at an interim node (distinguishes PIA from PA in Fig 5).
WRITE_ENABLE_DELAY_PS = 1.0

# --------------------------------------------------------------------------
# Packet layout (paper Table 1 / Fig 3).
# --------------------------------------------------------------------------
PACKET_PAYLOAD_BITS = 80 * 8  # 640: 64B data + addr/type/source/EDC/misc
#: Payload WDM degree of the design point: the Fig 8 area sweet spot.
PAYLOAD_WDM = 64
#: Per-crossing optical efficiency the simulated laser is charged at (Fig 7).
CROSSING_EFFICIENCY = 0.98
#: Table 1/2 "buffer entries in NIC".  A printed row only: the source is open
#: loop, so every NIC is one unbounded FIFO and no result can see this size.
NIC_BUFFER_ENTRIES = 50
PACKET_CONTROL_BITS = 70  # 14 routers x 5 bits (S, L, R, Local, Multicast)
CONTROL_BITS_PER_ROUTER = 5
MAX_CONTROL_GROUPS = 14
CONTROL_WAVEGUIDES = 2

# --------------------------------------------------------------------------
# Area model (paper Fig 8); calibrated as derived in DESIGN.md section 4.
# The router side length is modelled as
#     side(Λ) = 2 * K_WG_UM * W(Λ) + K_PORT_UM * Λ + AREA_BASE_UM   [µm]
# with W(Λ) = payload/control waveguides per direction.  The minimum of the
# waveguide term (∝ 1/Λ) plus the port term (∝ Λ) falls at Λ = 64 and gives
# side = 1.871 mm, i.e. exactly the 3.5 mm² single-core node.
# --------------------------------------------------------------------------
K_WG_UM = 38.4  # channel width per waveguide incl. turn resonator spacing
K_PORT_UM = 12.0  # input-port length per wavelength (resonator/receiver pitch)
AREA_BASE_UM = 180.0  # fixed overhead: bends, couplers, guard rings

# --------------------------------------------------------------------------
# Peak optical power model (paper Fig 7); calibrated to the three anchors.
# Per-router loss exponent e(Λ) = K_CROSS_PER_WG * W(Λ) + K_PORT_LOSS * Λ:
# crossings scale with the perpendicular channel's waveguide count, and
# through-ring/port losses scale with the WDM degree.  Solving the anchor
# equations gives the constants below (see DESIGN.md section 4).
# --------------------------------------------------------------------------
K_CROSS_PER_WG = 3.31
K_PORT_LOSS_PER_WAVELENGTH = 0.1125

# --------------------------------------------------------------------------
# Optical energy/power accounting (section 5 / Fig 11).  Literature-family
# estimates at 16 nm; only relative optical-vs-electrical power matters.
# --------------------------------------------------------------------------
MODULATOR_ENERGY_PJ_PER_BIT = 0.020  # E/O conversion incl. ring driver
RECEIVER_ENERGY_PJ_PER_BIT = 0.015  # O/E conversion incl. amplifier
#: CACTI-style SRAM access energy of a router or NIC buffer entry, charged
#: by both networks (the electrical router's input VCs, the optical
#: router's input-port buffers).
BUFFER_WRITE_PJ_PER_BIT = 0.030
BUFFER_READ_PJ_PER_BIT = 0.030
#: Static leakage of one 50-entry NIC buffer, in mW (both networks).
NIC_LEAKAGE_MW = 1.5
#: Static ring-resonator thermal tuning per router (all rings).
THERMAL_TUNING_MW_PER_ROUTER = 1.0
#: Static leakage of a Phastlane router's electrical side (buffers, drivers,
#: receiver amplifiers) — no crossbar or allocator logic, so well below the
#: electrical baseline's router leakage.
OPTICAL_ROUTER_LEAKAGE_MW = 3.0
#: Drop-signal payload: Packet Dropped bit + six-bit node id (section 2.1.2).
DROP_SIGNAL_BITS = 7
#: Receiver sensitivity: optical power that must reach each receiver.
RECEIVER_SENSITIVITY_UW = 10.0
#: Laser wall-plug efficiency (electrical power = optical power / efficiency).
LASER_EFFICIENCY = 0.3
#: Fraction of optical input power tapped by one broadcast resonator pair.
MULTICAST_TAP_FRACTION = 0.10
