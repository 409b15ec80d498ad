// Package ni implements the aelite Network Interface (NI).
//
// The NI is where all intelligence of the GS-only network lives (the
// routers have none, by design):
//
//   - TDM injection: a slot table of the network-wide size regulates when
//     each connection may inject a flit (paper Section III). Slots are one
//     flit cycle (3 cycles) long.
//   - Packetisation: the first word of a packet is a header carrying the
//     source route, the destination queue id and piggybacked end-to-end
//     credits. A packet is extended into the next slot (header elision,
//     3 payload words instead of 2) only when the same connection owns
//     that next slot — otherwise the packet is closed with an
//     End-of-Packet marker so the routers' port-hold logic stays correct.
//     Used slots always carry whole 3-word flits (padded if necessary) so
//     mesochronous link FSMs can forward fixed-size flits.
//   - End-to-end flow control: credit-based. A sender holds credits equal
//     to the free space (in words) of the remote receive queue and blocks
//     when they run out, so receive queues can never overflow and an
//     oversubscribing application only slows itself down (paper Section
//     IV.A). The receiving IP drains at line rate, so a delivered word
//     frees its space at once; the NI models no receive buffer, only the
//     credits it owes. Credits are returned piggybacked in headers of the
//     paired reverse connection, or in credit-only packets when that
//     connection has no data of its own.
//   - GALS edge: IPs reach the NI through bi-synchronous FIFOs, so IP
//     clocks are unconstrained.
//
// Links: New attaches the NI to word wires, NewOnFlits to the flit links
// of a synchronous network without a fault reporter (see
// core.Config.FaultReporter). On flit links the NI drives its flit once
// per flit cycle and still receives word by word, at the instants a word
// link would give; faults and ownership probes only ever meet it on word
// links, while the auditor checks its SlotStart events on either.
//
// The receive side is self-describing (headers carry the queue id), so
// only injection needs slot knowledge — routers and receive paths are
// TDM-oblivious.
//
// Where ids are resolved: a connection id is looked up only where one
// arrives from outside — Offer and the accessors — by binary search over
// the NI's own few connections, kept in id order. Everything the per-flit
// and per-word paths follow is a pointer resolved earlier: the paired
// in-connection and the credited out-connection when the second of the two
// is added, the receive queue by the header's queue id in a slice, and the
// slot's owner and per-slot header in a per-slot cache that is trusted
// only while its owner still matches the live injection table (which
// reconfiguration, and tests, rewrite in place). No table is indexed by
// network-wide connection id.
//
// Reliable mode (SetReliable) wraps the port in the end-to-end
// reliability shell of package reliable: outgoing flits carry a
// sequence/CRC sideband and enter a go-back-N retransmission window,
// incoming phits pass the shell's CRC and ordering checks before normal
// receive processing, and the in-header credit scheme is replaced by
// cumulative acks piggybacked on the paired reverse connection. Header
// elision is disabled so every flit is self-contained and individually
// retransmittable; due retransmissions pre-empt fresh payload in the
// connection's own reserved slots, so recovery never consumes another
// connection's bandwidth.
package ni
