// Package phit defines the data units of the aelite network on chip.
//
// Terminology follows the paper (Hansson et al., DATE 2009):
//
//   - a word, or physical digit (phit), is what a link transfers per cycle;
//   - a flit (flow control digit) is the unit of TDM arbitration and is
//     FlitWords words long (3 throughout the paper);
//   - a packet is a header word followed by payload words, terminated by an
//     End-of-Packet (EoP) marker. In aelite the valid and EoP bits are
//     explicit sideband control signals, not encoded in the data word,
//     which keeps the Header Parsing Unit off the critical path.
//
// The package also implements the bit-exact header codec: the source route
// (a sequence of output-port indices), the destination queue id and the
// piggybacked end-to-end flow-control credits are packed into the first
// word of a packet.
//
// Cross-package contract: HeaderLayout is the single source of truth for
// header packing. NIs encode with it, router Header Parsing Units shift
// with NextPort, and core.routeConnections rejects candidate routes longer
// than MaxHops(). DefaultLayout is the paper's 32-bit instance;
// WideLayout is the 64-bit scaled-up instance large-mesh studies use.
package phit
