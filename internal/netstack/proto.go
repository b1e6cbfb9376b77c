// Package netstack implements the slice of the host networking stack
// the paper's VirtIO test path exercises: Ethernet framing, a static
// ARP cache and routing table (the paper adds those entries by hand),
// IPv4 and UDP with real checksums, and blocking UDP sockets layered
// on the host-OS cost model.
package netstack

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is an IPv4 address in network byte order.
type IPv4 uint32

// IP builds an address from dotted components.
func IP(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad notation.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherTypes.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// Protocol numbers.
const ProtoUDP = 17

// Header sizes.
const (
	EthHdrSize  = 14
	IPv4HdrSize = 20
	UDPHdrSize  = 8
	// HeaderOverhead is the total framing a UDP payload carries — the
	// figure the paper uses to equalize bytes-on-the-link between the
	// VirtIO (UDP) and XDMA (raw) tests.
	HeaderOverhead = EthHdrSize + IPv4HdrSize + UDPHdrSize
	// MinFrameSize is the minimum Ethernet frame (without FCS).
	MinFrameSize = 60
)

// Checksum computes the Internet checksum (RFC 1071) over b with an
// initial partial sum. It adds b as big-endian 32-bit words into a
// 64-bit sum and folds once at the end: each word is congruent to the
// sum of its two 16-bit halves modulo 0xffff (2^16 ≡ 1), and the sum is
// zero exactly when every 16-bit word is, so the folded result equals
// the byte-pair-at-a-time sum for every input.
func Checksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for ; len(b) >= 8; b = b[8:] {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xffffffff
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDPDatagram describes one UDP/IPv4/Ethernet packet.
type UDPDatagram struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Payload          []byte
}

// pseudoHeaderSum returns the partial checksum of the UDP pseudo header.
func pseudoHeaderSum(src, dst IPv4, udpLen int) uint32 {
	sum := uint32(src>>16) + uint32(src&0xffff)
	sum += uint32(dst>>16) + uint32(dst&0xffff)
	sum += ProtoUDP
	sum += uint32(udpLen)
	return sum
}

// EncodeFrameInto renders the datagram into buf, reallocating only when
// buf's capacity is too small, and returns the encoded frame. Callers
// on the per-packet path keep the returned slice as their scratch for
// the next encode so steady-state transmission does not allocate.
func (d UDPDatagram) EncodeFrameInto(buf []byte, computeUDPCsum bool) []byte {
	udpLen := UDPHdrSize + len(d.Payload)
	totLen := IPv4HdrSize + udpLen
	n := EthHdrSize + totLen
	if n < MinFrameSize {
		n = MinFrameSize
	}
	var f []byte
	if cap(buf) < n {
		f = make([]byte, n)
	} else {
		// The encoder only writes the fields it uses; clear stale bytes
		// so identification/padding/checksum fields start zeroed exactly
		// as with a fresh allocation.
		f = buf[:n]
		for i := range f {
			f[i] = 0
		}
	}
	copy(f[0:6], d.DstMAC[:])
	copy(f[6:12], d.SrcMAC[:])
	f[12] = EtherTypeIPv4 >> 8
	f[13] = EtherTypeIPv4 & 0xff

	ip := f[EthHdrSize:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[2] = byte(totLen >> 8)
	ip[3] = byte(totLen)
	ip[6] = 0x40 // don't fragment
	ip[8] = 64   // TTL
	ip[9] = ProtoUDP
	putIP := func(o int, a IPv4) {
		ip[o] = byte(a >> 24)
		ip[o+1] = byte(a >> 16)
		ip[o+2] = byte(a >> 8)
		ip[o+3] = byte(a)
	}
	putIP(12, d.SrcIP)
	putIP(16, d.DstIP)
	cs := Checksum(ip[:IPv4HdrSize], 0)
	ip[10] = byte(cs >> 8)
	ip[11] = byte(cs)

	udp := ip[IPv4HdrSize:]
	udp[0] = byte(d.SrcPort >> 8)
	udp[1] = byte(d.SrcPort)
	udp[2] = byte(d.DstPort >> 8)
	udp[3] = byte(d.DstPort)
	udp[4] = byte(udpLen >> 8)
	udp[5] = byte(udpLen)
	copy(udp[UDPHdrSize:], d.Payload)
	if computeUDPCsum {
		sum := Checksum(udp[:udpLen], pseudoHeaderSum(d.SrcIP, d.DstIP, udpLen))
		if sum == 0 {
			sum = 0xffff
		}
		udp[6] = byte(sum >> 8)
		udp[7] = byte(sum)
	}
	return f
}

// DecodeFrame parses an Ethernet frame into a UDPDatagram. It returns
// an error for anything that is not UDP-over-IPv4 or is malformed.
func DecodeFrame(f []byte) (UDPDatagram, error) {
	var d UDPDatagram
	if len(f) < EthHdrSize+IPv4HdrSize+UDPHdrSize {
		return d, fmt.Errorf("netstack: frame too short: %d bytes", len(f))
	}
	copy(d.DstMAC[:], f[0:6])
	copy(d.SrcMAC[:], f[6:12])
	if et := uint16(f[12])<<8 | uint16(f[13]); et != EtherTypeIPv4 {
		return d, fmt.Errorf("netstack: not IPv4: ethertype %#x", et)
	}
	ip := f[EthHdrSize:]
	if ip[0] != 0x45 {
		return d, fmt.Errorf("netstack: unsupported IP version/IHL %#x", ip[0])
	}
	totLen := int(ip[2])<<8 | int(ip[3])
	if totLen < IPv4HdrSize+UDPHdrSize || totLen > len(ip) {
		return d, fmt.Errorf("netstack: bad IP total length %d", totLen)
	}
	if ip[9] != ProtoUDP {
		return d, fmt.Errorf("netstack: not UDP: proto %d", ip[9])
	}
	getIP := func(o int) IPv4 {
		return IPv4(uint32(ip[o])<<24 | uint32(ip[o+1])<<16 | uint32(ip[o+2])<<8 | uint32(ip[o+3]))
	}
	d.SrcIP = getIP(12)
	d.DstIP = getIP(16)
	udp := ip[IPv4HdrSize:totLen]
	d.SrcPort = uint16(udp[0])<<8 | uint16(udp[1])
	d.DstPort = uint16(udp[2])<<8 | uint16(udp[3])
	udpLen := int(udp[4])<<8 | int(udp[5])
	if udpLen < UDPHdrSize || udpLen > len(udp) {
		return d, fmt.Errorf("netstack: bad UDP length %d", udpLen)
	}
	d.Payload = udp[UDPHdrSize:udpLen]
	return d, nil
}

// VerifyIPChecksum reports whether the IPv4 header checksum is valid.
func VerifyIPChecksum(f []byte) bool {
	if len(f) < EthHdrSize+IPv4HdrSize {
		return false
	}
	return Checksum(f[EthHdrSize:EthHdrSize+IPv4HdrSize], 0) == 0
}

// VerifyUDPChecksum reports whether the UDP checksum is valid (a zero
// checksum field means "not computed" and passes, per RFC 768).
func VerifyUDPChecksum(f []byte) bool {
	d, err := DecodeFrame(f)
	if err != nil {
		return false
	}
	udpStart := EthHdrSize + IPv4HdrSize
	udpLen := UDPHdrSize + len(d.Payload)
	udp := f[udpStart : udpStart+udpLen]
	if udp[6] == 0 && udp[7] == 0 {
		return true
	}
	return Checksum(udp, pseudoHeaderSum(d.SrcIP, d.DstIP, udpLen)) == 0
}

// FillUDPChecksum computes and stores the UDP checksum in place — the
// operation a checksum-offloading NIC performs on behalf of the host.
func FillUDPChecksum(f []byte) error {
	d, err := DecodeFrame(f)
	if err != nil {
		return err
	}
	udpStart := EthHdrSize + IPv4HdrSize
	udpLen := UDPHdrSize + len(d.Payload)
	udp := f[udpStart : udpStart+udpLen]
	udp[6], udp[7] = 0, 0
	sum := Checksum(udp, pseudoHeaderSum(d.SrcIP, d.DstIP, udpLen))
	if sum == 0 {
		sum = 0xffff
	}
	udp[6] = byte(sum >> 8)
	udp[7] = byte(sum)
	return nil
}

// BuildEchoResponseInto transforms a received UDP frame into its echo
// reply: swap MACs, IPs and ports, keep the payload, recompute
// checksums. This is what the paper's FPGA user logic does ("the user
// logic on the FPGA responds with a UDP packet of the same size"). The
// reply renders into buf's capacity (which must not alias f),
// reallocating only on growth.
func BuildEchoResponseInto(f, buf []byte) ([]byte, error) {
	d, err := DecodeFrame(f)
	if err != nil {
		return nil, err
	}
	resp := UDPDatagram{
		SrcMAC: d.DstMAC, DstMAC: d.SrcMAC,
		SrcIP: d.DstIP, DstIP: d.SrcIP,
		SrcPort: d.DstPort, DstPort: d.SrcPort,
		Payload: d.Payload,
	}
	return resp.EncodeFrameInto(buf, true), nil
}
