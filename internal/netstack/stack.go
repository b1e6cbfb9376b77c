package netstack

import (
	"fmt"

	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Costs prices the stack-traversal work per packet. Defaults are
// calibrated to a modern kernel's UDP fast path.
type Costs struct {
	SocketSend    sim.Duration // sock_sendmsg entry + fd lookup
	UDPLayerTx    sim.Duration // udp_sendmsg header work
	IPLayerTx     sim.Duration // ip_make_skb, header + route cache hit
	RouteLookup   sim.Duration
	NeighLookup   sim.Duration // ARP cache hit
	DevXmit       sim.Duration // dev_queue_xmit, qdisc bypass
	NetifReceive  sim.Duration // netif_receive_skb
	IPLayerRx     sim.Duration
	UDPLayerRx    sim.Duration
	SocketDeliver sim.Duration // socket lookup + queue
	CsumPerByte   sim.Duration // software checksum cost
	SkbAlloc      sim.Duration // buffer allocation per packet
}

// DefaultCosts returns the calibrated stack costs.
func DefaultCosts() Costs {
	return Costs{
		SocketSend:    sim.Ns(600),
		UDPLayerTx:    sim.Ns(300),
		IPLayerTx:     sim.Ns(350),
		RouteLookup:   sim.Ns(200),
		NeighLookup:   sim.Ns(120),
		DevXmit:       sim.Ns(350),
		NetifReceive:  sim.Ns(350),
		IPLayerRx:     sim.Ns(300),
		UDPLayerRx:    sim.Ns(280),
		SocketDeliver: sim.Ns(250),
		CsumPerByte:   sim.Picosecond * 300, // ~3.3 GB/s software csum
		SkbAlloc:      sim.Ns(180),
	}
}

// TxPacket is a frame handed to a NIC driver, with checksum-offload
// metadata (the skb->ip_summed contract).
type TxPacket struct {
	Frame []byte
	// NeedsCsum asks the device to compute the L4 checksum over
	// Frame[CsumStart:] and store it at CsumStart+CsumOffset.
	NeedsCsum  bool
	CsumStart  int
	CsumOffset int
}

// RxPacket is a frame delivered by a NIC driver to the stack.
type RxPacket struct {
	Frame []byte
	// CsumValid reports the device already verified the L4 checksum
	// (VIRTIO_NET_HDR_F_DATA_VALID), letting the stack skip it.
	CsumValid bool
}

// Offloads describes a NIC's checksum capabilities as negotiated.
type Offloads struct {
	TxCsum bool
	RxCsum bool
}

// NIC is the driver surface the stack transmits through.
type NIC interface {
	Name() string
	MAC() MAC
	Offloads() Offloads
	// Xmit queues one frame; it blocks the caller only for the
	// driver's own TX-path work (never for the wire).
	Xmit(p *sim.Proc, pkt TxPacket) error
}

// iface is one configured network interface.
type iface struct {
	nic NIC
	ip  IPv4
}

type route struct {
	dst  IPv4
	mask IPv4
	nic  string
}

// Stack is a host network stack instance.
type Stack struct {
	host   *hostos.Host
	costs  Costs
	ifaces map[string]*iface
	routes []route
	arp    map[IPv4]MAC
	socks  map[uint16]*UDPSocket

	met stackMetrics
}

type stackMetrics struct {
	txPackets, rxPackets *telemetry.Counter
	rxDropped            *telemetry.Counter
	arpHits, arpMisses   *telemetry.Counter
	csumBytes            *telemetry.Counter
}

// New returns an empty stack bound to the host cost model.
func New(h *hostos.Host, costs Costs) *Stack {
	reg := h.Metrics()
	return &Stack{
		host:   h,
		costs:  costs,
		ifaces: make(map[string]*iface),
		arp:    make(map[IPv4]MAC),
		socks:  make(map[uint16]*UDPSocket),
		met: stackMetrics{
			txPackets: reg.Counter(telemetry.MetricNetstackTxPackets),
			rxPackets: reg.Counter(telemetry.MetricNetstackRxPackets),
			rxDropped: reg.Counter(telemetry.MetricNetstackRxDropped),
			arpHits:   reg.Counter(telemetry.MetricNetstackARPHits),
			arpMisses: reg.Counter(telemetry.MetricNetstackARPMisses),
			csumBytes: reg.Counter(telemetry.MetricNetstackCsumBytes),
		},
	}
}

// AddInterface configures a NIC with an address (ip addr add).
func (st *Stack) AddInterface(nic NIC, ip IPv4) {
	st.ifaces[nic.Name()] = &iface{nic: nic, ip: ip}
}

// AddRoute installs a static route (ip route add dst/mask dev nic).
func (st *Stack) AddRoute(dst, mask IPv4, nicName string) {
	st.routes = append(st.routes, route{dst: dst, mask: mask, nic: nicName})
}

// AddARP installs a static neighbour entry (arp -s), as the paper's
// test setup does to route packets to the FPGA.
func (st *Stack) AddARP(ip IPv4, mac MAC) { st.arp[ip] = mac }

func (st *Stack) lookupRoute(dst IPv4) (*iface, error) {
	var best *route
	for i := range st.routes {
		r := &st.routes[i]
		if dst&r.mask == r.dst&r.mask {
			if best == nil || r.mask > best.mask {
				best = r
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("netstack: no route to %v", dst)
	}
	ifc, ok := st.ifaces[best.nic]
	if !ok {
		return nil, fmt.Errorf("netstack: route device %q not configured", best.nic)
	}
	return ifc, nil
}

// UDPSocket is a blocking datagram socket.
//
//fvlint:hotpath
type UDPSocket struct {
	stack *Stack
	port  uint16
	queue []recvItem
	head  int // index of the next datagram to pop from queue
	wq    *hostos.WaitQueue

	txScratch []byte   // reused frame-encode buffer for SendTo
	pool      [][]byte // recycled receive-payload buffers (see Recycle)
}

type recvItem struct {
	payload []byte
	from    IPv4
	port    uint16
}

// Bind allocates a socket on the given local UDP port.
func (st *Stack) Bind(port uint16) (*UDPSocket, error) {
	if _, busy := st.socks[port]; busy {
		return nil, fmt.Errorf("netstack: port %d in use", port)
	}
	s := &UDPSocket{stack: st, port: port, wq: st.host.NewWaitQueue(fmt.Sprintf("udp:%d", port))}
	st.socks[port] = s
	return s, nil
}

// Close releases the socket's port.
func (s *UDPSocket) Close() { delete(s.stack.socks, s.port) }

// SendTo runs the sendto(2) fast path: syscall boundary, socket/UDP/IP
// layers, route+neighbour lookup, checksum (unless the NIC offloads
// it), then the driver's transmit op.
func (s *UDPSocket) SendTo(p *sim.Proc, dst IPv4, dstPort uint16, payload []byte) error {
	st, h, c := s.stack, s.stack.host, s.stack.costs
	h.SyscallEnter(p)
	h.CPUWork(p, c.SocketSend)
	h.CPUWork(p, c.RouteLookup)
	ifc, err := st.lookupRoute(dst)
	if err != nil {
		h.SyscallExit(p)
		return err
	}
	h.CPUWork(p, c.NeighLookup)
	dstMAC, ok := st.arp[dst]
	if !ok {
		st.met.arpMisses.Inc()
		h.SyscallExit(p)
		return fmt.Errorf("netstack: no ARP entry for %v", dst)
	}
	st.met.arpHits.Inc()
	h.CPUWork(p, c.SkbAlloc)
	h.Copy(p, len(payload)) // copy_from_user into the skb
	h.CPUWork(p, c.UDPLayerTx+c.IPLayerTx)

	off := ifc.nic.Offloads()
	d := UDPDatagram{
		SrcMAC: ifc.nic.MAC(), DstMAC: dstMAC,
		SrcIP: ifc.ip, DstIP: dst,
		SrcPort: s.port, DstPort: dstPort,
		Payload: payload,
	}
	frame := d.EncodeFrameInto(s.txScratch, !off.TxCsum)
	s.txScratch = frame
	if !off.TxCsum {
		st.met.csumBytes.Add(int64(UDPHdrSize + len(payload)))
		h.CPUWork(p, sim.Duration(UDPHdrSize+len(payload))*c.CsumPerByte)
	}
	h.CPUWork(p, c.DevXmit)
	pkt := TxPacket{Frame: frame}
	if off.TxCsum {
		pkt.NeedsCsum = true
		pkt.CsumStart = EthHdrSize + IPv4HdrSize
		pkt.CsumOffset = 6
	}
	err = ifc.nic.Xmit(p, pkt)
	if err == nil {
		st.met.txPackets.Inc()
	}
	h.SyscallExit(p)
	return err
}

// RecvFrom blocks until a datagram arrives on the socket, then copies
// it out (recvfrom(2)). The returned payload is caller-owned; callers
// on the per-packet path hand it back with Recycle once done.
func (s *UDPSocket) RecvFrom(p *sim.Proc) (payload []byte, from IPv4, fromPort uint16, err error) {
	h := s.stack.host
	h.SyscallEnter(p)
	for s.Pending() == 0 {
		s.wq.Wait(p)
	}
	return s.pop(p)
}

// RecvFromPolled is RecvFrom's busy-poll variant (the SO_BUSY_POLL
// shape): when nothing is queued the socket never parks on its wait
// queue — it invokes poll, which spins on the device's completion
// state and delivers frames inline via Input from this process's
// context. IRQ dispatch, softirq scheduling and the scheduler wake
// latency (with its tails) never appear on this path.
func (s *UDPSocket) RecvFromPolled(p *sim.Proc, poll func(p *sim.Proc)) (payload []byte, from IPv4, fromPort uint16, err error) {
	h := s.stack.host
	h.SyscallEnter(p)
	for s.Pending() == 0 {
		poll(p)
	}
	return s.pop(p)
}

// pop dequeues the head datagram and completes the syscall.
func (s *UDPSocket) pop(p *sim.Proc) (payload []byte, from IPv4, fromPort uint16, err error) {
	h := s.stack.host
	item := s.queue[s.head]
	s.queue[s.head] = recvItem{}
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	h.Copy(p, len(item.payload)) // copy_to_user
	h.SyscallExit(p)
	return item.payload, item.from, item.port, nil
}

// Pending reports queued datagrams (poll(2) without blocking).
func (s *UDPSocket) Pending() int { return len(s.queue) - s.head }

// Recycle returns a payload buffer obtained from RecvFrom to the
// socket's receive pool, letting Input reuse it for a later datagram
// instead of allocating. Callers must not touch buf afterwards.
func (s *UDPSocket) Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	s.pool = append(s.pool, buf)
}

// Input is the receive path drivers call from softirq context: parse,
// verify, demultiplex, wake. Frames that are not for a bound socket
// are counted and dropped. It charges the segments PlanInput lists and
// then applies the plan.
func (st *Stack) Input(p *sim.Proc, rx RxPacket) error {
	var pl RxPlan
	st.PlanInput(rx, &pl)
	for _, d := range pl.Segments() {
		st.host.CPUWork(p, d)
	}
	return st.ApplyInput(&pl)
}

// RxPlan is one received frame's trip up the stack, split for a step
// machine: PlanInput decodes and verifies the frame and lists the CPU
// segments the trip charges, in order; ApplyInput applies its outcome
// once they have run. The plan refers into the frame, which must stay
// unchanged until ApplyInput.
type RxPlan struct {
	segs [5]sim.Duration
	n    int
	csum int // software-checksummed bytes
	err  error
	sock *UDPSocket
	d    UDPDatagram
}

// Segments lists the plan's CPU segments in charge order.
func (pl *RxPlan) Segments() []sim.Duration { return pl.segs[:pl.n] }

func (pl *RxPlan) charge(d sim.Duration) {
	pl.segs[pl.n] = d
	pl.n++
}

// PlanInput plans Input for rx without side effects: each layer's
// cost, up to the layer that drops the frame or, for a frame a bound
// socket takes, through socket delivery.
func (st *Stack) PlanInput(rx RxPacket, pl *RxPlan) {
	c := st.costs
	*pl = RxPlan{}
	pl.charge(c.NetifReceive)
	d, err := DecodeFrame(rx.Frame)
	if err != nil {
		pl.err = err
		return
	}
	pl.charge(c.IPLayerRx)
	if !VerifyIPChecksum(rx.Frame) {
		pl.err = fmt.Errorf("netstack: bad IP checksum")
		return
	}
	pl.charge(c.UDPLayerRx)
	if !rx.CsumValid {
		pl.csum = UDPHdrSize + len(d.Payload)
		pl.charge(sim.Duration(pl.csum) * c.CsumPerByte)
		if !VerifyUDPChecksum(rx.Frame) {
			pl.err = fmt.Errorf("netstack: bad UDP checksum")
			return
		}
	}
	sock, ok := st.socks[d.DstPort]
	if !ok {
		pl.err = fmt.Errorf("netstack: no socket on port %d", d.DstPort)
		return
	}
	pl.charge(c.SocketDeliver)
	pl.sock, pl.d = sock, d
}

// ApplyInput applies a plan whose segments have been charged: it counts
// the frame and either drops it, returning why, or queues its payload
// on the socket and wakes the socket's readers.
func (st *Stack) ApplyInput(pl *RxPlan) error {
	if pl.csum != 0 {
		st.met.csumBytes.Add(int64(pl.csum))
	}
	if pl.err != nil {
		st.met.rxDropped.Inc()
		return pl.err
	}
	st.met.rxPackets.Inc()
	sock, d := pl.sock, &pl.d
	var pay []byte
	if n := len(sock.pool); n > 0 && cap(sock.pool[n-1]) >= len(d.Payload) {
		pay = sock.pool[n-1][:len(d.Payload)]
		sock.pool[n-1] = nil
		sock.pool = sock.pool[:n-1]
	} else {
		pay = make([]byte, len(d.Payload))
	}
	copy(pay, d.Payload)
	sock.queue = append(sock.queue, recvItem{payload: pay, from: d.SrcIP, port: d.SrcPort})
	sock.wq.Wake()
	return nil
}
