package fpgavirtio

import (
	"bytes"
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
)

// TestDeferredKickDeadlockMiniature reproduces the deferred-kick
// deadlock in miniature: under TxKickBatch the doorbell for a lone
// packet stays batched, so send-then-receive without an intervening
// FlushTx parks every process — the exact pre-fix shape of pingOnce
// that the kickflush analyzer now flags statically (see
// internal/analysis/kickflush/testdata/kick/kick.go, badPing).
func TestDeferredKickDeadlockMiniature(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 64)

	open := func() *NetSession {
		ns, err := OpenNet(NetConfig{Config: Config{Seed: 11, Quiet: true}, TxKickBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}

	// Pre-fix shape: enqueue, then block on the reply. The device never
	// sees the packet, so the simulation deadlocks.
	ns := open()
	err := ns.run(func(p *sim.Proc) error {
		if err := ns.sock.SendTo(p, fpgaIP, echoPort, payload); err != nil {
			return err
		}
		_, _, _, err := ns.sock.RecvFrom(p)
		return err
	})
	if err == nil {
		t.Fatal("send-then-receive without FlushTx should deadlock under TxKickBatch")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected a deadlock error, got: %v", err)
	}

	// Fixed shape: flush the batched doorbell before blocking.
	ns = open()
	var echo []byte
	err = ns.run(func(p *sim.Proc) error {
		if err := ns.sock.SendTo(p, fpgaIP, echoPort, payload); err != nil {
			return err
		}
		ns.drv.FlushTx(p)
		got, _, _, err := ns.sock.RecvFrom(p)
		echo = got
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo mismatch after flush")
	}
}

// TestBurstFlushesBatchedTail pins the batched-tail flush: a stream
// whose window sends the whole burst at once, with the burst smaller
// than the kick batch, leaves every packet unkicked at the end of the
// send loop, and the drain loop would wait forever without the flush.
func TestBurstFlushesBatchedTail(t *testing.T) {
	ns, err := OpenNet(NetConfig{Config: Config{Seed: 12, Quiet: true}, TxKickBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ns.Stream(StreamConfig{Packets: 3, PayloadSize: 128, Window: 3})
	if err != nil {
		t.Fatalf("burst below the kick batch deadlocked: %v", err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("burst elapsed = %v", res.Elapsed)
	}
}

// TestXmitRingFullFlushesAndWakes pins the ring-full transmit fix: with
// the kick batch larger than the TX ring, the ring fills with chains
// the device has never been told about. The stalled Xmit must flush the
// batched doorbell and take a TX completion interrupt to make progress;
// before the fix this parked the transmitter forever.
func TestXmitRingFullFlushesAndWakes(t *testing.T) {
	ns, err := OpenNet(NetConfig{
		Config:      Config{Seed: 13, Quiet: true},
		QueueSize:   8,
		RXBuffers:   8,
		TxKickBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ns.Stream(StreamConfig{Packets: 10, PayloadSize: 64, Window: 10})
	if err != nil {
		t.Fatalf("burst past the TX ring size deadlocked: %v", err)
	}
	if res.Doorbells == 0 {
		t.Fatal("ring-full path rang no doorbell")
	}
}
