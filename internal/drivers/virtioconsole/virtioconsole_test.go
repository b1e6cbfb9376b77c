package virtioconsole_test

import (
	"bytes"
	"testing"

	"fpgavirtio/internal/drivers/virtioconsole"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/vdev"
)

// upperHandler is console user logic that upper-cases ASCII input.
type upperHandler struct{}

func (upperHandler) HandleBytes(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		if b >= 'a' && b <= 'z' {
			b -= 32
		}
		out[i] = b
	}
	return out
}

func testbed(t *testing.T, handler vdev.ByteHandler) (*sim.Sim, *hostos.Host) {
	t.Helper()
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	h := hostos.New(s, 4<<20, cfg, 3)
	vdev.NewConsole(s, h.RC, "vcon", vdev.ConsoleOptions{Link: pcie.DefaultGen2x2(), Handler: handler})
	return s, h
}

func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	s.Go("test", func(p *sim.Proc) {
		defer s.Stop()
		fn(p)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test did not finish")
	}
}

func TestCustomUserLogic(t *testing.T) {
	s, h := testbed(t, upperHandler{})
	run(t, s, func(p *sim.Proc) {
		infos := h.RC.Enumerate(p)
		con, err := virtioconsole.Probe(p, h, infos[0])
		if err != nil {
			t.Error(err)
			return
		}
		if err := con.Write(p, []byte("hello FPGA")); err != nil {
			t.Error(err)
			return
		}
		got, err := con.Read(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, []byte("HELLO FPGA")) {
			t.Errorf("got %q", got)
		}
	})
}

func TestPipelinedWrites(t *testing.T) {
	s, h := testbed(t, nil) // default echo
	run(t, s, func(p *sim.Proc) {
		infos := h.RC.Enumerate(p)
		con, err := virtioconsole.Probe(p, h, infos[0])
		if err != nil {
			t.Error(err)
			return
		}
		msgs := []string{"one", "two", "three", "four", "five"}
		for _, m := range msgs {
			if err := con.Write(p, []byte(m)); err != nil {
				t.Error(err)
				return
			}
		}
		for _, m := range msgs {
			got, err := con.Read(p)
			if err != nil {
				t.Error(err)
				return
			}
			if string(got) != m {
				t.Errorf("got %q, want %q (ordering)", got, m)
			}
		}
	})
}

func TestOversizeWriteRejected(t *testing.T) {
	s, h := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		infos := h.RC.Enumerate(p)
		con, err := virtioconsole.Probe(p, h, infos[0])
		if err != nil {
			t.Error(err)
			return
		}
		if err := con.Write(p, make([]byte, 5000)); err == nil {
			t.Error("oversize write succeeded")
		}
	})
}
