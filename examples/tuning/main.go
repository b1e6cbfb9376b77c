// Tuning: the negotiation knobs beyond the paper's baseline device —
// packed virtqueues, EVENT_IDX suppression and host-OS profiles — and
// what each buys on the simulated testbed. Run with:
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"time"

	fpgavirtio "fpgavirtio"
)

func meanPing(cfg fpgavirtio.NetConfig, iters int) (total, hw time.Duration) {
	session, err := fpgavirtio.OpenNet(cfg)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 256)
	for i := 0; i < iters; i++ {
		s, err := session.PingDetailed(buf)
		if err != nil {
			log.Fatal(err)
		}
		total += s.Total
		hw += s.Hardware
	}
	return total / time.Duration(iters), hw / time.Duration(iters)
}

func main() {
	const iters = 300
	base := fpgavirtio.Config{Seed: 21}

	fmt.Println("== virtqueue format (256 B echo) ==")
	st, sh := meanPing(fpgavirtio.NetConfig{Config: base}, iters)
	pt, ph := meanPing(fpgavirtio.NetConfig{Config: base, UsePackedRing: true}, iters)
	fmt.Printf("split ring:  total %v, device hardware %v\n", st, sh)
	fmt.Printf("packed ring: total %v, device hardware %v\n", pt, ph)
	fmt.Printf("packed saves %v of bus round trips per packet\n\n", sh-ph)

	fmt.Println("== EVENT_IDX under a 64-packet burst ==")
	flags, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: base})
	if err != nil {
		log.Fatal(err)
	}
	burst := fpgavirtio.StreamConfig{Packets: 64, PayloadSize: 256, Window: 64}
	fRes, err := flags.Stream(burst)
	if err != nil {
		log.Fatal(err)
	}
	evidx, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: base, UseEventIdx: true})
	if err != nil {
		log.Fatal(err)
	}
	eRes, err := evidx.Stream(burst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flags:     %3d doorbells, %3d interrupts\n", fRes.Doorbells, fRes.Interrupts)
	fmt.Printf("EVENT_IDX: %3d doorbells, %3d interrupts\n\n", eRes.Doorbells, eRes.Interrupts)

	fmt.Println("== host OS profiles (256 B echo over 300 pings) ==")
	for _, prof := range []fpgavirtio.HostProfile{
		fpgavirtio.DesktopHost, fpgavirtio.ServerHost, fpgavirtio.RTHost,
	} {
		cfg := base
		cfg.Host = prof
		var worst time.Duration
		session, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		var sum time.Duration
		for i := 0; i < iters; i++ {
			_, rtt, err := session.Ping(make([]byte, 256))
			if err != nil {
				log.Fatal(err)
			}
			sum += rtt
			if rtt > worst {
				worst = rtt
			}
		}
		fmt.Printf("%-10s mean %v, worst-of-%d %v\n", prof, sum/iters, iters, worst)
	}
}
