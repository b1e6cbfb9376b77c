package main

import "math/rand/v2"

// sizeCycle is the payload-size cycle of the round-trip workloads: the
// paper's Fig. 3 / Table I sweep points.
var sizeCycle = []int{64, 128, 256, 512, 1024}

// plan is the seeded input of one round: the payload of every batch
// and the spot-check payloads echoed after the timed batches. Every
// round of a run replays the same plan.
type plan struct {
	payloads [][]byte
	checks   [][]byte
}

// genPlan draws a round's inputs from seed. Batch payload sizes walk
// sizeCycle in a freshly shuffled order per cycle, so every run covers
// each size equally often while the order depends on the seed; when
// fixed is non-zero every batch uses that size instead. Payload bytes
// and the check payloads are random.
func genPlan(seed uint64, batches, checks, fixed int) plan {
	rng := rand.New(rand.NewPCG(seed, 0x70657266_62656e63))
	order := append([]int(nil), sizeCycle...)
	p := plan{payloads: make([][]byte, batches), checks: make([][]byte, checks)}
	for i := range p.payloads {
		size := fixed
		if size == 0 {
			if i%len(order) == 0 {
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			}
			size = order[i%len(order)]
		}
		p.payloads[i] = randBytes(rng, size)
	}
	for i := range p.checks {
		size := fixed
		if size == 0 {
			size = sizeCycle[rng.IntN(len(sizeCycle))]
		}
		p.checks[i] = randBytes(rng, size)
	}
	return p
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}
