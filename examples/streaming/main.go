// Streaming: maintain Lp sketches of router traffic as updates arrive —
// the paper's tables are "generated at the rate of several terabytes a
// month", so waiting for a complete table before sketching is not always
// an option. A HashSketcher regenerates its randomness from a hash, so
// each stream needs only O(k) state: no random matrices, no stored table.
//
// Two links' (destination × time) traffic streams are sketched on the
// fly; their L1 distance and norms are estimated from 256-entry sketches
// and checked against the exact values (which the demo keeps around only
// for validation).
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	tabmine "repro"
)

func main() {
	const (
		destinations = 4096 // flattened (destination, time-bucket) domain
		updates      = 200_000
		sketchK      = 256
		p            = 1.0
	)
	sk, err := tabmine.NewHashSketcher(p, sketchK, destinations, 99)
	if err != nil {
		log.Fatal(err)
	}
	linkA := sk.NewStream()
	linkB := sk.NewStream()

	// Ground truth, kept only to validate the estimates below.
	exactA := make([]float64, destinations)
	exactB := make([]float64, destinations)

	rng := rand.New(rand.NewPCG(1, 2))
	lp := tabmine.MustP(p)
	fmt.Printf("sketching two traffic streams, %d updates each, k=%d, domain %d\n\n",
		updates, sketchK, destinations)
	fmt.Printf("%-10s %-14s %-14s %-10s\n", "updates", "est distance", "exact distance", "ratio")
	for step := 1; step <= updates; step++ {
		// Both links see zipf-ish destination popularity; link B has a
		// shifted hot set, so the streams drift apart over time.
		dA := rng.IntN(destinations/4) * 4
		dB := (rng.IntN(destinations/4)*4 + 1024) % destinations
		bytesA := 40 + rng.Float64()*1500
		bytesB := 40 + rng.Float64()*1500
		linkA.Update(dA, bytesA)
		linkB.Update(dB, bytesB)
		exactA[dA] += bytesA
		exactB[dB] += bytesB

		if step%(updates/5) == 0 {
			est := linkA.DistanceTo(linkB)
			exact := lp.Dist(exactA, exactB)
			fmt.Printf("%-10d %-14.0f %-14.0f %-10.3f\n", step, est, exact, est/exact)
		}
	}

	normA := linkA.NormEstimate()
	exactNormA := lp.Norm(exactA)
	fmt.Printf("\nlink A total traffic: estimated %.0f, exact %.0f (ratio %.3f)\n",
		normA, exactNormA, normA/exactNormA)
	fmt.Printf("stream state: 2 sketches × %d float64 = %d bytes (vs %d bytes of exact counters)\n",
		sketchK, 2*sketchK*8, 2*destinations*8)
}
