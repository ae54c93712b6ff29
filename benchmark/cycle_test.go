package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/table"
)

// cycleBytes is the wire form of a cycle.
func cycleBytes(reqs []*request) []byte {
	var buf bytes.Buffer
	for _, rq := range reqs {
		fmt.Fprintf(&buf, "%s %s\n%s\n", rq.method, rq.path, rq.body)
	}
	return buf.Bytes()
}

func TestCycleIsAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a := cycleBytes(buildCycle(sp, fullSize, 7))
		b := cycleBytes(buildCycle(sp, fullSize, 7))
		c := cycleBytes(buildCycle(sp, fullSize, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different cycle", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seed, same cycle", sp.name)
		}
	}
}

func TestCycleFollowsTheMix(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		reqs := buildCycle(sp, fullSize, 1)
		if len(reqs) != sp.cycle {
			t.Errorf("%s: %d requests, want %d (shares must round to the cycle length)", sp.name, len(reqs), sp.cycle)
		}
		byLabel := map[string]int{}
		headline := false
		for _, rq := range reqs {
			byLabel[rq.label]++
			headline = headline || rq.label == sp.headline
			for _, it := range rq.items {
				rects := []table.Rect{it.q}
				if rq.op == "distance" {
					rects = []table.Rect{it.a, it.b}
				}
				for _, r := range rects {
					if !r.In(fullSize.rows, fullSize.cols) {
						t.Fatalf("%s: rectangle %v outside the table", sp.name, r)
					}
				}
			}
		}
		if !headline {
			t.Errorf("%s: headline op %q is not in the cycle", sp.name, sp.headline)
		}
		var share float64
		for _, m := range sp.mix {
			share += m.share
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("%s: mix shares sum to %v", sp.name, share)
		}
		t.Logf("%s: %v", sp.name, byLabel)
	}
}
