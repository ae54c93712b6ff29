// Chaos drills: shards fail and recover mid-traffic, and the
// coordinator must never be WRONG without saying so. The invariant
// under test everywhere: a 200 without a partial tag matches the
// unsharded reference, a 200 with one names the missing columns, and
// everything else is a clean 503/504 — there is no fourth outcome.
package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wiretest"
)

func waitState(t *testing.T, f *fleet, shard int, want State) {
	t.Helper()
	waitStateURL(t, f.coord, f.shards[shard].url(), want)
}

// waitStateURL polls for an endpoint (by URL) to reach the wanted
// state, re-resolving through memberSnapshot each round so it stays
// correct while register/deregister mutates the fleet under it.
func waitStateURL(t *testing.T, c *Coordinator, url string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got State
		found := false
		for _, ep := range c.memberSnapshot() {
			if ep.url == url {
				got, found = ep.currentState(), true
				break
			}
		}
		if found && got == want {
			return
		}
		if time.Now().After(deadline) {
			if !found {
				t.Fatalf("endpoint %s not in fleet, want %v", url, want)
			}
			t.Fatalf("endpoint %s stuck in %v, want %v", url, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChaosPartialAnswers(t *testing.T) {
	f := newFleet(t, Config{}, false)
	f.shards[2].down.Store(true) // cols 64..96 gone
	waitState(t, f, 2, StateDead)

	// Nearest for a shard-0 tile: the reachable shards answer, honestly
	// tagged with the columns that are missing from the scan.
	q := tileRect(0)
	path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(q))
	code, _, body := wiretest.Get(t, f.ts.URL+path)
	if code != 200 {
		t.Fatalf("partial nearest: %d (%s)", code, body)
	}
	var res NearestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if !res.Partial || !res.Degraded || res.Reason != ReasonPartial ||
		len(res.Missing) != 1 || res.Missing[0] != "64-96" {
		t.Errorf("partial tags: %s", body)
	}
	if res.Tile >= 48 || res.Tile < 0 {
		t.Errorf("merged tile %d out of grid", res.Tile)
	}
	// The merged best over shards 0+1 can only be >= the full argmin.
	var ref server.NearestResult
	_, _, refBody := wiretest.Get(t, f.ref.URL+path)
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatalf("ref: %v", err)
	}
	if res.Distance < ref.Distance && !closeEnough(res.Distance, ref.Distance) {
		t.Errorf("partial distance %v below full argmin %v", res.Distance, ref.Distance)
	}

	// partial=deny turns the same gap into a clean 503 + Retry-After.
	code, hdr, body := wiretest.Get(t, f.ts.URL+path+"&partial=deny")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("partial=deny: status %d, Retry-After %q (%s)", code, hdr.Get("Retry-After"), body)
	}

	// A query OWNED by the dead shard has no sketch to fan out: always
	// 503, never a guess.
	owned := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(8))) // col 64
	code, hdr, body = wiretest.Get(t, f.ts.URL+owned)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("dead owner: status %d (%s)", code, body)
	}

	// A distance operand on the dead shard leaves nothing to compare: 503
	// even under partial=allow, and in a batch an error item, never a
	// partial answer.
	item := server.BatchItem{A: server.FormatRect(tileRect(8)), B: server.FormatRect(tileRect(0))}
	hopeless := fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=sketch&partial=allow", item.A, item.B)
	code, hdr, body = wiretest.Get(t, f.ts.URL+hopeless)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("distance with a dead operand owner: %d (%s)", code, body)
	}
	br := postBatch(t, f.ts.URL, "distance", url.Values{"mode": {server.ModeSketch}, "partial": {"allow"}}, []server.BatchItem{item})
	if want := bytes.TrimSuffix(body, []byte("\n")); br.Failed != 1 || !bytes.Equal(br.Items[0], want) {
		t.Errorf("batch item with a dead operand owner: %s (failed %d), want %s", br.Items[0], br.Failed, want)
	}
}

// TestChaosNeverUnflaggedWrong hammers the fleet while shards flap: no
// 200 may disagree with the reference unless it carries a partial tag.
func TestChaosNeverUnflaggedWrong(t *testing.T) {
	f := newFleet(t, Config{}, false)

	refs := make([]server.NearestResult, 48)
	for i := range refs {
		_, _, body := wiretest.Get(t, f.ref.URL+fmt.Sprintf("/v1/nearest?q=%s&mode=sketch",
			server.FormatRect(tileRect(i))))
		if err := json.Unmarshal(body, &refs[i]); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}

	var served, partials, unavailable int
	check := func(i int) {
		t.Helper()
		idx := i % 48
		code, _, body := wiretest.Get(t, f.ts.URL+fmt.Sprintf("/v1/nearest?q=%s&mode=sketch",
			server.FormatRect(tileRect(idx))))
		switch code {
		case 200:
			var res NearestResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("query %d: bad JSON %s", i, body)
			}
			if res.Partial {
				partials++
				if len(res.Missing) == 0 {
					t.Errorf("query %d: partial without missing_cols: %s", i, body)
				}
				return
			}
			served++
			ref := refs[idx]
			if res.Tile != ref.Tile || res.Rect != ref.Rect || !closeEnough(res.Distance, ref.Distance) {
				t.Errorf("query %d: UNFLAGGED WRONG answer\n  ref   %+v\n  coord %s", i, ref, body)
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			unavailable++
		default:
			t.Errorf("query %d: unexpected status %d (%s)", i, code, body)
		}
	}

	allHealthy := func() {
		t.Helper()
		for s := range f.shards {
			f.shards[s].down.Store(false)
		}
		for s := range f.shards {
			waitState(t, f, s, StateHealthy)
		}
	}

	// Phase 1: healthy fleet, every answer clean and reference-equal.
	i := 0
	for ; i < 16; i++ {
		check(i)
	}
	cleanBaseline := served
	// Phase 2: kill shard 1 mid-stream and hammer straight through the
	// ejection window — pre-ejection passive failures and post-ejection
	// routing both land here.
	f.shards[1].down.Store(true)
	for ; i < 40; i++ {
		check(i)
	}
	// Phase 3: revive, wait for probation re-admission, back to clean.
	allHealthy()
	for ; i < 56; i++ {
		check(i)
	}
	// Phase 4: flap a different shard without waiting for ejection.
	f.shards[2].down.Store(true)
	for ; i < 72; i++ {
		if i == 64 {
			f.shards[2].down.Store(false)
			f.shards[0].down.Store(true)
		}
		check(i)
	}
	allHealthy()
	for ; i < 88; i++ {
		check(i)
	}

	t.Logf("served=%d partial=%d unavailable=%d", served, partials, unavailable)
	if cleanBaseline != 16 {
		t.Errorf("healthy phase served %d/16 clean", cleanBaseline)
	}
	if served < 32 {
		t.Errorf("only %d clean serves across healthy phases", served)
	}
}

// TestChaosRecovery: a dead shard that comes back re-enters through
// probation and the fleet converges back to clean, full answers.
func TestChaosRecovery(t *testing.T) {
	f := newFleet(t, Config{}, false)
	q := tileRect(4) // col 32: owned by shard 1
	path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(q))

	f.shards[1].down.Store(true)
	waitState(t, f, 1, StateDead)
	if f.coord.Ready() {
		t.Error("Ready() with a dead range")
	}
	if code, _, body := wiretest.Get(t, f.ts.URL+path); code != http.StatusServiceUnavailable {
		t.Errorf("dead owner answered %d (%s)", code, body)
	}

	f.shards[1].down.Store(false)
	waitState(t, f, 1, StateProbation)
	waitState(t, f, 1, StateHealthy)
	if !f.coord.Ready() {
		t.Error("Ready() false after recovery")
	}

	code, _, body := wiretest.Get(t, f.ts.URL+path)
	if code != 200 {
		t.Fatalf("post-recovery: %d (%s)", code, body)
	}
	var res NearestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if res.Partial {
		t.Errorf("post-recovery answer still partial: %s", body)
	}
	var ref server.NearestResult
	_, _, refBody := wiretest.Get(t, f.ref.URL+path)
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatalf("ref: %v", err)
	}
	if res.Tile != ref.Tile || !closeEnough(res.Distance, ref.Distance) {
		t.Errorf("post-recovery mismatch: ref %+v, coord %s", ref, body)
	}
}

// TestReplicaFailover: with shard 0 served by two endpoints, killing
// one keeps answers clean — replica groups absorb single failures
// without so much as a partial tag.
func TestReplicaFailover(t *testing.T) {
	f := newFleet(t, Config{}, true)
	// shards[0] and shards[1] both serve cols 0..32.
	f.shards[0].down.Store(true)
	waitState(t, f, 0, StateDead)
	if !f.coord.Ready() {
		t.Error("Ready() false with a surviving replica")
	}

	path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(0)))
	for i := 0; i < 4; i++ {
		code, _, body := wiretest.Get(t, f.ts.URL+path)
		if code != 200 {
			t.Fatalf("replica failover: %d (%s)", code, body)
		}
		var res NearestResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad JSON %s: %v", body, err)
		}
		if res.Partial {
			t.Errorf("replica failover answered partial: %s", body)
		}
	}
}
