// The handoff chaos drill: migrate column bands between shard
// processes — planned (register replacement, drain, deregister) and
// unplanned (SIGKILL-style severed connections, modeled with
// faultinject.Breaker) — under live mixed replay traffic plus a
// concurrent ingest pusher, and prove the PR-8 contract held the whole
// time: every answer reference-equal, tagged partial, or a clean
// 503/504; epochs monotone; every acknowledged ingest durably present.
package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/server/wiretest"
)

func TestHandoffDrillUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second drill")
	}
	var (
		transMu sync.Mutex
		trans   = map[string][]string{} // endpoint URL -> transitions
	)
	ings := []*recIngestor{{}, {}, {}}
	f := newFleetSrv(t, Config{
		OnStateChange: func(ep string, from, to State) {
			transMu.Lock()
			trans[ep] = append(trans[ep], fmt.Sprintf("%v->%v", from, to))
			transMu.Unlock()
		},
	}, false, func(i int) server.Config {
		return server.Config{Ingestor: ings[i]}
	})

	refs := make([]server.NearestResult, 48)
	for i := range refs {
		refs[i] = mustNearest(t, f.ref.URL+fmt.Sprintf("/v1/nearest?q=%s&mode=sketch",
			server.FormatRect(tileRect(i))))
	}

	// Background load: the mixed-op replay workload, partials allowed by
	// the fleet default — it counts epochs so the run itself proves the
	// cutover happened mid-traffic.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type replayOut struct {
		rep *replay.Report
		err error
	}
	replayDone := make(chan replayOut, 1)
	// 3000 @ 250 qps spreads arrivals over 12s: the cutover phases below
	// take ~2s unloaded and several times that under -race, and the
	// epoch-change assertion needs served queries on BOTH sides of the
	// cutover — a short replay finishes before a race-slowed register
	// round ever bumps the epoch.
	go func() {
		rep, err := replay.Run(ctx, replay.Config{
			BaseURL: f.ts.URL, Queries: 3000, Rate: 250, Mode: "sketch", Seed: 7,
			Ops: []replay.OpWeight{
				{Op: "nearest", Weight: 3}, {Op: "distance", Weight: 2}, {Op: "assign", Weight: 1},
			},
		})
		replayDone <- replayOut{rep, err}
	}()

	// Concurrent ingest pusher: sequential records through the
	// coordinator proxy; only nil-error acks count as acknowledged.
	pushStop := make(chan struct{})
	ackedCh := make(chan []string, 1)
	go func() {
		cl, err := client.New(client.Config{
			BaseURL: f.ts.URL, MaxAttempts: 4,
			BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("pusher client: %v", err)
			ackedCh <- nil
			return
		}
		var acked []string
		for i := 0; ; i++ {
			select {
			case <-pushStop:
				ackedCh <- acked
				return
			default:
			}
			rec := fmt.Sprintf("rec-%04d", i)
			if res, err := cl.Ingest(ctx, []byte(rec)); err == nil {
				acked = append(acked, res.Label)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// check issues one verification nearest and enforces the contract;
	// it also watches the epoch stamp for monotonicity.
	var served, partials, unavailable int
	lastEpoch := int64(0)
	check := func(i int) {
		t.Helper()
		idx := i % 48
		code, hdr, body := wiretest.Get(t, f.ts.URL+fmt.Sprintf("/v1/nearest?q=%s&mode=sketch",
			server.FormatRect(tileRect(idx))))
		if e := headerEpoch(hdr); e > 0 {
			if e < lastEpoch {
				t.Errorf("check %d: epoch went backwards: %d after %d", i, e, lastEpoch)
			}
			lastEpoch = e
		}
		switch code {
		case 200:
			var res NearestResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("check %d: bad JSON %s", i, body)
			}
			if res.Partial {
				partials++
				if len(res.Missing) == 0 {
					t.Errorf("check %d: partial without missing_cols: %s", i, body)
				}
				return
			}
			served++
			ref := refs[idx]
			if res.Tile != ref.Tile || res.Rect != ref.Rect || !closeEnough(res.Distance, ref.Distance) {
				t.Errorf("check %d: UNFLAGGED WRONG answer\n  ref   %+v\n  coord %s", i, ref, body)
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			unavailable++
		default:
			t.Errorf("check %d: unexpected status %d (%s)", i, code, body)
		}
	}
	checkN := func(from, n int) int {
		for i := from; i < from+n; i++ {
			check(i)
		}
		return from + n
	}
	i := checkN(0, 12)

	// --- Phase A: planned handoff of the rightmost band (the ingest
	// target) — register the replacement, let it earn traffic, drain
	// and deregister the old owner, then "kill" the drained process.
	replIng := &recIngestor{}
	repl2 := f.spawnShard(t, f.shards[2].snap, server.Config{Ingestor: replIng})
	if _, err := f.coord.Register(repl2.url()); err != nil {
		t.Fatalf("register replacement: %v", err)
	}
	waitStateURL(t, f.coord, repl2.url(), StateHealthy)
	i = checkN(i, 12)

	dctx, dcancel := context.WithTimeout(ctx, 10*time.Second)
	if _, err := f.coord.Deregister(dctx, f.shards[2].url(), true); err != nil {
		t.Fatalf("deregister with drain: %v", err)
	}
	dcancel()
	oldKill := &faultinject.Breaker{}
	oldKill.Trip() // tearing down a drained process must be invisible
	f.shards[2].kill.Store(oldKill)
	i = checkN(i, 12)
	if hits := oldKill.Hits(); hits > 0 {
		t.Errorf("drained, deregistered shard still receiving traffic: %d hits", hits)
	}

	// --- Phase B: unplanned loss and recovery — SIGKILL band 0's only
	// endpoint mid-traffic, watch it ejected, then revive it and watch
	// the dead -> probation -> healthy re-admission.
	kill0 := &faultinject.Breaker{}
	kill0.Trip()
	f.shards[0].kill.Store(kill0)
	waitStateURL(t, f.coord, f.shards[0].url(), StateDead)
	i = checkN(i, 12)

	if kill0.Hits() == 0 {
		t.Error("band 0's breaker severed nothing: its ejection is not the kill's")
	}
	kill0.Reset()
	waitStateURL(t, f.coord, f.shards[0].url(), StateHealthy)
	i = checkN(i, 12)
	transMu.Lock()
	seq := fmt.Sprint(trans[f.shards[0].url()])
	transMu.Unlock()
	for _, want := range []string{"healthy->dead", "dead->probation", "probation->healthy"} {
		if !strings.Contains(seq, want) {
			t.Errorf("band-0 transitions %s missing %q", seq, want)
		}
	}

	// Drain the drill: stop the pusher, wait out the replay.
	close(pushStop)
	acked := <-ackedCh
	out := <-replayDone
	if out.err != nil {
		t.Fatalf("replay: %v", out.err)
	}
	rep := out.rep

	t.Logf("checks: served=%d partial=%d unavailable=%d; replay: served=%d shed=%d errors=%d epochs=%d..%d (%d changes); acked ingests=%d",
		served, partials, unavailable, rep.Served, rep.Shed, rep.Errors,
		rep.EpochMin, rep.EpochMax, rep.EpochChanges, len(acked))

	if served == 0 {
		t.Error("no clean reference-equal answers across the whole drill")
	}
	if rep.Served == 0 {
		t.Error("replay run served nothing")
	}
	if rep.Errors != 0 {
		t.Errorf("replay saw %d hard errors; every failure must be a clean 503/504", rep.Errors)
	}
	if rep.EpochChanges < 1 {
		t.Errorf("replay observed %d epoch changes; the cutover must be visible mid-run", rep.EpochChanges)
	}
	if rep.EpochMax < rep.EpochMin {
		t.Errorf("replay epoch range inverted: %d..%d", rep.EpochMin, rep.EpochMax)
	}

	// No acknowledged record lost: every acked label is durably present
	// in some band-2 generation (old owner or replacement).
	stored := map[string]bool{}
	for _, ing := range append([]*recIngestor{replIng}, ings...) {
		for _, l := range ing.got() {
			stored[l] = true
		}
	}
	if len(acked) == 0 {
		t.Error("pusher acknowledged nothing; the drill never exercised ingest")
	}
	for _, l := range acked {
		if !stored[l] {
			t.Errorf("ACKED RECORD LOST: %q acknowledged but stored nowhere", l)
		}
	}
	// And the handoff moved the growing edge: the replacement ingested.
	if len(replIng.got()) == 0 {
		t.Error("replacement shard never received an ingest after the cutover")
	}
}
