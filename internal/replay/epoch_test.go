// Epoch tracking: a coordinator stamps every answer with its shard-map
// epoch, and the report counts the distinct epochs a run observed —
// the handoff drill's proof that a cutover happened under load.
package replay

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// TestReplayCountsEpochChanges replays against a scripted coordinator
// whose epoch stamp advances mid-run (with a stretch of absent headers,
// like a plain server): the report must record min, max, and the
// number of changes, counting absent stamps as nothing at all.
func TestReplayCountsEpochChanges(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(server.Health{ //nolint:errcheck
				Status: "ok", Rows: 32, Cols: 32, TileRows: 8, TileCols: 8, Tiles: 16,
			})
			return
		}
		// Epoch script: 3 for a while, then a stretch with no stamp,
		// then 4, then 5 — two real changes.
		var epoch int64
		switch k := n.Add(1); {
		case k <= 10:
			epoch = 3
		case k <= 20:
			epoch = 0 // absent
		case k <= 30:
			epoch = 4
		default:
			epoch = 5
		}
		if epoch > 0 {
			w.Header().Set("X-Tabmine-Epoch", strconv.FormatInt(epoch, 10))
		}
		json.NewEncoder(w).Encode(server.NearestResult{Tile: 1, Distance: 1}) //nolint:errcheck
	}))
	defer ts.Close()

	// Distinct-epoch counting needs no ordering, only that all 40
	// queries are issued: the rate is modest so the open loop never
	// drops an arrival against the instant fake handler.
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Queries: 40, Rate: 5000, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Served != 40 {
		t.Fatalf("served %d/40 (report %+v)", rep.Served, rep)
	}
	if rep.EpochMin != 3 || rep.EpochMax != 5 || rep.EpochChanges != 2 {
		t.Errorf("epochs %d..%d with %d changes, want 3..5 with 2", rep.EpochMin, rep.EpochMax, rep.EpochChanges)
	}
}

// TestReplayNoEpochsAgainstPlainServer: a target that never stamps
// answers yields zeroed epoch fields, not a spurious 0-epoch.
func TestReplayNoEpochsAgainstPlainServer(t *testing.T) {
	ts := serve(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Queries: 10, Rate: 20000, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.EpochMin != 0 || rep.EpochMax != 0 || rep.EpochChanges != 0 {
		t.Errorf("plain server produced epoch fields: %d..%d (%d changes)",
			rep.EpochMin, rep.EpochMax, rep.EpochChanges)
	}
}
