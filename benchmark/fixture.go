package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// Every fixture is built in-process from the repository's public
// packages and served over real loopback HTTP. The benchmark owns the
// http.Server around each handler so that the traced run can put its
// timing middleware there; the untraced run serves the bare handler.

// serverConfig is the serving policy of every fixture: admission wide
// enough that a batch of 64 beside single queries never degrades
// itself, everything else the package defaults.
var serverConfig = server.Config{MaxInflight: 8, MaxQueue: 256}

func poolOptions(panelCols int) core.PoolOptions {
	return core.PoolOptions{
		MinLogRows: logTile, MaxLogRows: logTile,
		MinLogCols: logTile, MaxLogCols: logTile,
		PanelCols: panelCols,
	}
}

// Seeds of the program under test derive from the run seed like every
// other input.
func poolSeed(seed uint64) uint64    { return seed ^ 0x706f6f6c }
func clusterSeed(seed uint64) uint64 { return seed ^ 0x636c7573 }

func snapshotConfig(sz size, seed uint64) server.SnapshotConfig {
	return server.SnapshotConfig{TileRows: tileSide, TileCols: tileSide, Clusters: sz.clusters, Seed: clusterSeed(seed)}
}

// callVolume generates the rows × cols prefix of the call-volume table.
func callVolume(rows, cols int, seed uint64) (*table.Table, error) {
	days := (cols + workload.BucketsPerDay - 1) / workload.BucketsPerDay
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: rows, Days: days, Seed: seed})
	if err != nil {
		return nil, err
	}
	return tb.Sub(table.Rect{R0: 0, C0: 0, Rows: rows, Cols: cols}), nil
}

// listen serves h on a fresh loopback port and returns its base URL
// and a stop function that returns once the server has drained.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // http.ErrServerClosed after Shutdown
		close(done)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // on timeout the listener is closed all the same
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// buildStats are the set-up sub-steps and counts the fixture builders
// can observe from outside, summed over shards.
type buildStats struct {
	NewPoolS       float64 `json:"new_pool_s"`
	BuildSnapshotS float64 `json:"build_snapshot_s"`
	Correlations   int64   `json:"fft_correlations"`
	TableSpectra   int64   `json:"fft_table_spectra"`
	PoolBytes      int64   `json:"pool_bytes"`
}

// shard is one served snapshot: the whole table for the single-server
// fixture, one column range for the coordinator fixture.
type shard struct {
	baseCol int
	tb      *table.Table
	snap    *server.Snapshot
}

// fixture is a live system under test for the HTTP workloads.
type fixture struct {
	url    string // where the clients send requests
	shards []shard
	stops  []func()
	stats  buildStats
}

func (fx *fixture) close() {
	for i := len(fx.stops) - 1; i >= 0; i-- {
		fx.stops[i]()
	}
}

// newShard builds pool, snapshot and server over columns [c0, c1) of tb
// and serves it.
func (fx *fixture) newShard(tb *table.Table, c0, c1 int, sz size, seed uint64, tr *tracer) (string, error) {
	sub := tb
	if c0 != 0 || c1 != tb.Cols() {
		sub = tb.Sub(table.Rect{R0: 0, C0: c0, Rows: tb.Rows(), Cols: c1 - c0})
	}
	opts := poolOptions(0)
	opts.BaseCol = c0
	corr0, spec0 := fft.CorrelationCount(), fft.TableSpectrumCount()
	t0 := time.Now()
	pool, err := core.NewPool(sub, 1, sz.k, poolSeed(seed), opts)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	sn, err := server.BuildSnapshot(context.Background(), sub, pool, snapshotConfig(sz, seed))
	if err != nil {
		return "", err
	}
	fx.stats.NewPoolS += t1.Sub(t0).Seconds()
	fx.stats.BuildSnapshotS += time.Since(t1).Seconds()
	fx.stats.Correlations += fft.CorrelationCount() - corr0
	fx.stats.TableSpectra += fft.TableSpectrumCount() - spec0
	fx.stats.PoolBytes += pool.MemoryBytes()
	srv, err := server.New(sn, serverConfig)
	if err != nil {
		return "", err
	}
	name := "server.handler"
	if c1-c0 != tb.Cols() {
		name = "shard.handler"
	}
	u, stop, err := listen(tr.wrap(name, srv.Handler()))
	if err != nil {
		return "", err
	}
	fx.stops = append(fx.stops, stop)
	fx.shards = append(fx.shards, shard{baseCol: c0, tb: sub, snap: sn})
	return u, nil
}

// buildFixture builds the named fixture kind from scratch. Its duration
// is the workload's setup_s.
func buildFixture(kind string, tb *table.Table, sz size, seed uint64, tr *tracer) (*fixture, error) {
	fx := &fixture{}
	switch kind {
	case "server":
		u, err := fx.newShard(tb, 0, tb.Cols(), sz, seed, tr)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.url = u
	case "coord":
		half := tb.Cols() / 2
		var urls []string
		for _, c := range [][2]int{{0, half}, {half, tb.Cols()}} {
			u, err := fx.newShard(tb, c[0], c[1], sz, seed, tr)
			if err != nil {
				fx.close()
				return nil, err
			}
			urls = append(urls, u)
		}
		co, err := coord.New(coord.Config{Endpoints: urls})
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.stops = append(fx.stops, co.Close)
		// New probes every shard once before returning; anything but
		// ready here means a shard did not come up.
		for deadline := time.Now().Add(5 * time.Second); !co.Ready(); {
			if time.Now().After(deadline) {
				fx.close()
				return nil, fmt.Errorf("coordinator not ready over %v", urls)
			}
			time.Sleep(5 * time.Millisecond)
		}
		u, stop, err := listen(tr.wrap("coord.handler", co.Handler()))
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.stops = append(fx.stops, stop)
		fx.url = u
	default:
		return nil, fmt.Errorf("unknown fixture kind %q", kind)
	}
	return fx, nil
}
