package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span at every layer boundary the benchmark
// can reach from outside: the client call, the middleware around each
// HTTP handler, the Publisher in front of Server.Swap, and direct
// replays of the same call against the layer underneath. Spans stay in
// memory and are written out when the run ends. A nil *tracer records
// nothing and wraps nothing, which is the untraced run.

// reqHeader carries the benchmark's request id to the first handler.
const reqHeader = "X-Bench-Req"

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Replay marks a direct call into the layer below, made right after
	// the request it belongs to rather than inside it; its duration
	// stands in for the time the handler spent in that layer.
	Replay bool  `json:"replay,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"` // request + response body bytes
	Items  int   `json:"items,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0  time.Time
	on  atomic.Bool  // off: the middleware passes through and clients record nothing
	cur atomic.Int64 // request in flight; the traced run is serial

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether spans are being recorded right now. The traced
// run switches recording off and on between rounds, so that the same
// fixture gives both sides of the tracing-overhead comparison.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens the next request and returns its id.
func (t *tracer) begin() int64 { return t.cur.Add(1) }

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replay times fn as a replay span of request req.
func (t *tracer) replay(name string, req int64, fn func()) {
	start := time.Now()
	fn()
	t.add(span{Name: name, Req: req, Replay: true}, start, time.Now())
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrap puts the timing middleware around h. The span is named
// layer + the route ("server.handler/distance"). Requests that carry no
// id of their own — the coordinator's sub-queries — belong to the
// request in flight. Health and shard-map probes are not traced.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, ok := strings.CutPrefix(r.URL.Path, "/v1")
		if !ok || route == "/shardinfo" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req := t.cur.Load()
		if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			req = id
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.add(span{Name: layer + route, Req: req, Bytes: max(r.ContentLength, 0) + cw.n}, start, time.Now())
	})
}

// layerOf is the part of a span name before the route.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, "/")
	return layer
}

// resolve numbers the spans and names each one's parent: the innermost
// span of the same request and of another layer that was open when it
// started (spans of one layer are siblings — the coordinator's parallel
// sub-queries overlap without one causing the other). A replay hangs
// under the innermost recorded span of its request.
func (t *tracer) resolve() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].End > spans[b].End
	})
	byReq := map[int64][]int{}
	for i := range spans {
		spans[i].ID = i + 1
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		depth := make(map[int]int, len(idx))
		deepest := -1
		for n, i := range idx {
			s := &spans[i]
			if s.Replay {
				continue
			}
			for m := n - 1; m >= 0; m-- { // later starts are deeper: scan backwards
				p := &spans[idx[m]]
				if !p.Replay && s.Start < p.End && layerOf(p.Name) != layerOf(s.Name) {
					s.Parent, depth[i] = p.ID, depth[idx[m]]+1
					break
				}
			}
			if deepest < 0 || depth[i] > depth[deepest] {
				deepest = i
			}
		}
		for _, i := range idx {
			if spans[i].Replay && deepest >= 0 {
				spans[i].Parent = spans[deepest].ID
			}
		}
	}
	return spans
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover (replay children count with their duration).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		covered, upto := int64(0), s.Start
		for _, c := range children[s.ID] { // in start order
			if c.Replay {
				covered += c.dur()
				continue
			}
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceView answers the questions the per-layer metrics ask of a
// resolved trace.
type traceView struct {
	spans []span
	self  map[int]int64
	byID  map[int]*span
}

func newTraceView(spans []span) *traceView {
	v := &traceView{spans: spans, self: selfTimes(spans), byID: make(map[int]*span, len(spans))}
	for i := range spans {
		v.byID[spans[i].ID] = &spans[i]
	}
	return v
}

// each calls fn for every span whose name has the prefix.
func (v *traceView) each(prefix string, fn func(s *span)) {
	for i := range v.spans {
		if strings.HasPrefix(v.spans[i].Name, prefix) {
			fn(&v.spans[i])
		}
	}
}

// medianUS is the median duration in µs of the spans named exactly name.
func (v *traceView) medianUS(name string) float64 {
	var ds []float64
	v.each(name, func(s *span) {
		if s.Name == name {
			ds = append(ds, float64(s.dur())/1e3)
		}
	})
	return median(ds)
}

// medianSelfUS is the median self time in µs per span name.
func (v *traceView) medianSelfUS() map[string]float64 {
	by := map[string][]float64{}
	for i := range v.spans {
		s := &v.spans[i]
		by[s.Name] = append(by[s.Name], float64(v.self[s.ID])/1e3)
	}
	out := make(map[string]float64, len(by))
	for name, vals := range by {
		out[name] = median(vals)
	}
	return out
}
