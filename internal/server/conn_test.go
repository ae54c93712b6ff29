// Fuzz targets of the frame carrier — the surface a shard exposes to
// whatever reaches its port and upgrades, not only to its coordinator —
// driven through serveFrame over an io.Reader, the way a held connection
// reads frames, with the answers written to a buffer.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/table"
)

// frameServer is a server over tinySnap and the most one frame and its
// answer may allocate: a full frame of the longer item kind in, a full
// frame of lanes out, and slack for the pipeline's fixed costs.
func frameServer(f *testing.F) (s *Server, k int, bound uint64) {
	sn := tinySnap(f)
	s, err := New(sn, Config{MaxInflight: 8, MaxQueue: 32})
	if err != nil {
		f.Fatal(err)
	}
	k = sn.pool.K()
	full := &SubQuery{K: k, Rects: make([]table.Rect, DefaultMaxBatch)}
	return s, k, uint64(maxSubFrame(k)) + uint64(SubAnswerLimit(full)) + 64<<10
}

// frameAllocs runs serveFrame once and reports what it allocated.
func frameAllocs(s *Server, br *bufio.Reader, bw *bufio.Writer) (kept bool, allocated uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kept = s.serveFrame(br, bw)
	runtime.ReadMemStats(&after)
	return kept, after.TotalAlloc - before.TotalAlloc
}

// checkAnswers walks the answers written to out, each an envelope and
// the bytes it names: a 200 is an answer frame, any other status below
// 500 an error body. It returns how many it found.
func checkAnswers(t *testing.T, out []byte) int {
	t.Helper()
	n := 0
	for ; len(out) > 0; n++ {
		if len(out) < SubReplyLen {
			t.Fatalf("answer %d: %d bytes, shorter than an envelope", n, len(out))
		}
		status, _, length := ParseSubReply(out)
		out = out[SubReplyLen:]
		if int64(len(out)) < length {
			t.Fatalf("answer %d: envelope names %d bytes, %d follow", n, length, len(out))
		}
		body := out[:length]
		out = out[length:]
		switch {
		case status >= 500:
			t.Fatalf("answer %d: status %d: %s", n, status, body)
		case status != 200:
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("answer %d: status %d with %q, want an error body", n, status, body)
			}
		case len(body) < subAnswerHeaderLen || string(body[:4]) != subAnswerMagic:
			t.Fatalf("answer %d: 200 with %q, want an answer frame", n, body)
		}
	}
	return n
}

// FuzzSubQueryFrame drives arbitrary bytes as the frame of each op, in
// an envelope of their length. The invariants: never panic, never answer
// 5xx, never allocate more than a legal frame and its answer could need
// whatever n, k or length the bytes claim, sever the connection only for
// a length past what a frame to the pool can have, and answer 200 only
// with an answer frame the client's decoder accepts for the query the
// bytes spell. fragmented feeds the bytes one at a time, the other way a
// frame can arrive.
func FuzzSubQueryFrame(f *testing.F) {
	s, k, bound := frameServer(f)
	mk := func(q *SubQuery, patch func(frame []byte) []byte) []byte {
		frame, err := q.Encode()
		if err != nil {
			f.Fatal(err)
		}
		if patch != nil {
			frame = patch(frame)
		}
		return frame
	}
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	tile := table.Rect{R0: 4, C0: 4, Rows: 4, Cols: 4}
	rects := &SubQuery{K: k, Rects: []table.Rect{tile, {Rows: 2, Cols: 4}, {R0: 3, C0: 5, Rows: 4, Cols: 8}}}
	lanes := make([]float64, 2*k)
	for i := range lanes {
		lanes[i] = float64(i%7) - 3
	}
	sketches := &SubQuery{K: k, Sketches: lanes}
	nan := append([]float64{}, lanes...)
	nan[k+1] = math.NaN()
	pairs := &SubQuery{K: k, Rects: []table.Rect{tile, {R0: 8, C0: 8, Rows: 4, Cols: 4}, {Rows: 2, Cols: 4}, {R0: 1, C0: 1, Rows: 2, Cols: 4}}, Route: "distance", Mode: ModeExact}
	scans := &SubQuery{K: k, Rects: []table.Rect{tile, {R0: 8, C0: 8, Rows: 4, Cols: 4}}, Route: "assign", Mode: ModeAuto}
	for op := uint8(0); op < 4; op++ {
		for _, fragmented := range []bool{false, true} {
			f.Add(op, fragmented, []byte{})                                                    // empty
			f.Add(op, fragmented, mk(rects, nil)[:16])                                         // header only
			f.Add(op, fragmented, mk(rects, nil))                                              // valid: rectangles
			f.Add(op, fragmented, mk(sketches, nil))                                           // valid: sketches
			f.Add(op, fragmented, mk(rects, put32(8, 0)))                                      // n = 0
			f.Add(op, fragmented, mk(rects, put32(8, DefaultMaxBatch+1)))                      // n over the bound
			f.Add(op, fragmented, mk(sketches, put32(8, 1<<32-1)))                             // hostile n
			f.Add(op, fragmented, mk(sketches, put32(12, uint32(k+1))))                        // k off by one
			f.Add(op, fragmented, mk(sketches, put32(12, 1<<32-1)))                            // hostile k
			f.Add(op, fragmented, mk(&SubQuery{K: k, Sketches: nan}, nil))                     // NaN lane
			f.Add(op, fragmented, mk(sketches, func(b []byte) []byte { return b[:len(b)-1] })) // one short
			f.Add(op, fragmented, mk(sketches, func(b []byte) []byte { return append(b, 0) })) // one long
			f.Add(op, fragmented, []byte(`{"sketch":[1,2,3],"exclude":"0,0,8,8"}`))            // the JSON form of the first frames
			f.Add(op, fragmented, mk(pairs, nil))                                              // whole: distance pairs
			f.Add(op, fragmented, mk(scans, nil))                                              // whole: scan queries
			f.Add(op, fragmented, mk(pairs, func(b []byte) []byte { b[6] = 9; return b }))     // unknown route
			f.Add(op, fragmented, mk(scans, func(b []byte) []byte { b[7] = 0; return b }))     // a route without a mode
			f.Add(op, fragmented, mk(pairs, func(b []byte) []byte { b[6] = 2; return b }))     // pairs on a scan route
		}
	}

	f.Fuzz(func(t *testing.T, op uint8, fragmented bool, frame []byte) {
		in := binary.LittleEndian.AppendUint32([]byte{op%4 + 1, 0, 0, 0, 0}, uint32(len(frame)))
		var r io.Reader = bytes.NewReader(append(in, frame...))
		if fragmented {
			r = iotest.OneByteReader(r)
		}
		var out bytes.Buffer
		br, bw := bufio.NewReader(r), bufio.NewWriter(&out)
		kept, allocated := frameAllocs(s, br, bw)
		if allocated > bound {
			t.Fatalf("allocated %d bytes for a %d-byte frame; a legal exchange is bounded by %d", allocated, len(frame), bound)
		}
		if !kept {
			if int64(len(frame)) <= maxSubFrame(k) {
				t.Fatalf("a %d-byte frame severed the connection", len(frame))
			}
			return
		}
		if checkAnswers(t, out.Bytes()) != 1 {
			t.Fatalf("one frame, answers %q", out.Bytes())
		}
		status, _, _ := ParseSubReply(out.Bytes())
		if status != 200 {
			return
		}
		// A 200 commits the shard to the frame contract: the header it
		// accepted names the query, and the answer decodes against it.
		if len(frame) < 16 {
			t.Fatalf("answered 200 to %d bytes", len(frame))
		}
		n := int(binary.LittleEndian.Uint32(frame[8:]))
		q := &SubQuery{K: int(binary.LittleEndian.Uint32(frame[12:])), Route: subRoutes[frame[6]], Mode: subModes[frame[7]]}
		switch frame[5] {
		case subKindRect:
			q.Rects = make([]table.Rect, n)
		case subKindPair:
			q.Rects = make([]table.Rect, 2*n)
		default:
			q.Sketches = make([]float64, n*q.K)
		}
		if want, _ := q.Encode(); len(want) != len(frame) {
			t.Fatalf("answered 200 to a %d-byte frame whose header implies %d", len(frame), len(want))
		}
		answer := out.Bytes()[SubReplyLen:]
		if int64(len(answer)) > SubAnswerLimit(q) {
			t.Fatalf("%d-byte answer over the %d-byte limit of its query", len(answer), SubAnswerLimit(q))
		}
		if _, err := DecodeSubAnswer(answer, q); err != nil {
			t.Fatalf("answered 200 with a frame the client refuses: %v", err)
		}
	})
}

// FuzzSubEnvelope drives arbitrary bytes as everything a held
// connection receives: envelopes and frames back to back, in whatever
// shape. The invariants: never panic, no frame allocates more than a
// legal exchange could, and every frame the connection survives is
// answered once, with a whole envelope and the bytes it names.
func FuzzSubEnvelope(f *testing.F) {
	s, k, bound := frameServer(f)
	valid, err := (&SubQuery{K: k, Rects: []table.Rect{{R0: 4, C0: 4, Rows: 4, Cols: 4}}}).AppendRequest(nil, SubNearest, 0)
	if err != nil {
		f.Fatal(err)
	}
	with := func(off int, b ...byte) []byte {
		v := append([]byte{}, valid...)
		copy(v[off:], b)
		return v
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames on one connection
	f.Add(valid[:5])                                    // cut inside the envelope
	f.Add(valid[:len(valid)-1])                         // cut inside the frame
	f.Add(with(0, 0))                                   // op 0
	f.Add(with(0, 4))                                   // op past the last
	f.Add(with(0, 0xff))
	f.Add(with(1, 0xff, 0xff, 0xff, 0xff))                 // timeout_ms -1
	f.Add(with(5, 0xff, 0xff, 0xff, 0xff))                 // hostile length
	f.Add(with(5, 0x10))                                   // length shorter than the frame
	f.Add(append(with(5, byte(valid[5]+1)), valid...))     // length one past the frame
	f.Add(append(with(0, byte(SubSketch)), valid[:9]...))  // a frame, then an envelope alone
	f.Add(append(with(0, byte(SubAssign)), with(0, 9)...)) // a frame, then an unknown op
	whole, err := (&SubQuery{K: k, Rects: []table.Rect{{R0: 4, C0: 4, Rows: 4, Cols: 4}, {Rows: 4, Cols: 4}}, Route: "distance", Mode: ModeAuto}).AppendRequest(nil, SubWhole, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)                                        // a whole distance frame
	f.Add(append(append([]byte{}, whole...), valid...)) // a whole frame, then a sketch op's
	f.Add(append(with(0, byte(SubWhole)), whole...))    // a scan's frame as SubWhole, then a whole frame

	f.Fuzz(func(t *testing.T, in []byte) {
		var out bytes.Buffer
		br, bw := bufio.NewReader(bytes.NewReader(in)), bufio.NewWriter(&out)
		kept := 0
		for kept < 16 {
			ok, allocated := frameAllocs(s, br, bw)
			if allocated > bound {
				t.Fatalf("frame %d allocated %d bytes; a legal exchange is bounded by %d", kept, allocated, bound)
			}
			if !ok {
				break
			}
			kept++
		}
		if got := checkAnswers(t, out.Bytes()); got != kept {
			t.Fatalf("%d frames kept the connection, %d answers", kept, got)
		}
	})
}
