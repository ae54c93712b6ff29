package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/table"
)

// The sub-query frame (DESIGN.md §13): what a coordinator and a shard
// exchange on a held frame connection (conn.go). One frame carries every
// item of one op that one client request has for one shard, and a sketch
// crosses the wire as the raw little-endian bits of its k float64 lanes —
// the message the paper's two-party model counts — instead of as JSON
// text.
// Everything is little-endian and fixed-width, so a frame's length
// follows from its header alone.
//
// On the connection a frame travels in an envelope that names what to do
// with it and how long it may take, and an answer in one that carries
// what an HTTP status line and header would:
//
//	request: op u8 | timeout_ms i32 | length u32, then a request frame
//	answer:  status u16 | retry_after u16 | length u32, then an answer
//	         frame on 200, the JSON errorBody on any other status
//
// op is SubSketch, SubNearest, SubAssign or SubWhole; timeout_ms follows
// the batch body's rule (0: the shard's default, negative: refused);
// retry_after is the Retry-After hint in whole seconds, 0 for none.
//
// Request, 16-byte header then n items of one kind:
//
//	magic "TMSQ" | version u8 | item kind u8 | route u8 | mode u8 | n u32 | k u32
//	rectangle item: row, col, height, width as int32 (shard-local)
//	sketch item:    k lanes as float64 bits
//	pair item:      two rectangle items, a then b
//
// route and mode are 0 but on SubWhole, where they name the batch route
// (distance: pair items; nearest, assign: rectangles) and the mode.
//
// Answer (status 200 only; every other status keeps the JSON errorBody),
// 32-byte header then n records in item order:
//
//	magic "TMSA" | version u8 | flags u8 | reserved u16 | n u32 | k u32 |
//	generation i64 | base_col i64
//	record: status u8 (0) | reserved u8 u16 | tile i32 | cluster i32 |
//	        medoid i32 | distance f64, then k lanes when flags has lanes set
//	whole:  status u8 (0) | degraded u8 | length u16 | the item's JSON answer
//	failed: status u8 (1) | reserved u8 | length u16 | error text
//
// Generation and base_col come once per frame: one sub-request resolves
// one snapshot, so an item's sketch and the scan run with it can never
// mix generations. An answer to rectangle items of a sketch op carries
// each item's lanes; one to SubWhole has the bodies flag.

// SubFrameVersion is the frame version a shard speaks and reports in
// ShardInfo; a coordinator keeps a shard speaking another out of its map.
// Version 3 adds SubWhole; version 2 is the first carried on held
// connections; version 1 frames were HTTP request bodies.
const SubFrameVersion = 3

// SubOp is what a shard does with a frame's items: the envelope's op.
type SubOp uint8

const (
	// SubSketch answers each rectangle item's pool sketch.
	SubSketch SubOp = 1 + iota
	// SubNearest answers each item's best local tile; a rectangle item
	// is sketched first and answered with its sketch too.
	SubNearest
	// SubAssign is SubNearest over the local cluster medoids.
	SubAssign
	// SubWhole answers each item as the shard's batch route of the
	// frame's route answers it, in the frame's mode: what a shard answers
	// alone — a distance whose operands it both holds, any query to a
	// fleet of one range.
	SubWhole
)

const (
	subRequestEnvLen = 9
	// SubReplyLen is the length of an answer's envelope.
	SubReplyLen = 8

	subQueryMagic  = "TMSQ"
	subAnswerMagic = "TMSA"

	subQueryHeaderLen  = 16
	subAnswerHeaderLen = 32
	subRectLen         = 16
	subRecordLen       = 24
	subTextHeaderLen   = 4
	// maxSubText bounds the text of a record — a failed item's error, a
	// whole item's JSON answer — and with it an answer's length as a
	// function of (n, k) alone. The widest answer the result types can
	// render is 589 bytes (TestWidestResultFitsAWholeRecord).
	maxSubText = 1024

	subKindRect   = 0
	subKindSketch = 1
	subKindPair   = 2

	subFlagLanes  = 1
	subFlagBodies = 2

	subStatusOK     = 0
	subStatusFailed = 1
)

var le = binary.LittleEndian

// subRoutes and subModes are the route and mode codes of a SubWhole
// frame, by their wire value; 0 is none.
var (
	subRoutes = [...]string{"", "distance", "nearest", "assign"}
	subModes  = [...]string{"", ModeAuto, ModeExact, ModeSketch}
)

// SubQuery is the items of one sub-request: rectangles in the shard's
// local coordinates, or query sketches — never both.
type SubQuery struct {
	// K is the lane count of the sketches the two sides exchange.
	K int
	// Rects are rectangle items: "sketch it from your pool" (and, on the
	// scan ops, "then scan, skipping its own tile position"); on SubWhole
	// a scan's queries, or distance pairs: item i's a and b at 2i, 2i+1.
	Rects []table.Rect
	// Sketches are sketch items back to back, item i at [i*K, (i+1)*K).
	Sketches []float64
	// Route and Mode, on SubWhole only: the batch route ("distance",
	// "nearest" or "assign") and the mode its items are answered in.
	Route, Mode string
}

// kind is the wire kind of the items.
func (q *SubQuery) kind() byte {
	switch {
	case len(q.Sketches) > 0:
		return subKindSketch
	case q.Route == "distance":
		return subKindPair
	}
	return subKindRect
}

// Len is the item count.
func (q *SubQuery) Len() int {
	if size := subItemLen(q.kind(), q.K); size > 0 {
		return (len(q.Rects)*subRectLen + len(q.Sketches)*8) / size
	}
	return 0
}

// Encode renders the request frame.
func (q *SubQuery) Encode() ([]byte, error) { return q.appendFrame(nil) }

// AppendRequest appends to dst the request frame in the envelope of op,
// with timeoutMS as its timeout_ms.
func (q *SubQuery) AppendRequest(dst []byte, op SubOp, timeoutMS int32) ([]byte, error) {
	at := len(dst)
	dst = append(dst, byte(op))
	dst = le.AppendUint32(dst, uint32(timeoutMS))
	dst = append(dst, 0, 0, 0, 0)
	dst, err := q.appendFrame(dst)
	if err != nil {
		return nil, err
	}
	le.PutUint32(dst[at+5:], uint32(len(dst)-at-subRequestEnvLen))
	return dst, nil
}

func (q *SubQuery) appendFrame(b []byte) ([]byte, error) {
	n, kind := q.Len(), q.kind()
	if n == 0 || n > DefaultMaxBatch || q.K <= 0 || len(q.Rects)*subRectLen+len(q.Sketches)*8 != n*subItemLen(kind, q.K) {
		return nil, fmt.Errorf("server: sub-query of %d rectangles and %d lanes at k=%d is not 1..%d items",
			len(q.Rects), len(q.Sketches), q.K, DefaultMaxBatch)
	}
	route, mode := slices.Index(subRoutes[:], q.Route), slices.Index(subModes[:], q.Mode)
	if route < 0 || mode < 0 || (route == 0) != (mode == 0) {
		return nil, fmt.Errorf("server: sub-query route %q mode %q", q.Route, q.Mode)
	}
	b = slices.Grow(b, subQueryHeaderLen+n*subItemLen(kind, q.K))
	b = append(b, subQueryMagic...)
	b = append(b, SubFrameVersion, kind, byte(route), byte(mode))
	b = le.AppendUint32(b, uint32(n))
	b = le.AppendUint32(b, uint32(q.K))
	for _, r := range q.Rects {
		for _, v := range [4]int{r.R0, r.C0, r.Rows, r.Cols} {
			if int(int32(v)) != v {
				return nil, fmt.Errorf("server: rect %v does not fit the frame's 32-bit fields", r)
			}
			b = le.AppendUint32(b, uint32(int32(v)))
		}
	}
	return appendLanes(b, q.Sketches), nil
}

func appendLanes(b []byte, lanes []float64) []byte {
	for _, v := range lanes {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func readLanes(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
}

// subItemLen is the wire length of one request item of kind.
func subItemLen(kind byte, k int) int {
	switch kind {
	case subKindRect:
		return subRectLen
	case subKindPair:
		return 2 * subRectLen
	}
	return 8 * k
}

// maxSubFrame is the longest request frame a pool of k lanes takes: a
// full frame of the longest item kind.
func maxSubFrame(k int) int64 {
	return subQueryHeaderLen + DefaultMaxBatch*int64(max(subItemLen(subKindPair, k), subItemLen(subKindSketch, k)))
}

// ParseSubReply reads an answer's envelope: the status, the Retry-After
// hint in whole seconds (0 for none) and the length of what follows.
func ParseSubReply(env []byte) (status, retryAfter int, length int64) {
	return int(le.Uint16(env)), int(le.Uint16(env[2:])), int64(le.Uint32(env[4:]))
}

// SubItem is one item's answer. Tile, Cluster and Medoid are shard-local;
// Sketch is set for rectangle items; an item of SubWhole has only Body
// and Degraded.
type SubItem struct {
	// Err, when non-empty, is why this item alone failed.
	Err string
	// Body is a SubWhole item's answer as its batch route renders it.
	Body     []byte
	Degraded bool
	// Tile is the best local tile (nearest) or the medoid's tile (assign);
	// Cluster and Medoid are the local cluster and its medoid's tile.
	Tile, Cluster, Medoid int
	Distance              float64
	Sketch                []float64
}

// SubAnswer is a decoded answer frame.
type SubAnswer struct {
	// Generation names the one snapshot every item was answered from.
	Generation int64
	// BaseCol echoes the shard's global column offset so a coordinator can
	// fence an answer whose placement moved under a stale shard map (a
	// replacement process on a reused address, a window trim the prober
	// has not seen yet).
	BaseCol int
	Items   []SubItem
}

// subRecordSize is the length of an answered item's fixed record.
func subRecordSize(k int, flags byte) int {
	if flags&subFlagLanes != 0 {
		return subRecordLen + 8*k
	}
	return subRecordLen
}

// answerFlags are the flags of the answer to q: lanes for the rectangle
// items of a sketch op, bodies for SubWhole.
func (q *SubQuery) answerFlags() byte {
	switch {
	case q.Route != "":
		return subFlagBodies
	case q.kind() == subKindRect:
		return subFlagLanes
	}
	return 0
}

// SubAnswerLimit bounds the answer to q: what a client may read before it
// knows the shard is not speaking the frame. An item takes its record or
// its text.
func SubAnswerLimit(q *SubQuery) int64 {
	item := max(subRecordSize(q.K, q.answerFlags()), subTextHeaderLen+maxSubText)
	return subAnswerHeaderLen + int64(q.Len())*int64(item)
}

// DecodeSubAnswer decodes the answer frame to q. Anything but one
// well-formed record per item of q, and nothing after them, is an error.
func DecodeSubAnswer(body []byte, q *SubQuery) (*SubAnswer, error) {
	n, flags := q.Len(), q.answerFlags()
	lanes, bodies := flags&subFlagLanes != 0, flags&subFlagBodies != 0
	size := subRecordSize(q.K, flags)
	if len(body) < subAnswerHeaderLen {
		return nil, fmt.Errorf("answer frame of %d bytes is shorter than its header", len(body))
	}
	if string(body[:4]) != subAnswerMagic || body[4] != SubFrameVersion {
		return nil, fmt.Errorf("answer frame magic %q version %d, want %q version %d",
			body[:4], body[4], subAnswerMagic, SubFrameVersion)
	}
	if gotN, gotK := le.Uint32(body[8:]), le.Uint32(body[12:]); int64(gotN) != int64(n) || int64(gotK) != int64(q.K) || body[5] != flags {
		return nil, fmt.Errorf("answer frame of %d items at k=%d (flags %#x) to a query of %d items at k=%d",
			gotN, gotK, body[5], n, q.K)
	}
	ans := &SubAnswer{
		Generation: int64(le.Uint64(body[16:])),
		BaseCol:    int(int64(le.Uint64(body[24:]))),
		Items:      make([]SubItem, n),
	}
	var backing []float64
	if lanes {
		backing = make([]float64, n*q.K)
	}
	rest := body[subAnswerHeaderLen:]
	for i := range ans.Items {
		it := &ans.Items[i]
		if len(rest) < subTextHeaderLen {
			return nil, fmt.Errorf("answer frame ends inside item %d", i)
		}
		if rest[0] == subStatusFailed || (bodies && rest[0] == subStatusOK) {
			end := subTextHeaderLen + int(le.Uint16(rest[2:]))
			if end == subTextHeaderLen || len(rest) < end {
				return nil, fmt.Errorf("answer frame ends inside item %d's text", i)
			}
			text := rest[subTextHeaderLen:end]
			if rest[0] == subStatusFailed {
				it.Err = string(text)
			} else {
				it.Body, it.Degraded = slices.Clone(text), rest[1] != 0
			}
			rest = rest[end:]
			continue
		}
		if rest[0] != subStatusOK || len(rest) < size {
			return nil, fmt.Errorf("answer frame item %d: status %d with %d bytes left", i, rest[0], len(rest))
		}
		it.Tile, it.Cluster, it.Medoid = int(int32(le.Uint32(rest[4:]))), int(int32(le.Uint32(rest[8:]))), int(int32(le.Uint32(rest[12:])))
		it.Distance = math.Float64frombits(le.Uint64(rest[16:]))
		if lanes {
			it.Sketch = backing[i*q.K : (i+1)*q.K : (i+1)*q.K]
			readLanes(it.Sketch, rest[subRecordLen:])
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("answer frame carries %d bytes past its last item", len(rest))
	}
	return ans, nil
}

// frameBuf is a pooled byte buffer: a request frame's items or a batch
// body on the way in, an answer — frame or JSON — on the way out.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledBuf is the capacity past which a buffer is dropped instead of
// pooled, so that one outsize body or answer does not stay on the heap
// behind the pool.
const maxPooledBuf = 64 << 10

func getFrameBuf(size int) *frameBuf {
	f := framePool.Get().(*frameBuf)
	if cap(f.b) < size {
		f.b = make([]byte, 0, size)
	}
	f.b = f.b[:0]
	return f
}

func (f *frameBuf) free() {
	if cap(f.b) <= maxPooledBuf {
		framePool.Put(f)
	}
}

// newSubAnswer starts an answer frame of n records.
func newSubAnswer(n, k int, flags byte, gen int64, baseCol int) *frameBuf {
	f := getFrameBuf(subAnswerHeaderLen + n*subRecordSize(k, flags))
	b := append(f.b, subAnswerMagic...)
	b = append(b, SubFrameVersion, flags, 0, 0)
	b = le.AppendUint32(b, uint32(n))
	b = le.AppendUint32(b, uint32(k))
	b = le.AppendUint64(b, uint64(gen))
	f.b = le.AppendUint64(b, uint64(int64(baseCol)))
	return f
}

// putOK appends an answered item's record; lanes is nil on an answer
// that carries none.
func (f *frameBuf) putOK(tile, cluster, medoid int, d float64, lanes []float64) {
	b := append(f.b, subStatusOK, 0, 0, 0)
	b = le.AppendUint32(b, uint32(int32(tile)))
	b = le.AppendUint32(b, uint32(int32(cluster)))
	b = le.AppendUint32(b, uint32(int32(medoid)))
	b = le.AppendUint64(b, math.Float64bits(d))
	f.b = appendLanes(b, lanes)
}

// putErr appends a failed item's record.
func (f *frameBuf) putErr(msg string) {
	if msg == "" {
		msg = "failed"
	}
	msg = msg[:min(len(msg), maxSubText)]
	b := append(f.b, subStatusFailed, 0)
	b = le.AppendUint16(b, uint16(len(msg)))
	f.b = append(b, msg...)
}

// putWhole appends a whole item's record: res rendered as the batch route
// renders it, or the item's error.
func (f *frameBuf) putWhole(res any, degraded bool, err error) {
	at := len(f.b)
	b := append(f.b, subStatusOK, 0, 0, 0)
	if err == nil {
		b, err = appendResult(b, res)
	}
	if n := len(b) - at - subTextHeaderLen; err == nil && n > maxSubText {
		err = fmt.Errorf("answer of %d bytes exceeds the frame's %d-byte item bound", n, maxSubText)
	}
	if err != nil {
		f.b = b[:at]
		f.putErr(err.Error())
		return
	}
	if degraded {
		b[at+1] = 1
	}
	le.PutUint16(b[at+2:], uint16(len(b)-at-subTextHeaderLen))
	f.b = b
}

// write answers code with the buffer as the whole JSON body and returns
// it to the pool.
func (f *frameBuf) write(w http.ResponseWriter, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(f.b)))
	w.WriteHeader(code)
	w.Write(f.b)
	f.free()
}

// subFrame is a request frame read off the wire: n items of one kind,
// validated but still in wire form, and on SubWhole its route and mode.
type subFrame struct {
	kind        byte
	route, mode string
	n, k        int
	items       *frameBuf
}

func (f *subFrame) rect(i int) table.Rect {
	b := f.items.b[i*subRectLen:]
	at := func(o int) int { return int(int32(le.Uint32(b[o:]))) }
	return table.Rect{R0: at(0), C0: at(4), Rows: at(8), Cols: at(12)}
}

// sketch decodes sketch item i into dst, which must hold k lanes.
func (f *subFrame) sketch(i int, dst []float64) []float64 {
	dst = dst[:f.k]
	readLanes(dst, f.items.b[i*8*f.k:])
	return dst
}

var (
	errSubFrame = errors.New("bad sketch sub-query frame")
	// errSever refuses a frame by closing its connection unanswered: an
	// op no shard knows, or a length no frame to this pool can have.
	errSever = errors.New("sub-query frame past the protocol's bounds")
)

// readSubFrame reads and hardens a request frame of op, length bytes
// from r, against a pool of k lanes: header, item count, lane count and
// exact length are checked before the items are read, and n ≤
// DefaultMaxBatch with k the pool's own bounds the one buffer it takes at
// DefaultMaxBatch·8k bytes — whatever the header of a hostile frame
// claims. A length past that bound is errSever before a byte is read.
// DefaultMaxBatch is every batch's bound, a frame's as a batch
// request's. The caller frees f.items.
func readSubFrame(r io.Reader, length int64, k int, op subOp) (*subFrame, error) {
	if length > maxSubFrame(k) {
		return nil, errSever
	}
	var hdr [subQueryHeaderLen]byte
	if got, err := io.ReadFull(r, hdr[:min(length, subQueryHeaderLen)]); err != nil || got < subQueryHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte body is shorter than the %d-byte header", errSubFrame, got, subQueryHeaderLen)
	}
	if string(hdr[:4]) != subQueryMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", errSubFrame, hdr[:4], subQueryMagic)
	}
	if hdr[4] != SubFrameVersion {
		return nil, fmt.Errorf("%w: version %d, this shard speaks %d", errSubFrame, hdr[4], SubFrameVersion)
	}
	route, mode := int(hdr[6]), int(hdr[7])
	if route >= len(subRoutes) || mode >= len(subModes) || (route == 0) != (mode == 0) || (route != 0) != op.whole {
		return nil, fmt.Errorf("%w: route %d, mode %d on %s", errSubFrame, route, mode, op.name)
	}
	f := &subFrame{kind: hdr[5], route: subRoutes[route], mode: subModes[mode], k: k}
	if !op.takes(f.kind, f.route) {
		return nil, fmt.Errorf("%w: item kind %d on %s", errSubFrame, hdr[5], op.name)
	}
	switch n := le.Uint32(hdr[8:]); {
	case n == 0:
		return nil, errors.New("empty batch")
	case n > DefaultMaxBatch:
		return nil, fmt.Errorf("batch of %d items exceeds the %d-item limit", n, DefaultMaxBatch)
	default:
		f.n = int(n)
	}
	if got := le.Uint32(hdr[12:]); int64(got) != int64(k) {
		return nil, fmt.Errorf("sketch has %d entries, this shard's pool has k=%d", got, k)
	}
	size := f.n * subItemLen(f.kind, k)
	if length != int64(subQueryHeaderLen+size) {
		return nil, fmt.Errorf("%w: %d bytes, the header implies %d", errSubFrame, length, subQueryHeaderLen+size)
	}
	f.items = getFrameBuf(size)
	f.items.b = f.items.b[:size]
	if got, err := io.ReadFull(r, f.items.b); err != nil {
		f.items.free()
		return nil, fmt.Errorf("%w: %d bytes of items, the header implies %d", errSubFrame, got, size)
	}
	return f, nil
}
