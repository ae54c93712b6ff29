package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// The JSON wire codec (DESIGN.md §12). The query routes answer three
// fixed shapes thousands of times a second, so appendResult renders them
// by appending — byte for byte what json.Marshal produces, pinned by
// TestAppendResultMatchesMarshal — and a batch's items go one after the
// other into the pooled buffer the envelope is closed around. A batch
// body is read once and scanned for the BatchRequest grammar directly;
// whatever the scanner does not fully recognise goes, same bytes, to
// encoding/json, which alone words errors. Every other shape (health,
// readiness, shard info, ingest, admin, an error body) stays on
// json.Marshal.

// appendFloat renders f as encoding/json renders a float64: ES6 number
// formatting, exponents below 1e-6 and from 1e21, "e-09" cleaned up to
// "e-9". ok is false for the values JSON cannot carry.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendString renders s as a JSON string. The strings of a result are
// tier, reason and margin constants and a rectangle's digits and commas;
// anything encoding/json would escape is left to it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// resultTail is what the three results end with: distance, tier,
// degraded, then reason and prune when set.
type resultTail struct {
	distance float64
	tier     string
	degraded bool
	reason   string
	prune    *PruneStats
}

// appendResult appends the JSON of a query answer to b: json.Marshal's
// bytes, without the reflection, for the three results this package
// defines, and json.Marshal itself for any other value (the coordinator's
// nearest and assign results embed these and add fields of their own).
// The error is json.Marshal's, text included — a float that is not
// finite — and b is then to be cut back by the caller.
func appendResult(b []byte, v any) ([]byte, error) {
	var t resultTail
	switch r := v.(type) {
	case json.RawMessage: // an answer rendered here before: a shard's, relayed whole
		return append(b, r...), nil
	case *DistanceResult:
		b = append(b, `{"distance":`...)
		t = resultTail{r.Distance, r.Tier, r.Degraded, r.Reason, nil}
	case *NearestResult:
		b = append(b, `{"tile":`...)
		b = strconv.AppendInt(b, int64(r.Tile), 10)
		b = append(b, `,"rect":`...)
		b = appendString(b, r.Rect)
		b = append(b, `,"distance":`...)
		t = resultTail{r.Distance, r.Tier, r.Degraded, r.Reason, r.Prune}
	case *AssignResult:
		b = append(b, `{"cluster":`...)
		b = strconv.AppendInt(b, int64(r.Cluster), 10)
		b = append(b, `,"medoid":`...)
		b = strconv.AppendInt(b, int64(r.Medoid), 10)
		b = append(b, `,"distance":`...)
		t = resultTail{r.Distance, r.Tier, r.Degraded, r.Reason, r.Prune}
	default:
		data, err := json.Marshal(v)
		return append(b, data...), err
	}
	var ok bool
	if b, ok = appendFloat(b, t.distance); !ok {
		return b, unsupportedFloat(t.distance)
	}
	b = append(b, `,"tier":`...)
	b = appendString(b, t.tier)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, t.degraded)
	if t.reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, t.reason)
	}
	if p := t.prune; p != nil {
		b = append(b, `,"prune":{"margin":`...)
		b = appendString(b, p.Margin)
		if p.Epsilon != 0 {
			b = append(b, `,"epsilon":`...)
			if b, ok = appendFloat(b, p.Epsilon); !ok {
				return b, unsupportedFloat(p.Epsilon)
			}
		}
		if p.Delta != 0 {
			b = append(b, `,"delta":`...)
			if b, ok = appendFloat(b, p.Delta); !ok {
				return b, unsupportedFloat(p.Delta)
			}
		}
		for _, c := range [8]struct {
			key string
			v   int64
		}{
			{`,"candidates":`, int64(p.Candidates)},
			{`,"screen_survivors":`, int64(p.ScreenSurvivors)},
			{`,"pruned_candidates":`, int64(p.PrunedCandidates)},
			{`,"refine_abandoned":`, int64(p.RefineAbandoned)},
			{`,"lanes_evaluated":`, p.LanesEvaluated},
			{`,"cells_evaluated":`, p.CellsEvaluated},
			{`,"coordinates_total":`, p.CoordinatesTotal},
			{`,"pruned_coordinates":`, p.PrunedCoordinates},
		} {
			b = append(b, c.key...)
			b = strconv.AppendInt(b, c.v, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// unsupportedFloat is json.Marshal's error for a float JSON cannot carry.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// appendError appends the errorBody of msg.
func appendError(b []byte, msg string) []byte {
	data, _ := json.Marshal(errorBody{Error: msg}) // a string always marshals
	return append(b, data...)
}

// NewBatchResponse returns a response with n unanswered item slots, to
// be answered in order by Pipeline.Item and sent by WriteJSON.
func NewBatchResponse(n int) *BatchResponse {
	f := getFrameBuf(0)
	f.b = append(f.b, `{"items":[`...)
	return &BatchResponse{Items: make([]json.RawMessage, n), wire: f}
}

// Item records in resp the outcome of item i — the next unanswered one;
// items are answered in order — and reports whether it was served: res
// rendered into the slot, or, failed, the errorBody of the text the
// single query would have carried (an expired deadline's is
// DeadlineText).
func (p *Pipeline) Item(resp *BatchResponse, i int, res any, degraded bool, err error) bool {
	f := resp.wire
	if i != resp.Served+resp.Failed {
		panic("server: batch item " + strconv.Itoa(i) + " answered out of order")
	}
	if i > 0 {
		f.b = append(f.b, ',')
	}
	start := len(f.b)
	if err == nil {
		f.b, err = appendResult(f.b, res)
	}
	if err == nil {
		resp.Served++
		if degraded {
			resp.Degraded++
		}
		p.c.Served.Add(1)
	} else {
		f.b = appendError(f.b[:start], p.itemText(err))
		resp.Failed++
		if p.c.ItemErrors != nil {
			p.c.ItemErrors.Add(1)
		}
	}
	resp.Items[i] = f.b[start:len(f.b):len(f.b)]
	return err == nil
}

// close finishes the envelope around the items and hands over the wire
// buffer; the items that were views of it go with it.
func (resp *BatchResponse) close() *frameBuf {
	f := resp.wire
	resp.wire, resp.Items = nil, nil
	f.b = append(f.b, `],"served":`...)
	f.b = strconv.AppendInt(f.b, int64(resp.Served), 10)
	f.b = append(f.b, `,"failed":`...)
	f.b = strconv.AppendInt(f.b, int64(resp.Failed), 10)
	f.b = append(f.b, `,"degraded":`...)
	f.b = strconv.AppendInt(f.b, int64(resp.Degraded), 10)
	f.b = append(f.b, '}')
	return f
}

// WriteJSON answers code with v as one line of JSON, its length in
// Content-Length. With WriteError it is how every handler of the fleet —
// server and coordinator — writes. A BatchResponse built by
// NewBatchResponse is used up by the call.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	var f *frameBuf
	if resp, ok := v.(*BatchResponse); ok && resp.wire != nil {
		f = resp.close()
	} else {
		f = getFrameBuf(0)
		var err error
		if f.b, err = appendResult(f.b, v); err != nil {
			f.free()
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	f.b = append(f.b, '\n')
	f.write(w, code)
}

// WriteError answers code with the errorBody every non-2xx answer and
// every failed batch item carries.
func WriteError(w http.ResponseWriter, code int, msg string) {
	errorFrame(msg).write(w, code)
}

// errorFrame is the errorBody of msg as one line of JSON.
func errorFrame(msg string) *frameBuf {
	f := getFrameBuf(0)
	f.b = append(appendError(f.b, msg), '\n')
	return f
}

// readBatchBody reads a request body, capped at maxBatchBody, through a
// pooled buffer. err is what stopped the read short of the end, if
// anything did; text is what arrived before it.
func readBatchBody(w http.ResponseWriter, r *http.Request) (text string, err error) {
	size := 512
	if r.ContentLength > 0 && r.ContentLength <= maxPooledBuf {
		size = int(r.ContentLength) + 1 // room for the read that returns io.EOF
	}
	f := getFrameBuf(size)
	defer f.free()
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	for {
		if len(f.b) == cap(f.b) {
			f.b = append(f.b, 0)[:len(f.b)]
		}
		n, err := body.Read(f.b[len(f.b):cap(f.b)])
		f.b = f.b[:len(f.b)+n]
		if err == io.EOF {
			return string(f.b), nil
		}
		if err != nil {
			return string(f.b), err
		}
	}
}

// errReader fails every read with err: the tail of a body that was cut
// short, replayed to encoding/json.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeBatchBody is json.NewDecoder(body).Decode(&req) — the value, or
// the error and its text — by way of scanBatch where that recognises
// the whole body. Only white space may follow the value: anything else
// is refused with json.Unmarshal's text for it.
func decodeBatchBody(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	text, readErr := readBatchBody(w, r)
	req := new(BatchRequest)
	if readErr == nil && scanBatch(text, req, DefaultMaxBatch) {
		return req, nil
	}
	*req = BatchRequest{}
	var body io.Reader = strings.NewReader(text)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		return req, err
	}
	if strings.TrimLeft(text[dec.InputOffset():], " \t\r\n") != "" {
		return req, json.Unmarshal([]byte(text), new(json.RawMessage))
	}
	return req, nil
}

// batchScanner is a cursor over a batch body. Every method reports
// false where the text is not the plain form it reads — which is not to
// say it is wrong: the caller then leaves the body to encoding/json.
type batchScanner struct {
	s string
	i int
}

// skip moves past white space and reports the byte there, 0 at the end.
func (p *batchScanner) skip() byte {
	for ; p.i < len(p.s); p.i++ {
		if c := p.s[p.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after white space.
func (p *batchScanner) eat(c byte) bool {
	if p.skip() != c {
		return false
	}
	p.i++
	return true
}

// str reads a string literal of printable ASCII with no escape, as a
// view of the body.
func (p *batchScanner) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	for j := p.i; j < len(p.s); j++ {
		switch c := p.s[j]; {
		case c == '"':
			s := p.s[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return "", false
		}
	}
	return "", false
}

// num reads a number literal of the JSON grammar; integer reports that
// it has neither fraction nor exponent.
func (p *batchScanner) num() (lit string, integer, ok bool) {
	p.skip()
	start := p.i
	digits := func() bool {
		from := p.i
		for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
			p.i++
		}
		return p.i > from
	}
	at := func(set string) bool {
		return p.i < len(p.s) && strings.IndexByte(set, p.s[p.i]) >= 0
	}
	if at("-") {
		p.i++
	}
	if at("0") {
		p.i++
	} else if !digits() {
		return "", false, false
	}
	integer = true
	if at(".") {
		p.i++
		if integer = false; !digits() {
			return "", false, false
		}
	}
	if at("eE") {
		p.i++
		if at("+-") {
			p.i++
		}
		if integer = false; !digits() {
			return "", false, false
		}
	}
	return p.s[start:p.i], integer, true
}

// float reads a number into a new float64, as encoding/json fills a
// *float64 field.
func (p *batchScanner) float() (*float64, bool) {
	lit, _, ok := p.num()
	if !ok {
		return nil, false
	}
	f, err := strconv.ParseFloat(lit, 64)
	return &f, err == nil
}

// object reads an object whose keys are all different and all known to
// member, which reads the key's value and names the key by a bit.
func (p *batchScanner) object(member func(key string) (bit uint, ok bool)) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// scanBatch decodes text into req when text is, from first byte to
// last, a BatchRequest in the form clients send it: one object, its keys
// spelled as the struct tags spell them and none twice, strings of
// printable ASCII without escapes, timeout_ms an integer literal that
// fits an int, epsilon and delta numbers in float64's range, items an
// array of objects of a / b / q strings, white space anywhere JSON allows
// it. For such a body encoding/json decodes the same value. For any
// other — an escape or a non-ASCII byte in a string, a key that is
// unknown or repeated or differs in case, null, a value of another type,
// trailing bytes, a syntax error — it reports false, with req in no
// particular state: what the body means, error text included, is
// encoding/json's to say. The strings of req are views of text. sizeHint
// caps what is set aside for the items before they are counted.
func scanBatch(text string, req *BatchRequest, sizeHint int) bool {
	p := batchScanner{s: text}
	ok := p.object(func(key string) (bit uint, ok bool) {
		switch key {
		case "mode":
			req.Mode, ok = p.str()
			return 1, ok
		case "timeout_ms":
			lit, integer, ok := p.num()
			if !ok || !integer {
				return 0, false
			}
			v, err := strconv.Atoi(lit)
			req.TimeoutMS = v
			return 2, err == nil
		case "epsilon":
			req.Epsilon, ok = p.float()
			return 4, ok
		case "delta":
			req.Delta, ok = p.float()
			return 8, ok
		case "items":
			if !p.eat('[') {
				return 0, false
			}
			req.Items = make([]BatchItem, 0, max(0, min(strings.Count(text, "{")-1, sizeHint)))
			if p.eat(']') {
				return 16, true
			}
			for {
				var it BatchItem
				if !p.object(func(key string) (bit uint, ok bool) {
					switch key {
					case "a":
						it.A, ok = p.str()
						return 1, ok
					case "b":
						it.B, ok = p.str()
						return 2, ok
					case "q":
						it.Q, ok = p.str()
						return 4, ok
					}
					return 0, false
				}) {
					return 0, false
				}
				req.Items = append(req.Items, it)
				if p.eat(']') {
					return 16, true
				}
				if !p.eat(',') {
					return 0, false
				}
			}
		}
		return 0, false
	})
	return ok && p.skip() == 0 && p.i == len(p.s)
}
