// Tests that can see a wrong codec: appendResult against json.Marshal
// byte for byte, and DecodeBatch against json.NewDecoder on accept /
// reject, decoded value and error text.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
)

// checkAppend compares appendResult with json.Marshal on one value:
// same bytes (behind an untouched prefix) or same error text.
func checkAppend(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	const prefix = "prefix,"
	got, err := appendResult([]byte(prefix), v)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%+v: appendResult error %v, json.Marshal error %v", v, err, wantErr)
	}
	if err == nil && string(got) != prefix+string(want) {
		t.Fatalf("%+v:\nappendResult %s\njson.Marshal %s", v, got[len(prefix):], want)
	}
}

var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999e-7, math.Nextafter(1e-6, 0), 1e-6, 1.5e-6,
		1, 0.1, 123456789.125, 1e20, math.Nextafter(1e21, 0), 1e21, 1.7e308, math.MaxFloat64,
		-5e-324, -9.999e-7, -1e-6, -1e21, -1.7e308, 1e-9, 1.234e-10, 3.0000000000000004e-100,
	}
	edgeInts    = []int{0, 1, -1, 255, math.MaxInt, math.MinInt}
	edgeTiers   = []string{TierExact, TierSketch, TierPruned}
	edgeReasons = []string{"", ReasonRequested, ReasonLoad, ReasonDeadline}
	// Strings the wire never carries in these fields, for the escape path.
	oddStrings = []string{"", "a<b>&c", `quo"te\`, "é ≥ δ", "line\nfeed\x00", "\xff\xfe", "\u2028", "del\x7f", "1,2,3,4"}
)

func edgePrunes() []*PruneStats {
	out := []*PruneStats{nil}
	for _, margin := range []string{MarginExact, "confidence"} {
		for _, eps := range []float64{0, math.Copysign(0, -1), 0.1, 1e-7, 1e21} {
			for _, delta := range []float64{0, 0.05, 5e-324} {
				for _, n := range edgeInts {
					out = append(out, &PruneStats{
						Margin: margin, Epsilon: eps, Delta: delta,
						Candidates: n, ScreenSurvivors: n, PrunedCandidates: 3, RefineAbandoned: n,
						LanesEvaluated: int64(n), CellsEvaluated: 7, CoordinatesTotal: int64(n), PrunedCoordinates: int64(n),
					})
				}
			}
		}
	}
	return out
}

// TestAppendResultMatchesMarshal: for each result type, the encoder's
// bytes are json.Marshal's over every edge value of every field, and
// over 10 000 seeded random ones.
func TestAppendResultMatchesMarshal(t *testing.T) {
	prunes := edgePrunes()
	for _, d := range append([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, edgeFloats...) {
		for _, tier := range edgeTiers {
			for _, reason := range edgeReasons {
				for _, deg := range []bool{false, true} {
					checkAppend(t, &DistanceResult{Distance: d, Tier: tier, Degraded: deg, Reason: reason})
					for i, p := range prunes {
						n := edgeInts[i%len(edgeInts)]
						checkAppend(t, &NearestResult{Tile: n, Rect: "8,16,8,8", Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
						checkAppend(t, &AssignResult{Cluster: n, Medoid: -n, Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
					}
				}
			}
		}
	}
	// A float past JSON's range anywhere fails as json.Marshal fails.
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		checkAppend(t, &NearestResult{Tier: TierPruned, Prune: &PruneStats{Epsilon: bad}})
		checkAppend(t, &AssignResult{Tier: TierPruned, Prune: &PruneStats{Epsilon: 0.1, Delta: bad}})
	}
	for _, s := range oddStrings {
		checkAppend(t, &DistanceResult{Tier: s, Reason: s})
		checkAppend(t, &NearestResult{Rect: s, Prune: &PruneStats{Margin: s}})
	}
	// Anything else is json.Marshal's: a value, a coordinator-style
	// embedding, a type with no JSON form.
	checkAppend(t, DistanceResult{Distance: 1, Tier: TierExact})
	checkAppend(t, &struct {
		DistanceResult
		Partial bool `json:"partial,omitempty"`
	}{DistanceResult{Distance: 2.5, Tier: TierSketch, Reason: "cross_shard"}, true})
	checkAppend(t, &Health{Status: "ok", Rows: 3})
	checkAppend(t, func() {})

	rng := rand.New(rand.NewPCG(21, 0xc0dec))
	float := func() float64 {
		if rng.IntN(4) == 0 {
			return edgeFloats[rng.IntN(len(edgeFloats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	str := func(set []string) string {
		if rng.IntN(8) == 0 {
			return oddStrings[rng.IntN(len(oddStrings))]
		}
		return set[rng.IntN(len(set))]
	}
	for i := 0; i < 10000; i++ {
		var p *PruneStats
		if rng.IntN(2) == 0 {
			p = &PruneStats{
				Margin: str([]string{MarginExact, "confidence"}), Epsilon: float(), Delta: float(),
				Candidates: int(rng.Int64()), ScreenSurvivors: rng.IntN(1000), PrunedCandidates: -rng.IntN(1000),
				RefineAbandoned: rng.IntN(10), LanesEvaluated: rng.Int64(), CellsEvaluated: -rng.Int64(),
				CoordinatesTotal: rng.Int64(), PrunedCoordinates: int64(rng.IntN(100)),
			}
		}
		d, tier, reason, deg := float(), str(edgeTiers), str(edgeReasons), rng.IntN(2) == 0
		switch i % 3 {
		case 0:
			checkAppend(t, &DistanceResult{Distance: d, Tier: tier, Degraded: deg, Reason: reason})
		case 1:
			checkAppend(t, &NearestResult{Tile: int(rng.Int64()), Rect: str([]string{"0,0,8,8", "224,992,32,32"}),
				Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
		case 2:
			checkAppend(t, &AssignResult{Cluster: rng.IntN(64), Medoid: int(rng.Int64()),
				Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
		}
	}
}

// FuzzAppendResult feeds every field its raw bits.
func FuzzAppendResult(f *testing.F) {
	f.Add(uint8(0), uint64(0x3ff0000000000000), int64(1), int64(2), "sketch", "requested", "0,0,8,8", false,
		false, uint64(0), uint64(0), "exact", int64(0), int64(0))
	f.Add(uint8(1), math.Float64bits(1e-7), int64(-1), int64(0), "pruned", "", "8,8,8,8", true,
		true, math.Float64bits(0.1), math.Float64bits(0.05), "confidence", int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(uint8(2), math.Float64bits(1e21), int64(3), int64(17), "exact", "deadline", "", true,
		true, math.Float64bits(math.Inf(1)), uint64(1), "a<b", int64(5), int64(-5))
	f.Add(uint8(0), math.Float64bits(math.NaN()), int64(0), int64(0), "\xff", "\"", "\\", false,
		false, uint64(0), uint64(0), "", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, kind uint8, dist uint64, a, b int64, tier, reason, rect string, deg bool,
		hasPrune bool, eps, delta uint64, margin string, c1, c2 int64) {
		var p *PruneStats
		if hasPrune {
			p = &PruneStats{
				Margin: margin, Epsilon: math.Float64frombits(eps), Delta: math.Float64frombits(delta),
				Candidates: int(c1), ScreenSurvivors: int(c2), PrunedCandidates: int(a), RefineAbandoned: int(b),
				LanesEvaluated: c1, CellsEvaluated: c2, CoordinatesTotal: a, PrunedCoordinates: b,
			}
		}
		d := math.Float64frombits(dist)
		switch kind % 3 {
		case 0:
			checkAppend(t, &DistanceResult{Distance: d, Tier: tier, Degraded: deg, Reason: reason})
		case 1:
			checkAppend(t, &NearestResult{Tile: int(a), Rect: rect, Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
		case 2:
			checkAppend(t, &AssignResult{Cluster: int(a), Medoid: int(b), Distance: d, Tier: tier, Degraded: deg, Reason: reason, Prune: p})
		}
	})
}

// decodeBatchOracle is DecodeBatch as it was before the scanner: the
// body through json.NewDecoder, refused as json.Unmarshal refuses it if
// the value does not end it, then the same checks of the batch as a
// whole.
func decodeBatchOracle(body []byte, maxItems int) (*BatchRequest, error) {
	var req BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad batch body: %v", err)
	}
	if err := json.Unmarshal(body, new(json.RawMessage)); err != nil {
		return nil, fmt.Errorf("bad batch body: %v", err)
	}
	switch n := len(req.Items); {
	case n == 0:
		return nil, errors.New("empty batch")
	case n > maxItems:
		return nil, fmt.Errorf("batch of %d items exceeds the %d-item limit", n, maxItems)
	case req.TimeoutMS < 0:
		return nil, fmt.Errorf("bad timeout_ms %d", req.TimeoutMS)
	}
	return &req, nil
}

func checkDecodeBatch(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeBatchOracle(body, DefaultMaxBatch)
	r := httptest.NewRequest(http.MethodPost, "/v1/batch/distance", bytes.NewReader(body))
	got, err := DecodeBatch(httptest.NewRecorder(), r)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("body %q: DecodeBatch error %v, encoding/json error %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeBatch   %+v\nencoding/json %+v", body, got, want)
	}
}

// plainBodies are bodies in the form clients send: the scanner must
// take them itself. oddBodies are valid or invalid in ways it must leave
// to encoding/json.
var (
	plainBodies = []string{
		`{"items":[{"a":"0,0,8,8","b":"8,8,8,8"}]}`,
		`{"mode":"sketch","timeout_ms":250,"items":[{"q":"8,8,8,8"},{"q":""},{}]}`,
		`{"mode":"prune","epsilon":0.1,"delta":5e-2,"items":[{"q":"1,2,3,4"}]}`,
		" {\n\t\"items\" : [ { \"a\" : \"0,0,8,8\" , \"b\" : \"x\" } , {\"q\":\" 1, 2 ,3,4 \"} ] ,\r\n \"mode\" : \"\" } \n",
		`{"items":[],"timeout_ms":-0}`,
		`{"timeout_ms":-5,"items":[{"q":"a"}]}`,
		`{"epsilon":-0,"delta":1E+2,"items":[{"b":"b","a":"a","q":"q"}]}`,
		`{}`,
		`{"items":[{},{},{},{},{}]}`,
	}
	oddBodies = []string{
		`{"items":[{"q":"\u0061"}]}`, `{"items":[{"q":"caf\u00e9"}]}`, `{"items":[{"q":"café"}]}`, `{"\u0069tems":[{"q":"a"}]}`,
		`{"ITEMS":[{"q":"a"}]}`, `{"items":[{"Q":"a"}]}`, `{"Mode":"sketch","items":[{"q":"a"}]}`,
		`{"mode":"exact","mode":"sketch","items":[{"q":"a"}]}`, `{"items":[{"q":"a","q":"b"}]}`,
		`{"items":[{"a":"1","b":"2"}],"items":[{"q":"3"}]}`,
		`{"items":null}`, `{"items":[null]}`, `{"items":[{"q":null}]}`, `{"mode":null,"items":[{"q":"a"}]}`, `null`,
		`{"epsilon":null,"items":[{"q":"a"}]}`,
		`{"timeout_ms":1e3,"items":[{"q":"a"}]}`, `{"timeout_ms":1.0,"items":[{"q":"a"}]}`, `{"timeout_ms":"5","items":[{"q":"a"}]}`,
		`{"timeout_ms":99999999999999999999,"items":[{"q":"a"}]}`, `{"timeout_ms":01,"items":[{"q":"a"}]}`,
		`{"epsilon":1e999,"items":[{"q":"a"}]}`, `{"epsilon":.5,"items":[{"q":"a"}]}`, `{"epsilon":1.,"items":[{"q":"a"}]}`,
		`{"delta":"0.1","items":[{"q":"a"}]}`, `{"epsilon":-,"items":[{"q":"a"}]}`, `{"epsilon":1e,"items":[{"q":"a"}]}`,
		`{"extra":{"deep":[1,2,{"x":null}]},"items":[{"q":"a"}]}`, `{"items":[{"q":"a","z":[{}]}]}`,
		`{"items":[{"q":"a"}]} trailing`, `{"items":[{"q":"a"}]}{"items":[]}`, `{"items":[{"q":"a"}]}]`,
		`{"items":[{"q":3}]}`, `{"items":"nope"}`, `{"items":[["q"]]}`, `{"items":{"q":"a"}}`, `[`, `{not json`, ``, ` `,
		`{"items":[{"q":"a"},]}`, `{"items":[{"q":"a"}],}`, `{"items":[{"q":"a"}]`, `{"items":[{"q":"a"`, `{"items":[{"q":"a}]}`,
		`{"items":[{"q":"tab	in"}]}`, "{\"items\":[{\"q\":\"nul\x00\"}]}", "{\"items\":[{\"q\":\"\xff\xfe\"}]}", `{"items":[{"q":"del` + "\x7f" + `"}]}`,
		"\xef\xbb\xbf" + `{"items":[{"q":"a"}]}`, `{"items":[{"q":"a"}]}` + "\x00",
		`{"mode":"sketch" "items":[]}`, `{"mode" "sketch"}`, `{"mode":sketch}`, `{mode:"sketch"}`, `{"items":[{"q":"a"} {"q":"b"}]}`,
		`true`, `7`, `"items"`, `[{"q":"a"}]`,
	}
)

// TestScanBatchTakesClientBodies: the scanner decodes the plain form
// itself — a scanner that declined everything would pass every other
// test through the fallback — and declines every odd one.
func TestScanBatchTakesClientBodies(t *testing.T) {
	marshaled, err := json.Marshal(&BatchRequest{
		Mode: ModePrune, TimeoutMS: 1500, Epsilon: new(float64), Delta: new(float64),
		Items: []BatchItem{{A: "0,0,33,63", B: "64,128,33,63"}, {Q: "32,32,32,32"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range append([]string{string(marshaled)}, plainBodies...) {
		var got, want BatchRequest
		if !scanBatch(body, &got, 256) {
			t.Errorf("scanner declined plain body %q", body)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("body %q:\nscanner       %+v\nencoding/json %+v (%v)", body, got, want, err)
		}
	}
	for _, body := range oddBodies {
		if scanBatch(body, new(BatchRequest), 256) {
			t.Errorf("scanner took odd body %q", body)
		}
	}
}

// FuzzBatchBodyAgainstEncodingJSON: for arbitrary bytes DecodeBatch and
// json.NewDecoder agree on accept / reject, on the decoded BatchRequest
// and on the error text.
func FuzzBatchBodyAgainstEncodingJSON(f *testing.F) {
	for _, body := range plainBodies {
		f.Add([]byte(body))
	}
	for _, body := range oddBodies {
		f.Add([]byte(body))
	}
	// The bodies FuzzBatchRequest starts from.
	mk := func(req BatchRequest) []byte {
		b, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(mk(BatchRequest{Items: []BatchItem{{Q: "8,8,8,8"}, {Q: "4096,0,8,8"}, {Q: "not-a-rect"}, {Q: "8,8,8,8"}}}))
	f.Add(mk(BatchRequest{Mode: ModeSketch, Items: []BatchItem{{Q: "0,0,8,8"}, {Q: ""}}}))
	f.Add(mk(BatchRequest{Items: []BatchItem{{A: "0,0,8,8", B: "8,8,8,8"}, {A: "0,0,8,8"}}}))
	f.Add(mk(BatchRequest{Items: make([]BatchItem, 5)}))
	f.Add(mk(BatchRequest{}))
	f.Add(mk(BatchRequest{Mode: "warp", Items: []BatchItem{{Q: "0,0,8,8"}}}))
	f.Add(mk(BatchRequest{TimeoutMS: -1, Items: []BatchItem{{A: "0,0,8,8", B: "0,0,8,8"}}}))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte(strings.Repeat("{", 100)))
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeBatch(t, body) })
}

// errBody fails after its text, as a connection cut mid-body does.
type errBody struct {
	text *strings.Reader
	err  error
}

func (b *errBody) Read(p []byte) (int, error) {
	if b.text.Len() == 0 {
		return 0, b.err
	}
	return b.text.Read(p)
}

// TestDecodeBatchCutShort: a body the read stops short of — the 8 MiB
// cap, a broken connection — decodes as it did when the decoder read
// the connection itself: a complete first value wins, otherwise the
// read's error is the text.
func TestDecodeBatchCutShort(t *testing.T) {
	const good = `{"items":[{"q":"8,8,8,8"}]}`
	cut := errors.New("connection reset")
	for _, tc := range []struct {
		name, body string
		wantErr    string
	}{
		{"complete value, then the cut", good, ""},
		{"cut inside the value", good[:10], "bad batch body: connection reset"},
		{"cut inside the fallback's value", `{"ITEMS":[{"q":"8,8`, "bad batch body: connection reset"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch/nearest", &errBody{strings.NewReader(tc.body), cut})
		req, err := DecodeBatch(httptest.NewRecorder(), r)
		if tc.wantErr == "" {
			if err != nil || len(req.Items) != 1 || req.Items[0].Q != "8,8,8,8" {
				t.Errorf("%s: %+v, %v", tc.name, req, err)
			}
		} else if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	// Past the cap, the text is net/http's.
	big := `{"items":[{"q":"` + strings.Repeat("8", maxBatchBody) + `"}]}`
	r := httptest.NewRequest(http.MethodPost, "/v1/batch/nearest", strings.NewReader(big))
	if _, err := DecodeBatch(httptest.NewRecorder(), r); err == nil || err.Error() != "bad batch body: http: request body too large" {
		t.Errorf("oversize body: error %v", err)
	}
	// A buffer that grew for it is not pooled.
	for i := 0; i < 64; i++ {
		if f := getFrameBuf(0); cap(f.b) > maxPooledBuf {
			t.Fatalf("the pool handed out a %d-byte buffer", cap(f.b))
		}
	}
}

// TestWidestResultFitsAWholeRecord: a SubWhole record carries one
// rendered answer of at most maxSubText bytes, so the widest answer the
// result types can render — every integer at its most negative, the
// widest float, the longest tier and reason, the prune block with both
// knobs echoed — must fit it, or a whole item that its batch route
// answers would fail through a coordinator alone.
func TestWidestResultFitsAWholeRecord(t *testing.T) {
	wide, width := 0.0, 0
	for _, f := range []float64{-math.MaxFloat64, -math.SmallestNonzeroFloat64, -2.2250738585072014e-308, -1.2345678901234567e-06, -9.876543210987654e20} {
		if b, _ := appendFloat(nil, f); len(b) > width {
			wide, width = f, len(b)
		}
	}
	longest := func(ss ...string) (l string) {
		for _, s := range ss {
			if len(s) > len(l) {
				l = s
			}
		}
		return l
	}
	const (
		i   = math.MinInt
		i64 = math.MinInt64
		i32 = math.MinInt32
	)
	ps := &PruneStats{
		Margin: MarginExact, Epsilon: wide, Delta: wide,
		Candidates: i, ScreenSurvivors: i, PrunedCandidates: i, RefineAbandoned: i,
		LanesEvaluated: i64, CellsEvaluated: i64, CoordinatesTotal: i64, PrunedCoordinates: i64,
	}
	tier := longest(TierExact, TierSketch, TierPruned)
	reason := longest(ReasonRequested, ReasonLoad, ReasonDeadline)
	rect := FormatRect(table.Rect{R0: i32, C0: i32, Rows: i32, Cols: i32})
	for _, res := range []any{
		&DistanceResult{Distance: wide, Tier: tier, Degraded: true, Reason: reason},
		&NearestResult{Tile: i, Rect: rect, Distance: wide, Tier: tier, Degraded: true, Reason: reason, Prune: ps},
		&AssignResult{Cluster: i, Medoid: i, Distance: wide, Tier: tier, Degraded: true, Reason: reason, Prune: ps},
	} {
		b, err := appendResult(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > maxSubText {
			t.Errorf("%T renders %d bytes, past the %d-byte whole record:\n%s", res, len(b), maxSubText, b)
		}
		t.Logf("%T: %d of %d bytes", res, len(b), maxSubText)
	}
}
