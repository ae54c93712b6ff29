package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// roundTrip is an http.RoundTripper that answers every request from a
// function, so each ingest case scripts its server without a listener.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func answer(code int, retryAfter, body string) (*http.Response, error) {
	h := http.Header{}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	return &http.Response{StatusCode: code, Header: h, Body: io.NopCloser(strings.NewReader(body))}, nil
}

// TestIngestRetryPolicy pins which ingest failures re-send the record: a
// 503 (the server stored nothing) retries, honouring Retry-After up to
// RetryAfterCap within MaxAttempts and Budget; everything else returns
// after one attempt, because the record may have been stored.
func TestIngestRetryPolicy(t *testing.T) {
	const okBody = `{"label":"d1","cols":32}`
	errReset := errors.New("connection reset by peer")
	cases := []struct {
		name string
		// serve answers attempt n (0-based).
		serve        func(n int) (*http.Response, error)
		budget       time.Duration
		wantAttempts int
		wantSleeps   []time.Duration // nil: not checked
		wantOK       bool
		wantExhaust  bool
	}{
		{name: "200", serve: func(int) (*http.Response, error) { return answer(200, "", okBody) },
			wantAttempts: 1, wantSleeps: []time.Duration{}, wantOK: true},
		{name: "503 then 200 honours Retry-After",
			serve: func(n int) (*http.Response, error) {
				if n < 2 {
					return answer(503, "1", `{"error":"busy"}`)
				}
				return answer(200, "", okBody)
			},
			wantAttempts: 3, wantSleeps: []time.Duration{time.Second, time.Second}, wantOK: true},
		{name: "Retry-After capped",
			serve: func(n int) (*http.Response, error) {
				if n == 0 {
					return answer(503, "3600", "")
				}
				return answer(200, "", okBody)
			},
			wantAttempts: 2, wantSleeps: []time.Duration{2 * time.Second}, wantOK: true},
		{name: "503 until MaxAttempts", serve: func(int) (*http.Response, error) { return answer(503, "", "") },
			wantAttempts: 4, wantExhaust: true},
		{name: "503 until Budget", serve: func(int) (*http.Response, error) { return answer(503, "1", "") },
			budget: 1500 * time.Millisecond, wantAttempts: 2, wantExhaust: true},
		{name: "transport error", serve: func(int) (*http.Response, error) { return nil, errReset },
			wantAttempts: 1},
		{name: "timeout", serve: func(int) (*http.Response, error) { return nil, context.DeadlineExceeded },
			wantAttempts: 1},
		{name: "429", serve: func(int) (*http.Response, error) { return answer(429, "1", "") },
			wantAttempts: 1},
		{name: "500", serve: func(int) (*http.Response, error) { return answer(500, "", "") },
			wantAttempts: 1},
		{name: "504", serve: func(int) (*http.Response, error) { return answer(504, "", "") },
			wantAttempts: 1},
		{name: "400", serve: func(int) (*http.Response, error) { return answer(400, "", `{"error":"bad record"}`) },
			wantAttempts: 1},
		{name: "undecodable 200", serve: func(int) (*http.Response, error) { return answer(200, "", `{"label":`) },
			wantAttempts: 1},
		{name: "over-limit 200", serve: func(int) (*http.Response, error) {
			return answer(200, "", `{"label":"`+strings.Repeat("x", 1<<20)+`"}`)
		}, wantAttempts: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			attempts := 0
			slept := []time.Duration{}
			budget := tc.budget
			if budget == 0 {
				budget = time.Hour
			}
			c, err := New(Config{
				BaseURL: "http://shard.invalid",
				HTTP: &http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
					if r.Method != http.MethodPost || r.URL.Path != "/v1/ingest" {
						t.Errorf("request %s %s, want POST /v1/ingest", r.Method, r.URL.Path)
					}
					attempts++
					return tc.serve(attempts - 1)
				})},
				MaxAttempts: 4, BaseDelay: time.Millisecond, Budget: budget,
				RetryAfterCap: 2 * time.Second,
				Sleep: func(_ context.Context, d time.Duration) error {
					slept = append(slept, d)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Ingest(context.Background(), []byte("rec"))
			if attempts != tc.wantAttempts {
				t.Errorf("%d attempts, want %d (err %v)", attempts, tc.wantAttempts, err)
			}
			if tc.wantSleeps != nil && !equalDurations(slept, tc.wantSleeps) {
				t.Errorf("sleeps %v, want %v", slept, tc.wantSleeps)
			}
			if tc.wantOK {
				if err != nil || res.Label != "d1" || res.Cols != 32 {
					t.Fatalf("Ingest = %+v, %v; want the decoded 200", res, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Ingest = %+v, want an error", res)
			}
			if got := errors.Is(err, ErrBudgetExhausted); got != tc.wantExhaust {
				t.Errorf("errors.Is(%v, ErrBudgetExhausted) = %v, want %v", err, got, tc.wantExhaust)
			}
		})
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
