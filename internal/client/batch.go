package client

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/server"
	"repro/internal/table"
)

// Batched queries: one POST carries up to server.DefaultMaxBatch
// queries and pays the round trip, encode/decode, and admission once.
// The whole batch retries under the client's usual policy (the server
// either admits a batch or sheds it before executing anything, and
// answers are deterministic, so re-sending is safe); item-level
// failures do NOT retry — they are the query's own error, reported
// per item.

// Item is one outcome of a batch: exactly one of Result and Err is set.
type Item[T any] struct {
	Result *T
	Err    error
}

// DistanceItem, NearestItem and AssignItem are the outcomes of
// DistanceBatch, NearestBatch and AssignBatch.
type (
	DistanceItem = Item[server.DistanceResult]
	NearestItem  = Item[server.NearestResult]
	AssignItem   = Item[server.AssignResult]
)

// DistanceBatch queries /v1/batch/distance for the pairwise distances
// (as[i], bs[i]). The returned slice always has len(as) entries.
func (c *Client) DistanceBatch(ctx context.Context, as, bs []table.Rect, mode string) ([]DistanceItem, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("client: %d a-rects vs %d b-rects", len(as), len(bs))
	}
	items := make([]server.BatchItem, len(as))
	for i := range as {
		items[i] = server.BatchItem{A: server.FormatRect(as[i]), B: server.FormatRect(bs[i])}
	}
	return batch[server.DistanceResult](ctx, c, "/v1/batch/distance", mode, items)
}

// NearestBatch queries /v1/batch/nearest for each query rectangle.
// mode server.ModePrune uses the server's default epsilon/delta.
func (c *Client) NearestBatch(ctx context.Context, qs []table.Rect, mode string) ([]NearestItem, error) {
	return batch[server.NearestResult](ctx, c, "/v1/batch/nearest", mode, queryItems(qs))
}

// AssignBatch queries /v1/batch/assign for each query rectangle.
func (c *Client) AssignBatch(ctx context.Context, qs []table.Rect, mode string) ([]AssignItem, error) {
	return batch[server.AssignResult](ctx, c, "/v1/batch/assign", mode, queryItems(qs))
}

func queryItems(qs []table.Rect) []server.BatchItem {
	items := make([]server.BatchItem, len(qs))
	for i, q := range qs {
		items[i] = server.BatchItem{Q: server.FormatRect(q)}
	}
	return items
}

// batch POSTs one batch request through the retry loop and decodes the
// answer item by item: an errorBody becomes the item's Err, anything
// else its Result.
func batch[T any](ctx context.Context, c *Client, path, mode string, items []server.BatchItem) ([]Item[T], error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("client: empty batch")
	}
	var resp server.BatchResponse
	if err := c.post(ctx, path, &server.BatchRequest{Mode: mode, Items: items}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(items) {
		return nil, fmt.Errorf("client: batch answered %d items for %d queries", len(resp.Items), len(items))
	}
	out := make([]Item[T], len(resp.Items))
	for i, raw := range resp.Items {
		if err := itemError(raw); err != nil {
			out[i].Err = err
			continue
		}
		res := new(T)
		if err := json.Unmarshal(raw, res); err != nil {
			out[i].Err = fmt.Errorf("client: bad item %d: %w", i, err)
			continue
		}
		out[i].Result = res
	}
	return out, nil
}

// itemError reports a per-item server error ({"error": ...}) as an
// error, nil for result payloads.
func itemError(raw json.RawMessage) error {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("client: server answered item error: %s", eb.Error)
	}
	return nil
}
