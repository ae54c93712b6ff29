package segstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
)

// manifestName is the segment manifest file inside a segment directory.
const manifestName = "segments.json"

// Entry names one live segment in the manifest: its file (base name
// only — traversal names are rejected), compaction level, unique
// sequence number, absolute column range [T0, T1), whole-file CRC32C,
// and on-disk size. The manifest's entries tile [BaseCol, sealed end)
// contiguously in column order.
type Entry struct {
	File  string `json:"file"`
	Level int    `json:"level"`
	Seq   uint64 `json:"seq"`
	T0    int    `json:"t0"`
	T1    int    `json:"t1"`
	CRC   uint32 `json:"crc32c"`
	Bytes int64  `json:"bytes"`
}

// Cols returns the segment's column count.
func (e Entry) Cols() int { return e.T1 - e.T0 }

// manifestParams is the JSON form of Params.
type manifestParams struct {
	P          float64 `json:"p"`
	K          int     `json:"k"`
	Rows       int     `json:"rows"`
	Seed       uint64  `json:"seed"`
	MinLogRows int     `json:"min_log_rows"`
	MaxLogRows int     `json:"max_log_rows"`
	MinLogCols int     `json:"min_log_cols"`
	MaxLogCols int     `json:"max_log_cols"`
	PanelCols  int     `json:"panel_cols"`
}

func toManifestParams(p Params) manifestParams {
	return manifestParams{P: p.P, K: p.K, Rows: p.Rows, Seed: p.Seed,
		MinLogRows: p.MinLogRows, MaxLogRows: p.MaxLogRows,
		MinLogCols: p.MinLogCols, MaxLogCols: p.MaxLogCols,
		PanelCols: p.PanelCols}
}

func (mp manifestParams) params() Params {
	return Params{P: mp.P, K: mp.K, Rows: mp.Rows, Seed: mp.Seed,
		MinLogRows: mp.MinLogRows, MaxLogRows: mp.MaxLogRows,
		MinLogCols: mp.MinLogCols, MaxLogCols: mp.MaxLogCols,
		PanelCols: mp.PanelCols}
}

// manifest is the JSON document naming the live segment set. BaseCol is
// recorded explicitly (not derived from the first segment) so an empty
// or fully trimmed store still knows where its window starts.
type manifest struct {
	Version  int            `json:"version"`
	Params   manifestParams `json:"params"`
	BaseCol  int            `json:"base_col"`
	NextSeq  uint64         `json:"next_seq"`
	Segments []Entry        `json:"segments"`
}

// sealedCol returns the exclusive absolute column up to which segments
// exist (BaseCol for an empty set).
func (m *manifest) sealedCol() int {
	if len(m.Segments) == 0 {
		return m.BaseCol
	}
	return m.Segments[len(m.Segments)-1].T1
}

// validate checks structure: version, parameters, safe file names, and
// a contiguous, aligned, positive-width segment tiling from BaseCol.
func (m *manifest) validate() error {
	if m.Version != 1 {
		return fmt.Errorf("segstore: unsupported manifest version %d", m.Version)
	}
	p := m.Params.params()
	if err := p.validate(); err != nil {
		return err
	}
	align := p.SegAlign()
	if m.BaseCol < 0 || m.BaseCol%align != 0 {
		return fmt.Errorf("segstore: manifest base_col %d negative or not aligned to %d", m.BaseCol, align)
	}
	at := m.BaseCol
	seen := make(map[uint64]bool, len(m.Segments))
	names := make(map[string]bool, len(m.Segments))
	for i, e := range m.Segments {
		if e.File == "" || e.File != filepath.Base(e.File) || atomicio.IsTemp(e.File) {
			return fmt.Errorf("segstore: manifest entry %d has unsafe file name %q", i, e.File)
		}
		if names[e.File] {
			return fmt.Errorf("segstore: manifest names %q twice", e.File)
		}
		names[e.File] = true
		if e.Cols() <= 0 {
			return fmt.Errorf("segstore: segment %q spans [%d,%d): zero or negative column count",
				e.File, e.T0, e.T1)
		}
		if e.T0 != at {
			return fmt.Errorf("segstore: segment %q starts at %d, want contiguous %d", e.File, e.T0, at)
		}
		if e.T0%align != 0 || e.T1%align != 0 {
			return fmt.Errorf("segstore: segment %q range [%d,%d) not aligned to %d", e.File, e.T0, e.T1, align)
		}
		if e.Seq >= m.NextSeq || seen[e.Seq] {
			return fmt.Errorf("segstore: segment %q has invalid or duplicate seq %d", e.File, e.Seq)
		}
		seen[e.Seq] = true
		if e.Bytes <= 0 {
			return fmt.Errorf("segstore: segment %q records non-positive size %d", e.File, e.Bytes)
		}
		at = e.T1
	}
	return nil
}

// readManifest loads and structurally validates dir's manifest.
func readManifest(dir string) (*manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m manifest
	dec := json.NewDecoder(io.LimitReader(f, 64<<20))
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("segstore: decoding manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(dir string, m *manifest) error {
	if err := m.validate(); err != nil {
		return fmt.Errorf("segstore: refusing to write invalid manifest: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}
