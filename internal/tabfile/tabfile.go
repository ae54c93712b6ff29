// Package tabfile reads and writes tabular datasets as flat files — the
// storage substrate of the paper's setting, where "tabular data is stored
// and processed in proprietary formats such as compressed flat files".
//
// Two encodings are provided:
//
//   - a compact binary format (magic "TABF", version, dimensions, then
//     row-major little-endian float64 cells, optionally gzip-compressed);
//   - CSV import/export for interoperability.
package tabfile

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/table"
)

// magic identifies the binary format.
var magic = [4]byte{'T', 'A', 'B', 'F'}

const version = 1

// flags
const flagGzip = 1 << 0

// maxCells caps the table a header may claim (2^31 cells = 16 GiB of
// float64). The readers allocate only as the payload delivers cells, so a
// corrupt header within the cap costs nothing either.
const maxCells = 1 << 31

// Write encodes t to w in the binary format, gzip-compressing the cell
// payload when compress is true.
func Write(w io.Writer, t *table.Table, compress bool) error {
	var flags uint32
	if compress {
		flags |= flagGzip
	}
	header := make([]byte, 0, 4+4+8+8+4)
	header = append(header, magic[:]...)
	header = binary.LittleEndian.AppendUint32(header, version)
	header = binary.LittleEndian.AppendUint64(header, uint64(t.Rows()))
	header = binary.LittleEndian.AppendUint64(header, uint64(t.Cols()))
	header = binary.LittleEndian.AppendUint32(header, flags)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("tabfile: writing header: %w", err)
	}
	body := w
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(w)
		body = gz
	}
	bw := bufio.NewWriter(body)
	var buf [8]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("tabfile: writing cells: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tabfile: flushing cells: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("tabfile: closing gzip stream: %w", err)
		}
	}
	return nil
}

// RowReader streams a binary table row by row, so a consumer can copy
// cells straight into their final location (a column range of a wider
// stitched table, say) without ever materializing the whole file as its
// own table. The memory high-water mark is one row.
//
// Nothing is sized from the header: a row's buffer grows rowChunk cells
// at a time as the payload delivers them, so a header claiming a huge
// table costs nothing until its bytes arrive.
type RowReader struct {
	rows, cols int
	row        int
	br         *bufio.Reader
	gz         *gzip.Reader // non-nil when the payload is compressed
	cells      []float64    // reused across Next calls
	buf        []byte       // one chunk of encoded cells
}

// rowChunk is how many cells a row is read in at a time.
const rowChunk = 1024

// NewRowReader parses the header of a table written by Write and returns
// a reader positioned at its first row. Callers must Close it (a no-op
// for uncompressed payloads, the gzip-trailer check otherwise).
func NewRowReader(r io.Reader) (*RowReader, error) {
	header := make([]byte, 4+4+8+8+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("tabfile: reading header: %w", err)
	}
	if [4]byte(header[:4]) != magic {
		return nil, fmt.Errorf("tabfile: bad magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != version {
		return nil, fmt.Errorf("tabfile: unsupported version %d", v)
	}
	rows := binary.LittleEndian.Uint64(header[8:16])
	cols := binary.LittleEndian.Uint64(header[16:24])
	flags := binary.LittleEndian.Uint32(header[24:28])
	// Bound each factor before the product: with rows and cols up to
	// 2^64 the u64 product can wrap past maxCells.
	if rows == 0 || cols == 0 || rows > maxCells || cols > maxCells || rows*cols > maxCells {
		return nil, fmt.Errorf("tabfile: implausible dimensions %dx%d", rows, cols)
	}
	rr := &RowReader{rows: int(rows), cols: int(cols), buf: make([]byte, 8*rowChunk)}
	body := r
	if flags&flagGzip != 0 {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("tabfile: opening gzip stream: %w", err)
		}
		rr.gz = gz
		body = gz
	}
	rr.br = bufio.NewReader(body)
	return rr, nil
}

// Dims returns the table dimensions from the header.
func (rr *RowReader) Dims() (rows, cols int) { return rr.rows, rr.cols }

// Next returns the cells of the next row, or io.EOF after the last row.
// The returned slice is reused by the following Next call — copy it out
// if it must survive. Non-finite cells fail with table.ErrNonFinite, the
// same hardening contract as Read.
func (rr *RowReader) Next() ([]float64, error) {
	var err error
	rr.cells, err = rr.appendRow(rr.cells[:0])
	if err != nil {
		return nil, err
	}
	return rr.cells, nil
}

// Table reads every remaining row into a table, which grows as the rows
// arrive.
func (rr *RowReader) Table() (*table.Table, error) {
	var data []float64
	for rr.row < rr.rows {
		var err error
		if data, err = rr.appendRow(data); err != nil {
			return nil, err
		}
	}
	return table.FromData(rr.rows, rr.cols, data)
}

// appendRow appends the next row's cells to dst, reading them rowChunk
// at a time.
func (rr *RowReader) appendRow(dst []float64) ([]float64, error) {
	if rr.row >= rr.rows {
		return dst, io.EOF
	}
	first := rr.row * rr.cols
	for c := 0; c < rr.cols; {
		buf := rr.buf[:8*min(rowChunk, rr.cols-c)]
		if _, err := io.ReadFull(rr.br, buf); err != nil {
			return dst, fmt.Errorf("tabfile: reading cell %d: %w", first+c, err)
		}
		for i := 0; i < len(buf); i, c = i+8, c+1 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, fmt.Errorf("tabfile: cell %d is %v: %w", first+c, v, table.ErrNonFinite)
			}
			dst = append(dst, v)
		}
	}
	rr.row++
	return dst, nil
}

// Close releases the decompressor, if any.
func (rr *RowReader) Close() error {
	if rr.gz != nil {
		return rr.gz.Close()
	}
	return nil
}

// Read decodes a table written by Write.
func Read(r io.Reader) (*table.Table, error) {
	rr, err := NewRowReader(r)
	if err != nil {
		return nil, err
	}
	defer rr.Close()
	return rr.Table()
}

// WriteFile writes t to path in the binary format.
func WriteFile(path string, t *table.Table, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tabfile: %w", err)
	}
	if err := Write(f, t, compress); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a binary table from path.
func ReadFile(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tabfile: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// WriteCSV emits t as CSV, one table row per record.
func WriteCSV(w io.Writer, t *table.Table) error {
	cw := csv.NewWriter(w)
	record := make([]string, t.Cols())
	for r := 0; r < t.Rows(); r++ {
		row := t.Row(r)
		for c, v := range row {
			record[c] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("tabfile: writing CSV row %d: %w", r, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("tabfile: flushing CSV: %w", err)
	}
	return nil
}

// ReadCSV parses a CSV of numbers into a table. All records must have the
// same number of fields.
func ReadCSV(r io.Reader) (*table.Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate rectangularity ourselves for a better error
	var rows [][]float64
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tabfile: reading CSV: %w", err)
		}
		row := make([]float64, len(record))
		for i, field := range record {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("tabfile: CSV row %d field %d: %w", len(rows), i, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("tabfile: CSV row %d field %d is %v: %w",
					len(rows), i, v, table.ErrNonFinite)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	t, err := table.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("tabfile: %w", err)
	}
	return t, nil
}
