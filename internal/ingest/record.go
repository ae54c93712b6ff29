package ingest

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tabfile"
	"repro/internal/table"
)

// The pushed-record wire format carried by POST /v1/ingest bodies and
// emitted by tabmine-ingest: a fixed header naming the day, then the
// day's columns as a standard TABF table (so the payload reuses the
// tabfile hardening — magic, version, dimension bounds, finiteness).
//
//	offset  size  field
//	0       4     magic "TREC"
//	4       4     u32 version (1)
//	8       2     u16 label length L (1..maxLabelLen)
//	10      L     day label (printable ASCII, no '/' — it names a
//	              manifest entry, not a path, but a hostile label must
//	              not traverse directories if one ever leaks into a name)
//	10+L    ...   TABF table (optionally gzip-compressed per its flags)

var recordMagic = [4]byte{'T', 'R', 'E', 'C'}

const (
	recordVersion = 1
	maxLabelLen   = 256
	// maxRecordCells bounds one pushed day (8 MiB of float64). The
	// tabfile format's own 2^31-cell cap protects in-process readers of
	// trusted files; a record header arrives from the network, so its
	// claimed dimensions must not force a huge allocation up front.
	maxRecordCells = 1 << 20
	// maxRecordDayCols bounds the time axis of one record: days arrive
	// a handful of columns at a time (the paper's day is 144 ten-minute
	// intervals), never thousands.
	maxRecordDayCols = 4096
)

// WriteRecord frames one day for pushing: label header then the table
// in TABF encoding (gzip-compressed when compress is set).
func WriteRecord(w io.Writer, label string, t *table.Table, compress bool) error {
	if err := checkLabel(label); err != nil {
		return err
	}
	header := make([]byte, 0, 4+4+2+len(label))
	header = append(header, recordMagic[:]...)
	header = binary.LittleEndian.AppendUint32(header, recordVersion)
	header = binary.LittleEndian.AppendUint16(header, uint16(len(label)))
	header = append(header, label...)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("ingest: writing record header: %w", err)
	}
	return tabfile.Write(w, t, compress)
}

// ReadRecord parses one pushed record: the label and the day table.
func ReadRecord(r io.Reader) (string, *table.Table, error) {
	header := make([]byte, 4+4+2)
	if _, err := io.ReadFull(r, header); err != nil {
		return "", nil, fmt.Errorf("ingest: reading record header: %w", err)
	}
	if [4]byte(header[:4]) != recordMagic {
		return "", nil, fmt.Errorf("ingest: bad record magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != recordVersion {
		return "", nil, fmt.Errorf("ingest: unsupported record version %d", v)
	}
	n := int(binary.LittleEndian.Uint16(header[8:10]))
	if n == 0 || n > maxLabelLen {
		return "", nil, fmt.Errorf("ingest: implausible label length %d", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return "", nil, fmt.Errorf("ingest: reading label: %w", err)
	}
	label := string(raw)
	if err := checkLabel(label); err != nil {
		return "", nil, err
	}
	rr, err := tabfile.NewRowReader(r)
	if err != nil {
		return "", nil, err
	}
	defer rr.Close()
	rows, cols := rr.Dims()
	if rows*cols > maxRecordCells || cols > maxRecordDayCols {
		return "", nil, fmt.Errorf("ingest: record claims %dx%d cells, above the %d-cell/%d-col record bounds",
			rows, cols, maxRecordCells, maxRecordDayCols)
	}
	t, err := rr.Table()
	if err != nil {
		return "", nil, err
	}
	return label, t, nil
}

func checkLabel(label string) error {
	if label == "" || len(label) > maxLabelLen {
		return fmt.Errorf("ingest: label length %d outside [1, %d]", len(label), maxLabelLen)
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c < 0x21 || c > 0x7e || c == '/' || c == '\\' {
			return fmt.Errorf("ingest: label %q contains byte %#02x (want printable ASCII, no separators)", label, c)
		}
	}
	return nil
}
