//go:build !unix

package segstore

import (
	"os"
	"unsafe"
)

// mapFile on platforms without mmap support reads the whole file into
// an 8-byte-aligned heap buffer — same bytes, same lifecycle, no paging
// benefit. Alignment comes from backing the byte view with []uint64 so
// the lane reinterpretation in laneView stays legal.
func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if size == 0 {
		return nil, false, nil
	}
	words := make([]uint64, (size+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, false, err
	}
	return b, false, nil
}

func unmapFile(data []byte, mapped bool) error { return nil }
