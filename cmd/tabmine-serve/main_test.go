package main

import "testing"

// TestParseColRange pins the -cols grammar: exactly "lo:hi" with
// 0 <= lo < hi <= table width, and nothing after hi.
func TestParseColRange(t *testing.T) {
	const width = 64
	for _, bad := range []string{
		"0:32:64", "0:32x", "0:32 junk", // trailing text
		"32:0", "0:0", "-1:4", // empty or negative range
		"0:65", // past the table width
		"", "0", ":32", "0:",
	} {
		if lo, hi, err := parseColRange(bad, width); err == nil {
			t.Errorf("parseColRange(%q) = [%d, %d), want an error", bad, lo, hi)
		}
	}
	lo, hi, err := parseColRange("0:32", width)
	if err != nil || lo != 0 || hi != 32 {
		t.Fatalf("parseColRange(\"0:32\") = %d, %d, %v; want 0, 32, nil", lo, hi, err)
	}
}
