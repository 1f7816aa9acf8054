// The race detector turns on checkptr, which rejects a slice header longer
// than the memory behind it, so this test runs without -race only.

//go:build !race

package dataframe

import (
	"strings"
	"testing"
	"unsafe"
)

// TestTakeAtInt32Limit checks that Take, and so Filter, FilterMask and Head,
// keeps the row limit every table build keeps. A table without columns reads
// none of idx, so a slice header of MaxRows+1 ids over one int allocates
// nothing: it must panic, naming Take and the limit, while MaxRows ids are
// taken.
func TestTakeAtInt32Limit(t *testing.T) {
	var one int
	empty := &Table{index: map[string]int{}}
	if got := empty.Take(unsafe.Slice(&one, MaxRows)).NumRows(); got != MaxRows {
		t.Fatalf("Take of MaxRows ids: %d rows, want %d", got, MaxRows)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Take") || !strings.Contains(msg, "2147483647-row table limit") {
			t.Fatalf("Take of MaxRows+1 ids: panic %q, want one naming Take and the limit", msg)
		}
	}()
	empty.Take(unsafe.Slice(&one, MaxRows+1))
}
