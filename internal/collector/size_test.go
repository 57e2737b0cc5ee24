package collector

import (
	"testing"
	"unsafe"
)

// TestSlabEntrySizes pins the slab element sizes the corpus's bytes per
// address rest on: times as uint32 seconds make an address record 32
// bytes, a promoted IID record 32 and a span node 24. A field added to
// any of them, or a time widened back to int64, fails here before it
// regrows every record of the corpus.
func TestSlabEntrySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"addrEntry", unsafe.Sizeof(addrEntry{}), 32},
		{"iidEntry", unsafe.Sizeof(iidEntry{}), 32},
		{"spanNode", unsafe.Sizeof(spanNode{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
