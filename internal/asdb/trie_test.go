package asdb

import (
	"fmt"
	"sync"
	"testing"

	"hitlist6/internal/addr"
)

// nodeTrie is a binary radix trie over address bits, one node per bit:
// the pointer tree Trie used to be. It stays here as the oracle for
// Walk's order (pre-order, child 0 before child 1).
type nodeTrie[V any] struct {
	child [2]*nodeTrie[V]
	val   V
	has   bool
}

func bitAt(a addr.Addr, i int) int {
	return int(a[i/8]>>(7-i%8)) & 1
}

func (n *nodeTrie[V]) insert(p addr.Prefix, v V) {
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(a, i)
		if n.child[b] == nil {
			n.child[b] = &nodeTrie[V]{}
		}
		n = n.child[b]
	}
	n.val, n.has = v, true
}

func (n *nodeTrie[V]) walk(a addr.Addr, depth int, fn func(p addr.Prefix, v V)) {
	if n == nil {
		return
	}
	if n.has {
		fn(addr.MustPrefix(a, depth), n.val)
	}
	if depth == 128 {
		return
	}
	n.child[0].walk(a, depth+1, fn)
	a[depth/8] |= 1 << (7 - depth%8)
	n.child[1].walk(a, depth+1, fn)
}

// linearLPM is the lookup oracle: a scan of every route for the longest
// one containing a.
func linearLPM[V any](routes map[addr.Prefix]V, a addr.Addr) (V, bool) {
	var best V
	bestBits, found := -1, false
	for p, v := range routes {
		if p.Contains(a) && p.Bits() > bestBits {
			best, bestBits, found = v, p.Bits(), true
		}
	}
	return best, found
}

// prefixEnds returns the first and last address of p.
func prefixEnds(p addr.Prefix) (first, last addr.Addr) {
	first, last = p.Addr(), p.Addr()
	for i := p.Bits(); i < 128; i++ {
		last[i/8] |= 1 << (7 - i%8)
	}
	return first, last
}

// step adds d (±1) to a, wrapping at both ends of the address space.
func step(a addr.Addr, d int) addr.Addr {
	hi, lo := a.Hi(), a.Lo()
	if d > 0 {
		lo++
		if lo == 0 {
			hi++
		}
	} else {
		if lo == 0 {
			hi--
		}
		lo--
	}
	return addr.FromParts(hi, lo)
}

// fuzzAddr spreads three bytes over an address so masked prefixes nest
// and neighbour often: byte 0 (the top bits), the last byte of each half
// (either side of /64), and the last byte (/121../128).
func fuzzAddr(x, y, z byte) addr.Addr {
	var a addr.Addr
	a[0], a[7], a[8], a[15] = x, y, y^z, z
	return a
}

const (
	lpmOpInsert = iota
	lpmOpLookup
	lpmNumOps
)

// FuzzTrieLPM runs an op sequence of Insert and Lookup, four bytes an op
// (kind, then three address bytes; an insert's length is the last byte
// mod 129), and after every op checks Len, LookupPrefix and lookups at
// and around the touched prefix against a linear scan of every route.
// Lookups between inserts make each insert land on a compiled table, so
// a stale table served after Insert fails here. At the end Walk must
// visit the routes in the node trie's order with the same values. Only
// the first 128 ops run: each lookup after an insert recompiles the
// table, so long inputs would cost quadratic time without finding more.
func FuzzTrieLPM(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	op := func(o int, x, y, z byte) { seed = append(seed, byte(o), x, y, z) }
	op(lpmOpInsert, 0x20, 0, 0)          // ::/0
	op(lpmOpLookup, 0xff, 0xff, 0xff)    // compile
	op(lpmOpInsert, 0x20, 0x01, 128)     // /128 inside it
	op(lpmOpLookup, 0x20, 0x01, 128)     // a stale table would miss it
	op(lpmOpInsert, 0x20, 0x01, 8)       // 2000::/8
	op(lpmOpInsert, 0x21, 0x01, 8)       // 2100::/8, its sibling
	op(lpmOpInsert, 0x20, 0x01, 64)      // nested /64
	op(lpmOpInsert, 0x20, 0x01, 64+129)  // replaced (bits 64 again)
	op(lpmOpInsert, 0xff, 0xff, 255%129) // a /126 at the top
	op(lpmOpInsert, 0xff, 0xff, 128)     // the last address
	op(lpmOpLookup, 0xff, 0xff, 0xfe)
	op(lpmOpInsert, 0x00, 0x00, 128) // the first address
	op(lpmOpLookup, 0x00, 0x00, 0x01)
	f.Add(seed)
	seed = nil
	for i := 0; i < 40; i++ {
		op(lpmOpInsert, byte(i*7), byte(i), byte(i*13))
		op(lpmOpLookup, byte(i*7), byte(i+1), byte(i*5))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrie[int]()
		model := map[addr.Prefix]int{}
		var order []addr.Prefix
		if len(data) > 4*128 {
			data = data[:4*128]
		}
		check := func(a addr.Addr) {
			t.Helper()
			wantV, wantOK := linearLPM(model, a)
			if gotV, gotOK := tr.Lookup(a); gotOK != wantOK || gotV != wantV {
				t.Fatalf("Lookup(%s): got %d/%v want %d/%v", a, gotV, gotOK, wantV, wantOK)
			}
		}
		for i := 0; i+4 <= len(data); i += 4 {
			x, y, z := data[i+1], data[i+2], data[i+3]
			switch int(data[i]) % lpmNumOps {
			case lpmOpInsert:
				p := addr.MustPrefix(fuzzAddr(x, y, z), int(z)%129)
				if _, dup := model[p]; !dup {
					order = append(order, p)
				}
				model[p] = i
				tr.Insert(p, i)
				if v, ok := tr.LookupPrefix(p); !ok || v != i {
					t.Fatalf("LookupPrefix(%s): got %d/%v want %d", p, v, ok, i)
				}
				first, last := prefixEnds(p)
				for _, a := range []addr.Addr{first, last, step(first, -1), step(last, 1)} {
					check(a)
				}
			case lpmOpLookup:
				check(fuzzAddr(x, y, z))
				check(fuzzAddr(x, z, y))
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len %d, want %d", tr.Len(), len(model))
			}
		}

		oracle := &nodeTrie[int]{}
		for _, p := range order {
			oracle.insert(p, model[p])
		}
		var want, got []string
		oracle.walk(addr.Addr{}, 0, func(p addr.Prefix, v int) { want = append(want, fmt.Sprint(p, "=", v)) })
		tr.Walk(func(p addr.Prefix, v int) bool { got = append(got, fmt.Sprint(p, "=", v)); return true })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Walk order:\n got %v\nwant %v", got, want)
		}
	})
}

// FuzzTrieMemo runs FuzzTrieLPM's op sequences against a Memo kept
// across the whole run and requires every memo answer to equal Lookup's.
// Before each insert the memo looks up the prefix's first address, so
// the insert lands on a memo holding the segment it changes; the checks
// right after it fail if the memo answers from the replaced table.
// After every op it checks :: and the last address, and at the end every
// segment edge of the final table from both sides.
func FuzzTrieMemo(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	op := func(o int, x, y, z byte) { seed = append(seed, byte(o), x, y, z) }
	op(lpmOpLookup, 0x20, 0x01, 128) // memo an empty table's one segment
	op(lpmOpInsert, 0x20, 0x01, 8)   // 2000::/8 inside it
	op(lpmOpInsert, 0x20, 0x01, 128) // a /128 inside that
	op(lpmOpLookup, 0x20, 0x01, 128)
	op(lpmOpInsert, 0x00, 0x00, 0)   // ::/0
	op(lpmOpInsert, 0xff, 0xff, 128) // the last address
	op(lpmOpInsert, 0x00, 0x00, 128) // the first address
	f.Add(seed)
	seed = nil
	for i := 0; i < 40; i++ {
		op(lpmOpInsert, byte(i*7), byte(i), byte(i*13))
		op(lpmOpLookup, byte(i*7), byte(i+1), byte(i*5))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrie[int]()
		m := tr.NewMemo()
		if len(data) > 4*128 {
			data = data[:4*128]
		}
		check := func(a addr.Addr) {
			t.Helper()
			gotV, gotOK := m.Lookup(a)
			if wantV, wantOK := tr.Lookup(a); gotOK != wantOK || gotV != wantV {
				t.Fatalf("Memo.Lookup(%s): got %d/%v want %d/%v", a, gotV, gotOK, wantV, wantOK)
			}
		}
		top := addr.FromParts(^uint64(0), ^uint64(0))
		for i := 0; i+4 <= len(data); i += 4 {
			x, y, z := data[i+1], data[i+2], data[i+3]
			switch int(data[i]) % lpmNumOps {
			case lpmOpInsert:
				p := addr.MustPrefix(fuzzAddr(x, y, z), int(z)%129)
				first, last := prefixEnds(p)
				m.Lookup(first)
				tr.Insert(p, i)
				for _, a := range []addr.Addr{first, last, step(first, -1), step(last, 1)} {
					check(a)
				}
			case lpmOpLookup:
				check(fuzzAddr(x, y, z))
				check(fuzzAddr(x, z, y))
			}
			check(addr.Addr{})
			check(top)
		}
		for _, s := range tr.table().segs {
			a := addr.FromParts(s.start.hi, s.start.lo)
			check(a)
			check(step(a, -1))
			check(a)
		}
	})
}

// TestTrieConcurrentFirstLookup has eight goroutines make the first
// Lookup on a freshly filled table at once, then again after an Insert
// cleared the compiled table. Run under -race it checks that the lazy
// compile is published safely; every answer must match the linear scan.
func TestTrieConcurrentFirstLookup(t *testing.T) {
	tr := NewTrie[int]()
	model := map[addr.Prefix]int{}
	insert := func(p addr.Prefix, v int) { tr.Insert(p, v); model[p] = v }
	var probes []addr.Addr
	for i := 0; i < 400; i++ {
		p := addr.MustPrefix(fuzzAddr(byte(i*37), byte(i), byte(i*11)), 8+i%121)
		insert(p, i)
		first, last := prefixEnds(p)
		probes = append(probes, first, last, step(last, 1))
	}
	for round := 0; round < 2; round++ {
		want := make([]int, len(probes))
		for i, a := range probes {
			v, ok := linearLPM(model, a)
			if !ok {
				v = -1
			}
			want[i] = v
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := range probes {
					i := (j + g*len(probes)/8) % len(probes)
					v, ok := tr.Lookup(probes[i])
					if !ok {
						v = -1
					}
					if v != want[i] {
						errs <- fmt.Errorf("round %d goroutine %d: Lookup(%s) = %d, want %d", round, g, probes[i], v, want[i])
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		insert(addr.MustParsePrefix("::/0"), 1000+round)
	}
}
