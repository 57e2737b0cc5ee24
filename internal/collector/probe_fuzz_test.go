package collector

import (
	"bytes"
	"sync"
	"testing"

	"hitlist6/internal/addr"
)

// FuzzProbeTable's ops. Each is three bytes: the op, a pool index, and
// an argument that picks the sighting's time and server.
const (
	probeOpCollector   = iota // c.ObserveUnix
	probeOpShard              // b.ObserveUnix
	probeOpAbsorb             // c.Absorb(b): moved into an empty c, folded into a live one
	probeOpAbsorbFresh        // b moved into a fresh collector, checked, then absorbed into c
	probeOpRestore            // c replaced by OpenSnapshot of its snapshot
	probeOpRebuild            // rebuildIndex over c's records, plus the key again if present
	probeOps
)

// probeHomeBits is how many low hash bits the colliding keys share: one
// home slot on every table of 16 to 1024 slots.
const probeHomeBits = 10

// The pool's layout: indices [0, 16) share home bits and tag, [16, 24)
// share home bits under other tags, [24, 60) are 3 /64s × 12 IIDs that
// share home bits and tag in the IID table (8 random, 4 EUI-64), [60,
// 62) have hash bits 32..39 zero (tag 0x80: only its high bit tells it
// from an empty slot), and [62, 64) are unconstrained.
var probePool = sync.OnceValue(func() []addr.Addr {
	const mask = 1<<probeHomeBits - 1
	var pool []addr.Addr

	// Addresses, mined by counter scan like the collision workload
	// profile.
	h0 := addr.FromParts(0x2001_0db8_0000_0000, 0).Hash64()
	var other []addr.Addr
	for c := uint64(1); len(pool) < 16 || len(other) < 8; c++ {
		a := addr.FromParts(0x2001_0db8_0000_0000|c>>32, mix64(c))
		h := a.Hash64()
		if h&mask != h0&mask {
			continue
		}
		if hashTag(h) == hashTag(h0) {
			if len(pool) < 16 {
				pool = append(pool, a)
			}
		} else if len(other) < 8 {
			other = append(other, a)
		}
	}
	pool = append(pool, other...)

	// IIDs, the same way through the IID table's hash.
	i0 := mix64(1)
	collides := func(iid addr.IID) bool {
		h := mix64(uint64(iid))
		return h&mask == i0&mask && hashTag(h) == hashTag(i0)
	}
	var random, eui []addr.IID
	for c := uint64(1); len(random) < 8 || len(eui) < 4; c++ {
		if iid := addr.IID(mix64(c ^ 0x1157)); len(random) < 8 && !iid.IsEUI64() && collides(iid) {
			random = append(random, iid)
		}
		mac := addr.MAC{0x02, byte(c >> 32), byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}
		if iid := addr.EUI64FromMAC(mac); len(eui) < 4 && collides(iid) {
			eui = append(eui, iid)
		}
	}
	for p := uint64(0); p < 3; p++ {
		for _, iid := range append(random, eui...) {
			pool = append(pool, addr.FromParts(0x2001_0db8_0100_0000+p, uint64(iid)))
		}
	}

	for c, zero := uint64(1), 0; zero < 2; c++ {
		if a := addr.FromParts(0x2001_0db8_0200_0000|c, mix64(c)); uint8(a.Hash64()>>32) == 0 {
			pool = append(pool, a)
			zero++
		}
	}
	for c := uint64(1); c <= 2; c++ {
		pool = append(pool, addr.FromParts(0x2001_0db8_0300_0000|c, mix64(c+0x5eed)))
	}
	return pool
})

// foldRef folds in into the reference record of k: an address's, or an
// IID's (whose Servers nothing reads).
func foldRef[K comparable](ref map[K]AddrRecord, k K, in AddrRecord) {
	r, ok := ref[k]
	if !ok {
		ref[k] = in
		return
	}
	r.First, r.Last = min(r.First, in.First), max(r.Last, in.Last)
	r.Count += in.Count
	r.Servers |= in.Servers
	ref[k] = r
}

// FuzzProbeTable holds both index tables to map references through
// every way a key reaches them — a sighting in the corpus or in a shard
// collector, a shard moved into an empty collector or folded into a
// live one, a snapshot restore, an index rebuild — over a key pool in
// which most keys share a home slot and a tag byte: the cases where a
// probe has to fall through to the slab to tell keys apart. The IID
// table is built from the corpus after every op and held to the IID
// aggregates and per-/64 spans the address reference implies. Run it
// continuously with:
//
//	go test ./internal/collector -run '^$' -fuzz '^FuzzProbeTable$' -fuzztime 30s -fuzzminimizetime 2s
func FuzzProbeTable(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	op := func(o, k, arg int) { seed = append(seed, byte(o), byte(k), byte(arg)) }
	for k := 0; k < 32; k++ {
		op(probeOpShard, k, k)
	}
	op(probeOpAbsorb, 0, 0)
	op(probeOpRebuild, 40, 0) // absent: keys 0..15 share home and tag, and all go in
	op(probeOpRebuild, 3, 0)  // present: a true duplicate
	for k := 16; k < 64; k++ {
		op(probeOpCollector, k, 255-k)
	}
	for k := 0; k < 64; k += 2 {
		op(probeOpShard, k, k*3)
	}
	op(probeOpAbsorbFresh, 0, 0)
	op(probeOpRestore, 0, 0)
	for k := 0; k < 64; k++ {
		op(probeOpCollector, k, 7)
	}
	for k := 0; k < 16; k++ {
		op(probeOpShard, k, 9)
	}
	op(probeOpAbsorb, 0, 0)
	f.Add(seed)
	// Both tables grown from empty, one sighting at a time, then
	// rebuilt.
	seed = nil
	for k := 63; k >= 0; k-- {
		op(probeOpCollector, k, k)
	}
	op(probeOpRestore, 0, 0)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := probePool()
		c, b := New(), New()
		ref, bufRef := map[addr.Addr]AddrRecord{}, map[addr.Addr]AddrRecord{}
		var total, bufTotal uint64
		absorbed := func() {
			for _, a := range pool {
				if r, ok := bufRef[a]; ok {
					foldRef(ref, a, r)
				}
			}
			total += bufTotal
			bufRef, bufTotal = map[addr.Addr]AddrRecord{}, 0
		}
		for ops := 0; len(data) >= 3 && ops < 512; ops++ {
			k, arg := pool[int(data[1])%len(pool)], data[2]
			ts := int64(1643068800) + int64(int8(arg))*3607
			server := int(arg%41) - 1
			in := AddrRecord{First: ts, Last: ts, Count: 1, Servers: ServerBit(server)}
			switch data[0] % probeOps {
			case probeOpCollector:
				c.ObserveUnix(k, ts, server)
				foldRef(ref, k, in)
				total++
			case probeOpShard:
				b.ObserveUnix(k, ts, server)
				foldRef(bufRef, k, in)
				bufTotal++
			case probeOpAbsorb:
				c.Absorb(b)
				absorbed()
			case probeOpAbsorbFresh:
				d := New()
				d.Absorb(b)
				checkProbeCollector(t, d, bufRef, bufTotal, pool)
				c.Absorb(d)
				absorbed()
			case probeOpRestore:
				var snap bytes.Buffer
				if err := c.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				r, err := OpenSnapshot(&snap)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				c = r
			case probeOpRebuild:
				var tb addrTable
				for _, a := range pool {
					if r, ok := ref[a]; ok {
						*tb.addrRecs.at(tb.addrRecs.alloc()) = addrEntry{key: a, rec: narrow(r)}
					}
				}
				_, dup := ref[k]
				if dup {
					tb.addrRecs.at(tb.addrRecs.alloc()).key = k
				}
				if err := tb.rebuildIndex(); (err != nil) != dup {
					t.Fatalf("rebuildIndex with key %v duplicated=%v: err %v", k, dup, err)
				}
				if !dup {
					checkProbeTable(t, &tb, ref, pool)
				}
			}
			data = data[3:]
			checkProbeCollector(t, c, ref, total, pool)
			checkProbeTable(t, &b.addrTable, bufRef, pool)
		}
	})
}

// checkProbeTable holds an address table to its reference at every pool
// key, present or absent.
func checkProbeTable(t *testing.T, tb *addrTable, ref map[addr.Addr]AddrRecord, pool []addr.Addr) {
	t.Helper()
	if int(tb.addrRecs.n) != len(ref) {
		t.Fatalf("table holds %d records, reference %d", tb.addrRecs.n, len(ref))
	}
	for _, a := range pool {
		i, _, ok := tb.findAddr(a, a.Hash64())
		want, wok := ref[a]
		if ok != wok || ok && tb.addrRecs.at(i).rec.record() != want {
			t.Fatalf("table lookup %v: found %v, want %v %+v", a, ok, wok, want)
		}
	}
}

// probeIID is the reference for one IID: the fold of its addresses'
// records, and for an EUI-64 IID the fold per /64.
type probeIID struct {
	rec   AddrRecord
	spans map[addr.Prefix64]Span
}

// checkProbeCollector holds a collector to its address reference — Get
// at every pool key — and an IIDTable built from it to the IID state
// that reference implies: each IID's record is the fold of its
// addresses' records, an EUI-64 IID is tracked with one span per /64 it
// appeared in, GetIID finds exactly the IIDs present, and IIDs visits
// each once.
func checkProbeCollector(t *testing.T, c *Collector, ref map[addr.Addr]AddrRecord, total uint64, pool []addr.Addr) {
	t.Helper()
	if c.NumAddrs() != len(ref) || c.TotalObservations() != total {
		t.Fatalf("addrs/total %d/%d, reference %d/%d", c.NumAddrs(), c.TotalObservations(), len(ref), total)
	}
	iids := map[addr.IID]*probeIID{}
	for _, a := range pool {
		got, ok := c.Get(a)
		want, wok := ref[a]
		if ok != wok || got != want {
			t.Fatalf("Get %v = %+v %v, want %+v %v", a, got, ok, want, wok)
		}
		if !wok {
			continue
		}
		r := iids[a.IID()]
		if r == nil {
			r = &probeIID{rec: want}
			if a.IID().IsEUI64() {
				r.spans = map[addr.Prefix64]Span{}
			}
			iids[a.IID()] = r
		} else {
			r.rec.First, r.rec.Last = min(r.rec.First, want.First), max(r.rec.Last, want.Last)
			r.rec.Count += want.Count
		}
		if r.spans != nil {
			sp, seen := r.spans[a.P64()]
			if !seen {
				sp = Span{First: want.First, Last: want.Last}
			}
			r.spans[a.P64()] = Span{First: min(sp.First, want.First), Last: max(sp.Last, want.Last)}
		}
	}
	tb := c.CopyRecords().IIDTable()
	if tb.NumIIDs() != len(iids) {
		t.Fatalf("NumIIDs %d, reference %d", tb.NumIIDs(), len(iids))
	}
	for _, a := range pool {
		v, ok := tb.GetIID(a.IID())
		want, wok := iids[a.IID()]
		if ok != wok {
			t.Fatalf("GetIID %016x found %v, want %v", uint64(a.IID()), ok, wok)
		}
		if !ok {
			continue
		}
		if v.First() != want.rec.First || v.Last() != want.rec.Last || v.Count() != want.rec.Count {
			t.Fatalf("GetIID %016x = %d/%d/%d, want %+v", uint64(a.IID()), v.First(), v.Last(), v.Count(), want.rec)
		}
		if v.Tracked() != (want.spans != nil) || v.NumP64s() != len(want.spans) {
			t.Fatalf("IID %016x tracked %v over %d /64s, want %v over %d",
				uint64(a.IID()), v.Tracked(), v.NumP64s(), want.spans != nil, len(want.spans))
		}
		sp, ok := v.Span(a.P64())
		if wsp, wok := want.spans[a.P64()]; ok != wok || sp != wsp {
			t.Fatalf("IID %016x span in %v = %+v %v, want %+v %v", uint64(a.IID()), a.P64(), sp, ok, wsp, wok)
		}
		n := 0
		v.P64s(func(p addr.Prefix64, sp Span) bool {
			if want.spans[p] != sp {
				t.Fatalf("IID %016x P64s visits %v %+v, want %+v", uint64(a.IID()), p, sp, want.spans[p])
			}
			n++
			return true
		})
		if n != len(want.spans) {
			t.Fatalf("IID %016x P64s visits %d of %d", uint64(a.IID()), n, len(want.spans))
		}
	}
	seen := map[addr.IID]bool{}
	tb.IIDs(func(iid addr.IID, v IIDView) bool {
		if _, ok := iids[iid]; !ok || seen[iid] {
			t.Fatalf("IIDs visits %016x (in reference %v, seen before %v)", uint64(iid), ok, seen[iid])
		}
		seen[iid] = true
		return true
	})
	if len(seen) != len(iids) {
		t.Fatalf("IIDs visits %d of %d", len(seen), len(iids))
	}
}
