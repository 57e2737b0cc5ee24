package collector

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/addr"
)

func TestServerBitSaturation(t *testing.T) {
	cases := []struct {
		server int
		want   uint32
	}{
		{-5, 0},
		{-1, 0},
		{0, 1},
		{26, 1 << 26},
		{MaxServers - 1, 1 << (MaxServers - 1)},
		{MaxServers, 1 << (MaxServers - 1)},      // saturates, no silent shift-out
		{MaxServers + 40, 1 << (MaxServers - 1)}, // far beyond: same top bit
	}
	for _, c := range cases {
		if got := ServerBit(c.server); got != c.want {
			t.Errorf("ServerBit(%d) = %#x, want %#x", c.server, got, c.want)
		}
	}

	// Observe must agree with ServerBit at and beyond the cap.
	col := New()
	a := addr.MustParse("2001:db8::7")
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	col.Observe(a, base, MaxServers+3)
	col.Observe(a, base, -1)
	if r, _ := col.Get(a); r.Servers != 1<<(MaxServers-1) {
		t.Errorf("Servers mask %#x, want top bit only", r.Servers)
	}
}

// storeChecksum is the canonical checksum of a store's merged corpus.
func storeChecksum(s *Store) (sum [32]byte) {
	s.View(func(c *Collector) { sum = c.Checksum() })
	return sum
}

// storeTotal is a store's merged sighting count.
func storeTotal(s *Store) (n uint64) {
	s.View(func(c *Collector) { n = c.TotalObservations() })
	return n
}

func TestStoreMergesAndReads(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	s := NewStore()
	if s.NumAddrs() != 0 || storeTotal(s) != 0 {
		t.Fatal("new store not empty")
	}

	shard1, shard2 := New(), New()
	shard1.ObserveUnix(addr.MustParse("2001:db8::1"), base, 0)
	shard1.ObserveUnix(addr.MustParse("2001:db8::2"), base+10, 1)
	shard2.ObserveUnix(addr.MustParse("2001:db8::1"), base+20, 2)

	s.ApplyShard(shard1)
	s.ApplyShard(shard2)
	s.ApplyShard(nil) // no-op

	if s.NumAddrs() != 2 || storeTotal(s) != 3 {
		t.Errorf("addrs=%d obs=%d", s.NumAddrs(), storeTotal(s))
	}
	s.View(func(c *Collector) {
		r, ok := c.Get(addr.MustParse("2001:db8::1"))
		if !ok || r.Count != 2 || r.Servers != ServerBit(0)|ServerBit(2) {
			t.Errorf("merged record: %+v", r)
		}
	})

	detached := s.Detach()
	if detached.NumAddrs() != 2 {
		t.Error("detached corpus incomplete")
	}
	if s.NumAddrs() != 0 || storeTotal(s) != 0 {
		t.Error("store not reset after Detach")
	}
}

// TestStoreReuseAfterDetach pins the Detach contract: the store resets to
// an empty-but-live state, so a daemon can hand one collection run to the
// analysis layer and keep ingesting into the same store.
func TestStoreReuseAfterDetach(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	s := NewStore()
	first := New()
	first.ObserveUnix(addr.MustParse("2001:db8::1"), base, 0)
	s.ApplyShard(first)

	detached := s.Detach()
	if detached.NumAddrs() != 1 {
		t.Fatal("detached corpus incomplete")
	}

	// The detached collector is the caller's: keep using it.
	detached.ObserveUnix(addr.MustParse("2001:db8::2"), base+1, 1)
	if detached.NumAddrs() != 2 {
		t.Error("detached collector not writable")
	}

	// The store must accept a fresh round of shards and views.
	second := New()
	second.ObserveUnix(addr.MustParse("2400:cb00::1"), base+2, 2)
	s.ApplyShard(second)
	if s.NumAddrs() != 1 || storeTotal(s) != 1 {
		t.Errorf("post-detach store: addrs=%d obs=%d", s.NumAddrs(), storeTotal(s))
	}
	s.View(func(c *Collector) {
		if _, ok := c.Get(addr.MustParse("2001:db8::1")); ok {
			t.Error("detached corpus leaked back into the store")
		}
		if _, ok := c.Get(addr.MustParse("2400:cb00::1")); !ok {
			t.Error("post-detach shard missing from view")
		}
	})

	// Writes to the detached collector must never surface in the store
	// (and vice versa): Detach is a handoff, not a shared view.
	sum := storeChecksum(s)
	detached.ObserveUnix(addr.MustParse("2001:db8::3"), base+3, 3)
	if storeChecksum(s) != sum {
		t.Error("detached collector aliases the store")
	}

	if d2 := s.Detach(); d2.NumAddrs() != 1 {
		t.Errorf("second detach: %d addrs", d2.NumAddrs())
	}
	if s.NumAddrs() != 0 {
		t.Error("store not reset after second Detach")
	}
}

// TestStoreConcurrentAccess drives one writer against several readers;
// meaningful under -race.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.NumAddrs()
				s.View(func(c *Collector) {
					c.AddrsRange(0, c.NumAddrs(), func(addr.Addr, AddrRecord) bool { return false })
					_ = c.CopyRecords().IIDTable().NumIIDs()
				})
			}
		}()
	}
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	for i := 0; i < 50; i++ {
		part := New()
		part.ObserveUnix(addr.FromParts(0x20010db8<<32, uint64(i)), base+int64(i), i%MaxServers)
		s.ApplyShard(part)
	}
	close(stop)
	readers.Wait()
	if s.NumAddrs() != 50 {
		t.Errorf("addrs %d, want 50", s.NumAddrs())
	}
}

func TestCanonicalEncodingOrderIndependent(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	mac := addr.MAC{0xf0, 0x02, 0x20, 9, 8, 7}
	eui := addr.EUI64FromMAC(mac)
	obs := []struct {
		a      addr.Addr
		at     time.Time
		server int
	}{
		{addr.MustParse("2001:db8::1"), base, 0},
		{addr.MustParse("2001:db8::2"), base.Add(time.Hour), 3},
		{addr.FromParts(0x20010db8_00010000, uint64(eui)), base, 5},
		{addr.FromParts(0x20010db8_00020000, uint64(eui)), base.Add(24 * time.Hour), 6},
		{addr.MustParse("2001:db8::1"), base.Add(2 * time.Hour), 1},
	}

	forward, reverse := New(), New()
	for _, o := range obs {
		forward.Observe(o.a, o.at, o.server)
	}
	for i := len(obs) - 1; i >= 0; i-- {
		reverse.Observe(obs[i].a, obs[i].at, obs[i].server)
	}

	var fb, rb bytes.Buffer
	if err := forward.WriteCanonical(&fb); err != nil {
		t.Fatal(err)
	}
	if err := reverse.WriteCanonical(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), rb.Bytes()) {
		t.Error("canonical encoding depends on insertion order")
	}
	if forward.Checksum() != reverse.Checksum() {
		t.Error("checksums differ across insertion orders")
	}

	// A single extra sighting must change the checksum.
	reverse.Observe(addr.MustParse("2001:db8::3"), base, 0)
	if forward.Checksum() == reverse.Checksum() {
		t.Error("checksum blind to an extra observation")
	}
}
