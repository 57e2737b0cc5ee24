package collector

import (
	"bytes"
	"fmt"
	"testing"

	"hitlist6/internal/addr"
)

// Merge is a fold of the one write core over a donor's address records,
// and a restored snapshot is nothing but those records. The property
// both rest on: however a stream is cut into donors, whether each donor
// is live or arrives as snapshot bytes, whatever order they land in and
// whatever the store already held, the result is the serial
// collector's — and the dirty marks the fold leaves are the ones a
// delta checkpoint needs.

// foldStream is a seeded stream carrying every IID shape the fold has a
// branch for: EUI-64 interfaces moving across /64s, ::1 under many
// /64s, random IIDs that a second address promotes (which donor holds
// which address depends on the cut), plain singletons, timestamps that
// run backwards, and server indices past MaxServers. pool is how many
// interfaces the EUI-64 events draw from. With few, each moves across
// all 48 /64s. With more than 48 each stays in one /64, so re-sighting
// one updates its promoted record and span in place and nothing else —
// and thousands of them outgrow a delta block in both slabs.
func foldStream(seed uint64, n, pool int) (addrs []addr.Addr, times []int64, servers []int) {
	state := seed
	macs := make([]addr.MAC, pool)
	for i := range macs {
		v := splitmix64(&state)
		macs[i] = addr.MAC{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40)}
	}
	shared := make([]uint64, 4*pool)
	for i := range shared {
		shared[i] = splitmix64(&state) &^ 0x0000_00ff_fe00_0000 // never EUI-64 shaped
	}
	for i := 0; i < n; i++ {
		r := splitmix64(&state)
		hi := 0x2001_0db8_0000_0000 | (r>>40)%48<<16
		var lo uint64
		switch r % 5 {
		case 0:
			m := (r >> 8) % uint64(pool)
			lo = uint64(addr.EUI64FromMAC(macs[m]))
			if pool > 48 {
				hi = 0x2001_0db8_0000_0000 | m%48<<16
			}
		case 1:
			lo = 1
		case 2:
			lo = shared[(r>>8)%uint64(len(shared))]
			hi = 0x2001_0db8_0000_0000 | (r>>40)%3<<16
		case 3:
			lo = (r >> 8) % 64 // small pool: the same address again and again
			hi = 0x2001_0db8_0000_0000 | (r>>40)%4<<16
		default:
			lo = splitmix64(&state)
		}
		addrs = append(addrs, addr.FromParts(hi, lo))
		times = append(times, 1643068800+int64(i)*11-int64(r>>20)%5000)
		servers = append(servers, int(r>>12)%40-1)
	}
	return
}

// foldPlan says how one stream becomes a seeded store plus donors.
type foldPlan struct {
	seeded int   // events [0, seeded) are in the store before any donor
	cuts   []int // non-decreasing cut points in [seeded, n]: len(cuts)+1 donors, equal neighbours an empty one
	order  []int // the order donors land in (a permutation)
	bufs   uint  // bit d set: donor d is snapshotted and restored before it lands, else it lands live
	spread int   // > 0: donor d also re-sights every spread'th event of donor d-1
}

// checkFold applies plan to the stream through a Store, the way the
// pipeline does, and holds the result to the serial collector.
func checkFold(t *testing.T, addrs []addr.Addr, times []int64, servers []int, plan foldPlan) {
	t.Helper()
	n := len(addrs)
	serial := New()
	feed := func(i int) { serial.ObserveUnix(addrs[i], times[i], servers[i]) }

	st := NewStore()
	if plan.seeded > 0 {
		seed := New()
		for i := 0; i < plan.seeded; i++ {
			seed.ObserveUnix(addrs[i], times[i], servers[i])
			feed(i)
		}
		st.ApplyShard(seed)
	}
	var base bytes.Buffer
	if err := st.CheckpointFull(&base); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}

	// Donor d holds events [bounds[d], bounds[d+1]), plus spread's
	// re-sightings, so donors overlap in addresses beyond what the stream
	// repeats anyway.
	bounds := append(append([]int{plan.seeded}, plan.cuts...), n)
	donors := len(bounds) - 1
	apply := make([]func(), donors)
	for d := 0; d < donors; d++ {
		var events []int
		for i := bounds[d]; i < bounds[d+1]; i++ {
			events = append(events, i)
		}
		if plan.spread > 0 && d > 0 {
			for i := bounds[d-1]; i < bounds[d]; i += plan.spread {
				events = append(events, i)
			}
		}
		for _, i := range events {
			feed(i)
		}
		c := New()
		for _, i := range events {
			c.ObserveUnix(addrs[i], times[i], servers[i])
		}
		if plan.bufs&(1<<uint(d)) != 0 {
			var snap bytes.Buffer
			if err := c.Snapshot(&snap); err != nil {
				t.Fatalf("plan %+v: donor %d snapshot: %v", plan, d, err)
			}
			r, err := RestoreChain(&snap)
			if err != nil {
				t.Fatalf("plan %+v: donor %d restore: %v", plan, d, err)
			}
			c = r
		}
		apply[d] = func() { st.ApplyShard(c) }
	}
	for _, d := range plan.order {
		apply[d]()
	}

	st.View(func(got *Collector) { sameCorpus(t, got, serial) })

	var delta bytes.Buffer
	if err := st.CheckpointDelta(&delta); err != nil {
		t.Fatalf("plan %+v: delta checkpoint: %v", plan, err)
	}
	restored, err := RestoreChain(bytes.NewReader(base.Bytes()), bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatalf("plan %+v: restore base+delta: %v", plan, err)
	}
	if restored.Checksum() != serial.Checksum() {
		t.Fatalf("plan %+v: base+delta restores to a different corpus: a fold left a record unmarked", plan)
	}
}

func TestMergeIsFold(t *testing.T) {
	run := func(name string, addrs []addr.Addr, times []int64, servers []int, plan foldPlan) {
		t.Run(fmt.Sprintf("%s/%+v", name, plan), func(t *testing.T) {
			checkFold(t, addrs, times, servers, plan)
		})
	}
	evenCuts := func(seeded, n, donors int) []int {
		cuts := make([]int, donors-1)
		for i := range cuts {
			cuts[i] = seeded + (n-seeded)*(i+1)/donors
		}
		return cuts
	}

	const n = 4000
	orders := [][]int{2: {1, 0}, 3: {2, 0, 1}, 4: {3, 1, 0, 2}, 5: {4, 2, 0, 3, 1}}
	for seed := uint64(1); seed <= 2; seed++ {
		addrs, times, servers := foldStream(seed, n, 6)
		for donors := 2; donors <= 5; donors++ {
			forward := []int{0, 1, 2, 3, 4}[:donors]
			for _, seeded := range []int{0, n / 3} {
				for _, order := range [][]int{forward, orders[donors]} {
					for _, bufs := range []uint{0, 1<<uint(donors) - 1, 0b01010, 0b10101} {
						for _, spread := range []int{0, 3} {
							run(fmt.Sprint("seed", seed), addrs, times, servers, foldPlan{
								seeded: seeded, cuts: evenCuts(seeded, n, donors), order: order, bufs: bufs, spread: spread})
						}
					}
				}
			}
		}
	}

	// Dirty marks only matter below a checkpoint's watermark and come in
	// blocks of deltaBlockSize records: a store seeded past one block in
	// every slab, so a fold that updates in place without marking ships a
	// delta that restores to the wrong corpus.
	const big, seeded = 48000, 32000
	addrs, times, servers := foldStream(4, big, 8000)
	for _, bufs := range []uint{0, 0b111, 0b010} {
		run("blocks", addrs, times, servers, foldPlan{
			seeded: seeded, cuts: evenCuts(seeded, big, 3), order: []int{2, 0, 1}, bufs: bufs, spread: 2})
	}
}

// FuzzMergeFold is the same property with the stream, the cut points,
// the donor kinds and the landing order all drawn from the input: a
// six-byte header,
// then decodeObserveStream's records. Run with:
//
//	go test ./internal/collector -run '^$' -fuzz '^FuzzMergeFold$' -fuzztime 30s
func FuzzMergeFold(f *testing.F) {
	body := make([]byte, 0, 13*64)
	state := uint64(7)
	for i := 0; i < 13*64; i++ {
		body = append(body, byte(splitmix64(&state)))
	}
	f.Add(append([]byte{0, 0, 0, 0, 0, 0}, body...))
	f.Add(append([]byte{3, 0x15, 9, 40, 200, 77}, body...))
	f.Add(append([]byte{1, 0xff, 2, 128, 1, 3}, body[:13*9]...))
	f.Add([]byte{2, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		head, data := data[:6], data[6:]
		addrs, times, servers := decodeObserveStream(data)
		n := len(addrs)
		donors := 2 + int(head[0])%4
		plan := foldPlan{
			seeded: n * int(head[3]) / 512, // up to half the stream
			bufs:   uint(head[1]),
			spread: int(head[2]) % 5,
		}
		// Cut points: donors-1 positions in [seeded, n], ascending; equal
		// neighbours make empty donors, which the fold must shrug off.
		rng := uint64(head[4])<<8 | uint64(head[5])
		for i := 0; i < donors-1; i++ {
			lo := plan.seeded
			if i > 0 {
				lo = plan.cuts[i-1]
			}
			plan.cuts = append(plan.cuts, lo+int(splitmix64(&rng)%uint64(n-lo+1)))
		}
		plan.order = make([]int, donors)
		for i := range plan.order {
			j := int(splitmix64(&rng) % uint64(i+1))
			plan.order[i], plan.order[j] = plan.order[j], i
		}
		checkFold(t, addrs, times, servers, plan)
	})
}
