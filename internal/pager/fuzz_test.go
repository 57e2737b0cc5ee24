package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/addr"
)

// FuzzTier has two axes. ops is a checkpoint sequence a daemon could
// run — observe a batch, re-sight known addresses, a delta checkpoint
// that publishes one run (sightings optionally folded in before the run
// is cut), a full checkpoint that rewrites the base — after every op of
// which each address's lookup must answer the newest tier file's record
// (the collector's, right after a checkpoint) and absent keys must miss,
// at budgets of unlimited, one chunk and half the base file (see
// tierModel.check). raw is fed to Open and, behind a good base, to
// AddRun: the contract is an error or a corpus whose lookups are
// deterministic and panic-free — hostile metas must not drive
// allocations, offsets, or scans out of bounds. Run continuously with:
//
//	go test ./internal/pager -run '^$' -fuzz '^FuzzTier$' -fuzztime 30s
func FuzzTier(f *testing.F) {
	ops := []byte{0xfc, 0x03, 0xfc, 0x21, 0x02, 0x80, 0x02, 0x45, 0x42, 0x0d, 0x02, 0x03, 0x20, 0x02}
	f.Add(ops, tierBytes(f, 600))
	f.Add([]byte{0x02, 0x02, 0x00, 0x02, 0x03, 0x02}, []byte("h6tier01"))
	f.Add([]byte{0xfc, 0x03, 0xc1, 0x42, 0x02}, []byte("h6tier01\x00\x00\x00\x01"))
	f.Add([]byte{}, []byte("h6tier01\x00\x00\x00\x02"))
	f.Add([]byte{0x03}, []byte{})

	f.Fuzz(func(t *testing.T, ops, raw []byte) {
		m := newTierModel(t, genEvent, 0, chunkBytes, halfBase)
		for i, op := range ops[:min(len(ops), 16)] {
			arg := int(op >> 2)
			switch op & 3 {
			case 0: // a batch of events, new addresses and known ones
				m.observe(m.fed, m.fed+4*arg+1)
			case 1: // re-sightings below the checkpoint watermark
				lo := arg * m.fed / 64
				m.observe(lo, min(lo+32, m.fed))
			case 2:
				if op&0x40 != 0 {
					m.delta(arg*m.fed/64, arg*m.fed/64+8)
				} else {
					m.delta(0, 0)
				}
			case 3:
				m.full()
			}
			m.check(fmt.Sprintf("op %d (%#02x)", i, op))
		}
		hostileTier(t, raw)
	})
}

// hostileTier opens raw as a base and as a run behind a good base. An
// accepted file must answer every lookup the same way twice — chunk
// CRCs are checked lazily, so a lookup may fail, but never one way and
// then another — for its own fence keys and the good base's.
func hostileTier(t *testing.T, raw []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz.tier")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	good := buildCorpus(t, 300)
	keys := good.AddressList()
	if pc, err := Open(path, Options{RAMBudget: chunkBytes}); err == nil {
		keys = append(keys, fenceKeys(pc)...)
		lookupTwice(t, pc, keys)
		pc.Close()
	}
	pc := openOrDie(t, writeTierFile(t, good), Options{RAMBudget: chunkBytes})
	if err := pc.AddRun(path); err != nil {
		return // rejected cleanly
	}
	lookupTwice(t, pc, keys)
}

// fenceKeys lists every chunk's fence keys across the corpus's files.
func fenceKeys(pc *Corpus) []addr.Addr {
	var keys []addr.Addr
	for _, tf := range *pc.files.Load() {
		for _, d := range tf.dir {
			keys = append(keys, d.min, d.max)
		}
	}
	return keys
}

func lookupTwice(t *testing.T, pc *Corpus, keys []addr.Addr) {
	for _, a := range keys {
		r1, ok1, err1 := pc.Get(a)
		r2, ok2, err2 := pc.Get(a)
		if (err1 == nil) != (err2 == nil) || r1 != r2 || ok1 != ok2 {
			t.Fatalf("Get(%v) reads nondeterministically: %+v %v %v / %+v %v %v", a, r1, ok1, err1, r2, ok2, err2)
		}
	}
}
