package parts

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tkplq/internal/iupt"
)

// FuzzPartitionOpen feeds arbitrary bytes to the partition opener and checks
// the format's two safety promises on untrusted input:
//
//  1. OpenFile never panics and never trusts footer geometry the file size
//     cannot back (no overallocation from absurd record/sample counts) — a
//     file either opens clean or fails loudly.
//  2. VerifyFull means what it says: any file that opens clean is fully
//     readable, and any single-bit mutation of it is refused (header, data
//     columns, footer and both CRC fields are all covered by a checksum).
func FuzzPartitionOpen(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	valid, err := Encode(sortedCopy(testRecords(r, 20, 50)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("TKPT"))
	small, err := Encode([]iupt.Record{{OID: 1, T: 1, Samples: iupt.SampleSet{{Loc: 1, Prob: 1}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	// A footer declaring absurd counts with a self-consistent footer CRC: the
	// opener must reject it on size grounds, not allocate for it.
	huge := append([]byte(nil), small...)
	ft := huge[len(huge)-footerLen:]
	binary.LittleEndian.PutUint64(ft[0:], 1<<60)
	binary.LittleEndian.PutUint32(ft[48:], crc32.Checksum(ft[:48], crcTable))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "part-00000001.tkp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, err := OpenFile(path, VerifyFull)
		if err != nil {
			return // refused: the only acceptable failure mode
		}
		// Opened clean: every read path must hold up.
		lo, hi := p.Span()
		recs := rangeOf(p, lo, hi)
		if p.Len() > 0 && len(recs) != p.Len() {
			t.Fatalf("full-span read returned %d records, Len says %d", len(recs), p.Len())
		}
		_ = p.Objects()
		p.Close()

		// Mutation refusal: flip one bit at a few data-derived positions; a
		// full verify must refuse every mutant (single-bit errors are within
		// CRC-32's guaranteed detection).
		if len(data) == 0 {
			return
		}
		h := uint64(14695981039346656037)
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
		}
		for k := 0; k < 3; k++ {
			mut := append([]byte(nil), data...)
			pos := int((h + uint64(k)*127) % uint64(len(mut)))
			mut[pos] ^= 1 << ((h >> 8) % 8)
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Skip()
			}
			if p2, err := OpenFile(path, VerifyFull); err == nil {
				p2.Close()
				t.Fatalf("VerifyFull accepted a mutant (bit flip at byte %d)", pos)
			}
		}
	})
}
