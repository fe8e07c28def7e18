package snapshot

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns structured seed inputs shared by the fuzzers: a valid
// file, truncations, an index-corrupted mutant, an index with a valid CRC
// that leaves a gap, a file with a non-zero reserved flags byte, and
// degenerate inputs.
func fuzzSeeds(f *testing.F) [][]byte {
	valid := buildSnapshot(f, 11,
		section{Kind: 1, Payload: []byte("config")},
		section{Kind: 5, Payload: bytes.Repeat([]byte{0x3C}, 900)})
	mutant := bytes.Clone(valid)
	mutant[len(mutant)-30] ^= 0xFF // lands in the index or end marker
	flags := bytes.Clone(valid)
	flags[12] = 0x80
	return [][]byte{
		valid,
		mutant,
		untiled(f)["gap-between"],
		valid[:headerSize+5],
		flags,
		valid[:len(valid)-5],
		valid[:headerSize+3],
		[]byte("SPVSNAP1"),
		{},
	}
}

// FuzzScan drives arbitrary bytes through the inspection path: any input
// must either scan fully or return an error — never panic, and never
// allocate proportionally to a lying length field (the run completing
// under the fuzzer's memory limits is the allocation assertion).
func FuzzScan(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Scan(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if info.Bytes != int64(len(data)) {
			t.Fatalf("Scan reports %d bytes of a %d-byte input", info.Bytes, len(data))
		}
		var total uint64
		for _, s := range info.Sections {
			total += s.Length
		}
		if total > uint64(len(data)) {
			t.Fatalf("scanned %d payload bytes from a %d-byte input", total, len(data))
		}
	})
}

// FuzzFile drives the random-access path: arbitrary bytes must open (or
// error) — never panic — and every section read must be backed by real
// file bytes, so a lying index or length field cannot over-allocate.
func FuzzFile(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		total := 0
		for _, e := range sf.Sections() {
			payload, err := sf.Section(e.Kind)
			if err != nil {
				continue
			}
			total += len(payload)
			if total > len(data) {
				t.Fatalf("read %d payload bytes from a %d-byte input", total, len(data))
			}
		}
	})
}
