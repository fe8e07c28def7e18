package mht

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/digest"
)

// FuzzDecodeProof drives the integrity-proof wire decoder with mutated
// inputs: no panics, and every accepted input must re-encode
// byte-identically on the consumed prefix (the encoding is canonical).
func FuzzDecodeProof(f *testing.F) {
	// Seed with real proofs over a few tree shapes.
	for _, n := range []int{1, 5, 33} {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = digest.SHA1.Sum([]byte{byte(i)})
		}
		t, err := Build(digest.SHA1, 3, leaves)
		if err != nil {
			f.Fatal(err)
		}
		p, err := t.Prove([]int{0, n / 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := DecodeProof(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d bytes consumed of %d", n, len(data))
		}
		re := p.AppendBinary(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not identity: %d in, %d out", n, len(re))
		}
	})
}

// FuzzReconstruct drives the differential check of the bottom-up kernel
// against the top-down reference: the fuzzer picks the tree shape, the
// mutation count and the seed of reconstructCase's random choices.
func FuzzReconstruct(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(1), uint16(35), uint8(1))
	f.Add(int64(3), uint8(14), uint16(1999), uint8(3))
	f.Add(int64(4), uint8(6), uint16(80), uint8(6))
	f.Add(int64(5), uint8(3), uint16(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, fanout uint8, n uint16, nmut uint8) {
		rng := rand.New(rand.NewSource(seed))
		p, known := reconstructCase(rng, 2+int(fanout)%15, 1+int(n)%2000, int(nmut)%8)
		checkAgainstReference(t, p, known)
	})
}
