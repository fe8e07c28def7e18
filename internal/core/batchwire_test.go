package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// TestProofBatchRoundTrip pins the shared batch wire form end to end: encode
// a realistic /batch answer set (with repeated queries), decode it, check
// canonical re-encoding, pointer sharing for repeats, the size win over
// per-proof wires, and that the decoded batch verifies clean.
func TestProofBatchRoundTrip(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		items := batchItems(t, w, m, 6)
		distinct := len(items)
		items = append(items, items[0], items[2]) // repeated queries → backrefs

		wire, err := AppendProofBatch(nil, m, items)
		if err != nil {
			t.Fatalf("%s encode: %v", m, err)
		}
		pb, n, err := DecodeProofBatch(wire)
		if err != nil {
			t.Fatalf("%s decode: %v", m, err)
		}
		if n != len(wire) {
			t.Fatalf("%s decode consumed %d of %d bytes", m, n, len(wire))
		}
		if pb.Method != m || pb.Len() != len(items) {
			t.Fatalf("%s decoded batch: method %s, %d items (want %d)", m, pb.Method, pb.Len(), len(items))
		}
		got := pb.Items()
		if got[distinct].Proof != got[0].Proof || got[distinct+1].Proof != got[2].Proof {
			t.Errorf("%s: backref items do not share their body's proof", m)
		}
		re, err := pb.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s re-encode: %v", m, err)
		}
		if !bytes.Equal(re, wire) {
			t.Errorf("%s: decode/encode not identity (%d in, %d out)", m, len(wire), len(re))
		}
		var standalone int
		for _, it := range items[:distinct] {
			standalone += len(it.Proof.AppendBinary(nil))
		}
		if len(wire) >= standalone {
			t.Errorf("%s: batch wire %dB not smaller than %dB of standalone proofs", m, len(wire), standalone)
		}
		for i, err := range VerifyBatch(v, m, got) {
			if err != nil {
				t.Errorf("%s decoded item %d: %v", m, i, err)
			}
		}
	}
}

// TestDecodeProofBatchRejects spot-checks structural rejection paths the
// fuzz target reaches only probabilistically.
func TestDecodeProofBatchRejects(t *testing.T) {
	w := world(t)
	items := batchItems(t, w, DIJ, 2)
	wire, err := AppendProofBatch(nil, DIJ, items)
	if err != nil {
		t.Fatal(err)
	}
	// One item whose body uses the reserved form 0 (the proof's standalone
	// wire) under empty tables: structurally complete, never canonical.
	standalone := append([]byte("SPB1"), appendBytes(nil, []byte(DIJ))...)
	standalone = append(standalone, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
	standalone = binary.BigEndian.AppendUint32(standalone, uint32(items[0].VS))
	standalone = binary.BigEndian.AppendUint32(standalone, uint32(items[0].VT))
	standalone = append(standalone, batchItemBody)
	standalone = appendBytes(standalone, items[0].Proof.AppendBinary([]byte{0}))
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("SPBX"), wire[4:]...),
		"truncated":       wire[:len(wire)/2],
		"unknown method":  append([]byte("SPB1\x00\x00\x00\x04NOPE"), wire[12:]...),
		"reserved form 0": standalone,
	}
	for name, buf := range cases {
		if _, _, err := DecodeProofBatch(buf); err == nil {
			t.Errorf("%s: decoder accepted", name)
		}
	}
	// A nil proof must be rejected at encode time, not panic.
	if _, err := AppendProofBatch(nil, DIJ, []BatchItem{{}}); err == nil {
		t.Error("encoder accepted a nil proof")
	}
	if _, err := AppendProofBatch(nil, Method("NOPE"), nil); err == nil {
		t.Error("encoder accepted an unknown method")
	}
}

// seedBatchWire builds structurally valid batch encodings from synthetic
// proofs (no RSA keys — decoder checks wire structure, not cryptography).
func seedBatchWire() [][]byte {
	var wires [][]byte

	dijWires := seedDIJWire()
	var dijItems []BatchItem
	for i, wb := range dijWires {
		pr, _, err := DecodeDIJProof(wb)
		if err != nil {
			panic(err)
		}
		dijItems = append(dijItems, BatchItem{VS: graph.NodeID(i), VT: graph.NodeID(i + 1), Proof: pr})
	}
	dijItems = append(dijItems, dijItems[0]) // backref
	if wb, err := AppendProofBatch(nil, DIJ, dijItems); err == nil {
		wires = append(wires, wb)
	}

	for _, hb := range seedHYPWire() {
		pr, _, err := DecodeHYPProof(hb)
		if err != nil {
			panic(err)
		}
		items := []BatchItem{{VS: 0, VT: 1, Proof: pr}, {VS: 1, VT: 0, Proof: pr}}
		if wb, err := AppendProofBatch(nil, HYP, items); err == nil {
			wires = append(wires, wb)
		}
	}
	return wires
}

// FuzzDecodeProofBatch drives the batch wire decoder with mutated inputs:
// it must never panic, allocations must stay bounded by the bytes actually
// present even when table/item counts lie, and any accepted input must
// re-encode byte-identically (the encoding is canonical — tables in
// first-use order, repeated bodies as backrefs).
func FuzzDecodeProofBatch(f *testing.F) {
	for _, w := range seedBatchWire() {
		f.Add(w)
	}
	f.Add([]byte{})
	f.Add([]byte("SPB1"))
	// Lying signature-table count over a near-empty body: the decoder must
	// reject without allocating for the claimed 2^20 entries.
	lying := append([]byte("SPB1"), 0, 0, 0, 3)
	lying = append(lying, "DIJ"...)
	lying = binary.BigEndian.AppendUint32(lying, 1<<20)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		pb, n, err := DecodeProofBatch(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d bytes consumed of %d", n, len(data))
		}
		re, err := pb.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not identity: %d in, %d out", n, len(re))
		}
	})
}
