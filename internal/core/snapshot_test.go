package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// snapshotWorld builds a deterministic test world with all four methods
// outsourced.
func snapshotWorld(t testing.TB, nodes, edges int) (*Owner, *DIJProvider, *FULLProvider, *LDMProvider, *HYPProvider) {
	t.Helper()
	g, err := netgen.Synthesize(nodes, edges, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 6
	cfg.Cells = 16
	owner, err := NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dij, err := owner.OutsourceDIJ()
	if err != nil {
		t.Fatal(err)
	}
	full, err := owner.OutsourceFULL()
	if err != nil {
		t.Fatal(err)
	}
	ldm, err := owner.OutsourceLDM()
	if err != nil {
		t.Fatal(err)
	}
	hyp, err := owner.OutsourceHYP()
	if err != nil {
		t.Fatal(err)
	}
	return owner, dij, full, ldm, hyp
}

// setProofBytes builds the wire encoding of one query against one provider.
func setProofBytes(t *testing.T, m Method, set *ProviderSet, vs, vt graph.NodeID) []byte {
	t.Helper()
	p := set.Provider(m)
	if p == nil {
		t.Fatalf("set has no %s provider", m)
	}
	pr, err := p.QueryProof(vs, vt)
	if err != nil {
		t.Fatalf("%s query (%d,%d): %v", m, vs, vt, err)
	}
	return pr.AppendBinary(nil)
}

// TestSnapshotRoundTrip is the acceptance pin for the persistence layer: a
// provider set loaded from a snapshot produces proof wire encodings
// byte-identical to the in-process originals, for every method, across a
// workload of queries — and those proofs verify against the embedded
// public key.
func TestSnapshotRoundTrip(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)

	var buf bytes.Buffer
	n, err := owner.WriteSnapshot(&buf, dij, full, ldm, hyp)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}

	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Methods(); len(got) != 4 {
		t.Fatalf("loaded methods %v, want all four", got)
	}
	if set.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", set.Epoch)
	}
	if !set.Verifier.Equal(owner.Verifier()) {
		t.Fatal("loaded verifier differs from the owner's")
	}

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 16, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		for _, q := range qs {
			want := setProofBytes(t, m, orig, q.S, q.T)
			got := setProofBytes(t, m, set, q.S, q.T)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s proof (%d,%d): loaded encoding differs (%d vs %d bytes)",
					m, q.S, q.T, len(got), len(want))
			}
		}
	}

	// The loaded proofs must verify against the loaded verifier — the
	// replica serves clients that bootstrapped from the original owner.
	q := qs[0]
	for _, m := range set.Methods() {
		pr, err := set.Provider(m).QueryProof(q.S, q.T)
		if err != nil || VerifyProof(set.Verifier, m, q.S, q.T, pr) != nil {
			t.Fatalf("loaded %s proof does not verify: %v", m, err)
		}
	}
}

// TestSnapshotRoundTripAfterUpdates pins that a snapshot taken *after*
// incremental updates captures the patched state exactly: the loaded
// providers reproduce the updated owner's proofs and epoch.
func TestSnapshotRoundTripAfterUpdates(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)

	var target graph.NodeID = -1
	var weight float64
	for v := 0; v < owner.Graph().NumNodes() && target < 0; v++ {
		for _, e := range owner.Graph().Neighbors(graph.NodeID(v)) {
			target, weight = graph.NodeID(v), e.W*1.25
			break
		}
	}
	nbr := owner.Graph().Neighbors(target)[0].To

	batch, err := owner.UpdateEdgeWeight(target, nbr, weight)
	if err != nil {
		t.Fatal(err)
	}
	if dij, _, err = batch.PatchDIJ(dij); err != nil {
		t.Fatal(err)
	}
	if full, _, err = batch.PatchFULL(full); err != nil {
		t.Fatal(err)
	}
	if ldm, _, err = batch.PatchLDM(ldm); err != nil {
		t.Fatal(err)
	}
	if hyp, _, err = batch.PatchHYP(hyp); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, full, ldm, hyp); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", set.Epoch)
	}

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 8, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		for _, q := range qs {
			want := setProofBytes(t, m, orig, q.S, q.T)
			got := setProofBytes(t, m, set, q.S, q.T)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s proof (%d,%d) differs after update round-trip", m, q.S, q.T)
			}
		}
	}
}

// TestSnapshotSubset verifies partial method sets load as written.
func TestSnapshotSubset(t *testing.T) {
	owner, dij, _, _, hyp := snapshotWorld(t, 120, 160)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, hyp); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Provider(DIJ) == nil || set.Provider(HYP) == nil ||
		set.Provider(FULL) != nil || set.Provider(LDM) != nil {
		t.Fatalf("loaded methods %v, want [DIJ HYP]", set.Methods())
	}
}

// TestSnapshotRejectsForeignProvider pins the ownership check.
func TestSnapshotRejectsForeignProvider(t *testing.T) {
	owner, dij, _, _, _ := snapshotWorld(t, 120, 160)
	other, _, _, _, _ := snapshotWorld(t, 120, 160)
	var buf bytes.Buffer
	if _, err := other.WriteSnapshot(&buf, dij); err == nil {
		t.Fatal("foreign provider accepted")
	}
	if _, err := owner.WriteSnapshot(&buf); err == nil {
		t.Fatal("empty provider set accepted")
	}
}

// TestSnapshotRejectsStaleProvider pins the update-generation check: a
// provider left un-patched across an ApplyUpdates batch still searches
// the pre-update frozen view, and snapshotting it would pair the new
// graph with old trees and signatures. WriteSnapshot must refuse.
func TestSnapshotRejectsStaleProvider(t *testing.T) {
	owner, dij, _, ldm, _ := snapshotWorld(t, 120, 160)
	u := graph.NodeID(3)
	e := owner.Graph().Neighbors(u)[0]
	batch, err := owner.UpdateEdgeWeight(u, e.To, e.W*1.5)
	if err != nil {
		t.Fatal(err)
	}
	patched, _, err := batch.Patch(dij)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Patched provider alone: fine.
	if _, err := owner.WriteSnapshot(&buf, patched); err != nil {
		t.Fatalf("patched provider rejected: %v", err)
	}
	// The un-patched LDM provider predates the batch: must be refused.
	if _, err := owner.WriteSnapshot(&buf, patched, ldm); err == nil {
		t.Fatal("stale provider accepted into a snapshot")
	}
}

// TestSnapshotCorruption flips bytes across the snapshot body and checks
// the loader errors (container CRC or semantic validation) without
// panicking. Exhaustive flipping is the fuzzer's job; this samples.
func TestSnapshotCorruption(t *testing.T) {
	owner, dij, _, ldm, _ := snapshotWorld(t, 100, 140)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, ldm); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for off := 8; off < len(data); off += 97 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x20
		if _, err := ReadProviderSet(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatalf("flip at %d loaded cleanly", off)
		}
	}
	for _, n := range []int{0, 10, len(data) / 2, len(data) - 1} {
		if _, err := ReadProviderSet(bytes.NewReader(data[:n]), int64(n)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v", n, err)
		}
	}
}

// TestRestoreOwner pins the epoch restoration contract.
func TestRestoreOwner(t *testing.T) {
	owner, dij, _, _, _ := snapshotWorld(t, 100, 140)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOwner(set.Graph, set.Cfg, owner.signer, set.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != set.Epoch {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), set.Epoch)
	}
	if _, err := RestoreOwner(set.Graph, set.Cfg, owner.signer, -1); err == nil {
		t.Fatal("negative epoch accepted")
	}
}
