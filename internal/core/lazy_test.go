package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// writeSnapshotFile serializes the world to a temp file and returns its
// path plus the raw bytes (for corruption tests).
func writeSnapshotFile(t *testing.T, owner *Owner, provs ...Provider) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, provs...); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.spv")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestLazyRoundTrip is the lazy loader's acceptance pin: a lazily opened
// set serves proofs byte-identical to the in-process originals for every
// method, and those proofs verify against the embedded public key. This
// is the same contract TestSnapshotRoundTrip pins for the eager loader —
// laziness must be invisible to clients.
func TestLazyRoundTrip(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if got := set.Methods(); len(got) != 4 {
		t.Fatalf("lazy methods %v, want all four", got)
	}
	if !set.Verifier.Equal(owner.Verifier()) {
		t.Fatal("lazy verifier differs from the owner's")
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
				t.Fatalf("%s proof (%d,%d): lazy encoding differs (%d vs %d bytes)",
					m, q.S, q.T, len(got), len(want))
			}
		}
	}
	q := qs[0]
	for _, m := range set.Methods() {
		pr, err := set.Provider(m).QueryProof(q.S, q.T)
		if err != nil || VerifyProof(set.Verifier, m, q.S, q.T, pr) != nil {
			t.Fatalf("lazy %s proof does not verify: %v", m, err)
		}
	}
}

// TestLazyRewriteIdentical pins that re-serializing a lazily opened set
// reproduces the original file byte for byte — WriteTo transparently
// hydrates through the lazy shells, and the streaming section writers
// emit exactly what the buffered ones did.
func TestLazyRewriteIdentical(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	path, orig := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var out bytes.Buffer
	if _, err := set.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("rewrite of a lazy set diverged: %d vs %d bytes", out.Len(), len(orig))
	}
}

// corruptSection flips one payload byte of the section with the given
// kind and returns the path of the corrupted copy. The index still
// matches (it records the original CRC), so the damage is invisible
// until the section is read and CRC-checked.
func corruptSection(t *testing.T, data []byte, kind uint32) string {
	t.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	found := false
	for _, e := range f.Sections() {
		if e.Kind == kind {
			bad[e.Offset+12] ^= 0x01 // first payload byte, past the 12-byte head
			found = true
		}
	}
	if !found {
		t.Fatalf("no section of kind %d", kind)
	}
	path := filepath.Join(t.TempDir(), "corrupt.spv")
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLazyCorruptSectionFailsOnTouch pins the deferred-integrity
// contract: a flipped byte in a method section leaves the open and every
// other method untouched, and the damaged method's first query returns a
// clean ErrCorrupt — no panic, no garbage proof.
func TestLazyCorruptSectionFailsOnTouch(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	path := corruptSection(t, data, snapKindLDM)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatalf("open should not touch method payloads: %v", err)
	}
	defer set.Close()

	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatalf("intact DIJ section should serve: %v", err)
	}
	_, err = set.Provider(LDM).QueryProof(q.S, q.T)
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupt LDM section: got %v, want ErrCorrupt", err)
	}
	// The failure is sticky — retries see the same clean error.
	if _, err2 := set.Provider(LDM).QueryProof(q.S, q.T); !errors.Is(err2, snapshot.ErrCorrupt) {
		t.Fatalf("second touch: got %v, want ErrCorrupt", err2)
	}
}

// TestLazyCorruptIndexRejected pins that a damaged index fails both
// opens with snapshot.ErrCorrupt: there is no fallback walk.
func TestLazyCorruptIndexRejected(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	_, data := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	// The end marker's last 24 bytes are kind|count|indexOff|crc; pull
	// indexOff and flip a byte inside the index payload.
	indexOff := int64(binary.BigEndian.Uint64(data[len(data)-12 : len(data)-4]))
	bad := bytes.Clone(data)
	bad[indexOff+12] ^= 0x01
	expectCorruptOpens(t, "corrupt index", bad)
}

// expectCorruptOpens writes data to a file and checks that the eager and
// lazy opens both refuse it with snapshot.ErrCorrupt.
func expectCorruptOpens(t *testing.T, what string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.spv")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenProviderSet(path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("%s: OpenProviderSet = %v, want ErrCorrupt", what, err)
	}
	if set, err := OpenProviderSetLazy(path); !errors.Is(err, snapshot.ErrCorrupt) {
		if err == nil {
			set.Close()
		}
		t.Errorf("%s: OpenProviderSetLazy = %v, want ErrCorrupt", what, err)
	}
}

// TestSnapshotIndexMustTile pins the container's tiling rule through both
// loaders: junk bytes between two sections, under an index rebuilt so
// its CRC and every section CRC are valid, make the file corrupt.
func TestSnapshotIndexMustTile(t *testing.T) {
	owner, dij, _, ldm, _ := snapshotWorld(t, 100, 140)
	_, data := writeSnapshotFile(t, owner, dij, ldm)
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	entries := f.Sections()
	last := entries[len(entries)-1]
	indexOff := last.Offset + 12 + int64(last.Length) + 4
	junk := []byte("junk")
	at := entries[1].Offset
	body := append(append(bytes.Clone(data[:at]), junk...), data[at:indexOff]...)
	for i := 1; i < len(entries); i++ {
		entries[i].Offset += int64(len(junk))
	}
	// Index and end marker exactly as snapshot.Writer.Close frames them.
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		payload = binary.BigEndian.AppendUint32(payload, e.Kind)
		payload = binary.BigEndian.AppendUint64(payload, uint64(e.Offset))
		payload = binary.BigEndian.AppendUint64(payload, e.Length)
		payload = binary.BigEndian.AppendUint32(payload, e.CRC)
	}
	head := binary.BigEndian.AppendUint32(nil, snapshot.IndexKind)
	head = binary.BigEndian.AppendUint64(head, uint64(len(payload)))
	bad := append(append(body, head...), payload...)
	bad = binary.BigEndian.AppendUint32(bad, crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, payload))
	end := binary.BigEndian.AppendUint32(nil, snapshot.EndKind)
	end = binary.BigEndian.AppendUint64(end, uint64(len(entries)))
	end = binary.BigEndian.AppendUint64(end, uint64(len(body)))
	bad = append(bad, binary.BigEndian.AppendUint32(end, crc32.ChecksumIEEE(end))...)

	if _, err := snapshot.NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("NewFile = %v, want ErrCorrupt", err)
	}
	expectCorruptOpens(t, "gap between sections", bad)
}

// TestSnapshotRejectsReservedFlags pins that a non-zero reserved header
// flags byte fails both loaders.
func TestSnapshotRejectsReservedFlags(t *testing.T) {
	owner, dij, _, _, _ := snapshotWorld(t, 100, 140)
	_, data := writeSnapshotFile(t, owner, dij)
	bad := bytes.Clone(data)
	bad[15] = 0x01 // header: magic 8 | version 4 | flags 4 | epoch 8
	expectCorruptOpens(t, "reserved flags", bad)
}

// TestLazyConcurrentFirstTouch hammers a cold set from many goroutines at
// once — every method, every goroutine, no warmup — so the race detector
// can see the sync.Once hydration and the chunked tuple fills. All proofs
// must come back byte-identical to the eager originals.
func TestLazyConcurrentFirstTouch(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 24, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Method][][]byte{}
	for _, m := range Methods() {
		for _, q := range qs {
			want[m] = append(want[m], setProofBytes(t, m, orig, q.S, q.T))
		}
	}

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for _, m := range Methods() {
			wg.Add(1)
			go func(g int, m Method) {
				defer wg.Done()
				for i, q := range qs {
					pr, err := set.Provider(m).QueryProof(q.S, q.T)
					if err != nil {
						errs <- err
						return
					}
					if got := pr.AppendBinary(nil); !bytes.Equal(got, want[m][i]) {
						errs <- errors.New(string(m) + ": concurrent lazy proof diverged")
						return
					}
				}
			}(g, m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLazyCloseSemantics pins the Close contract: methods hydrated before
// Close keep serving from memory; a still-cold method errors cleanly.
func TestLazyCloseSemantics(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)

	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
		t.Fatalf("hydrated DIJ should survive Close: %v", err)
	}
	if _, err := set.Provider(FULL).QueryProof(q.S, q.T); err == nil {
		t.Fatal("cold FULL should fail to hydrate after Close")
	}
}

// rewriteSection copies a snapshot, passing the payload of the section
// with the given kind through mutate, and re-frames every section so all
// CRCs and the index match: the damage gets past the container and must
// be caught by the section decoder.
func rewriteSection(t *testing.T, data []byte, kind uint32, mutate func([]byte) []byte) string {
	t.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := snapshot.NewWriter(&out, f.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range f.Sections() {
		payload, err := f.Section(e.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind == kind {
			payload = mutate(payload)
			found = true
		}
		if err := w.Section(e.Kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatalf("no section of kind %d", kind)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rewritten.spv")
	if err := os.WriteFile(path, out.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLazyBadHYPSectionFailsOnTouch pins that HYP hydration, which trusts
// the canonical entry order instead of sorting, still rejects a section
// whose rows or distance tree do not match the partition: a CRC-valid
// but inconsistent section fails as ErrBadSnapshot on the first HYP query
// while other methods keep serving.
func TestLazyBadHYPSectionFailsOnTouch(t *testing.T) {
	owner, dij, _, _, hyp := snapshotWorld(t, 160, 220)
	qs, err := workload.Generate(owner.Graph(), 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]

	// A distance tree one leaf short of the hyper-edge set.
	entries := hyp.hyper.Entries()
	short := *hyp
	short.distMBT, err = mbt.Build(owner.cfg.Hash, owner.cfg.Fanout, entries[:len(entries)-1])
	if err != nil {
		t.Fatal(err)
	}
	shortPath, _ := writeSnapshotFile(t, owner, dij, &short)

	// A row block missing its last row: numRows decremented and the row's
	// bytes cut, so the section still parses but no longer covers every
	// border.
	_, data := writeSnapshotFile(t, owner, dij, hyp)
	_, rows := hyp.hyper.Rows()
	dropRow := func(p []byte) []byte {
		off := 4 + int(binary.BigEndian.Uint32(p)) // netSig
		off += 4 + int(binary.BigEndian.Uint32(p[off:])) + 1
		n := binary.BigEndian.Uint32(p[off:])
		rowLen := int(binary.BigEndian.Uint32(p[off+4:]))
		if int(n) != len(rows) || rowLen != len(rows[0]) {
			t.Fatalf("row header (%d, %d), want (%d, %d)", n, rowLen, len(rows), len(rows[0]))
		}
		out := bytes.Clone(p)
		binary.BigEndian.PutUint32(out[off:], n-1)
		end := off + 8 + 8*rowLen*int(n)
		return append(out[:end-8*rowLen], p[end:]...)
	}
	dropPath := rewriteSection(t, data, snapKindHYP, dropRow)

	for name, path := range map[string]string{"short tree": shortPath, "dropped row": dropPath} {
		set, err := OpenProviderSetLazy(path)
		if err != nil {
			t.Fatalf("%s: open should not touch method payloads: %v", name, err)
		}
		if _, err := set.Provider(DIJ).QueryProof(q.S, q.T); err != nil {
			t.Fatalf("%s: intact DIJ section should serve: %v", name, err)
		}
		for try := 0; try < 2; try++ {
			if _, err := set.Provider(HYP).QueryProof(q.S, q.T); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s, touch %d: got %v, want ErrBadSnapshot", name, try+1, err)
			}
		}
		set.Close()
	}
}
