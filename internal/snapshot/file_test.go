package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"testing"
)

// buildV1 hand-writes a version-1 snapshot (no index, 16-byte end
// marker) — the retired format readers refuse.
func buildV1(epoch int64, sections ...section) []byte {
	var buf bytes.Buffer
	head := make([]byte, headerSize)
	copy(head, magic)
	binary.BigEndian.PutUint32(head[8:], 1)
	binary.BigEndian.PutUint64(head[16:], uint64(epoch))
	buf.Write(head)
	for _, s := range sections {
		var sh [sectionHeadSize]byte
		binary.BigEndian.PutUint32(sh[:], s.Kind)
		binary.BigEndian.PutUint64(sh[4:], uint64(len(s.Payload)))
		buf.Write(sh[:])
		buf.Write(s.Payload)
		var tail [4]byte
		binary.BigEndian.PutUint32(tail[:], sectionCRC(sh, s.Payload))
		buf.Write(tail[:])
	}
	var end [sectionHeadSize + 4]byte
	binary.BigEndian.PutUint32(end[:], EndKind)
	binary.BigEndian.PutUint64(end[4:], uint64(len(sections)))
	binary.BigEndian.PutUint32(end[12:], crc32.ChecksumIEEE(end[:12]))
	buf.Write(end[:])
	return buf.Bytes()
}

// reindex appends an index listing entries, then an end marker, to body
// (a header followed by section frames), with every CRC valid — so the
// only defect a result can have is how its index covers the file.
func reindex(body []byte, entries []SectionInfo) []byte {
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		payload = binary.BigEndian.AppendUint32(payload, e.Kind)
		payload = binary.BigEndian.AppendUint64(payload, uint64(e.Offset))
		payload = binary.BigEndian.AppendUint64(payload, e.Length)
		payload = binary.BigEndian.AppendUint32(payload, e.CRC)
	}
	var head [sectionHeadSize]byte
	binary.BigEndian.PutUint32(head[:], IndexKind)
	binary.BigEndian.PutUint64(head[4:], uint64(len(payload)))
	out := append(bytes.Clone(body), head[:]...)
	out = append(out, payload...)
	out = binary.BigEndian.AppendUint32(out, sectionCRC(head, payload))
	end := binary.BigEndian.AppendUint32(nil, EndKind)
	end = binary.BigEndian.AppendUint64(end, uint64(len(entries)))
	end = binary.BigEndian.AppendUint64(end, uint64(len(body)))
	end = binary.BigEndian.AppendUint32(end, crc32.ChecksumIEEE(end))
	return append(out, end...)
}

// untiled returns copies of a valid snapshot of fileSections whose CRCs
// all check out but whose index does not tile the file: junk bytes
// before, between or after the sections, an unindexed section, and junk
// between the index and the end marker.
func untiled(t testing.TB) map[string][]byte {
	t.Helper()
	data := buildSnapshot(t, 9, fileSections...)
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	entries := f.Sections()
	last := entries[len(entries)-1]
	body := data[:last.Offset+sectionHeadSize+int64(last.Length)+4]
	if !bytes.Equal(reindex(body, entries), data) {
		t.Fatal("reindex does not reproduce the writer's bytes")
	}
	junk := []byte("junk")
	gapAt := func(i int) []byte {
		at := int64(len(body))
		shifted := append([]SectionInfo(nil), entries...)
		if i < len(entries) {
			at = entries[i].Offset
			for j := i; j < len(shifted); j++ {
				shifted[j].Offset += int64(len(junk))
			}
		}
		gapped := append(append(bytes.Clone(body[:at]), junk...), body[at:]...)
		return reindex(gapped, shifted)
	}
	tail := len(data) - endSize
	return map[string][]byte{
		"leading-gap":           gapAt(0),
		"gap-between":           gapAt(1),
		"trailing-gap":          gapAt(len(entries)),
		"unindexed-section":     reindex(body, entries[:len(entries)-1]),
		"gap-before-end-marker": append(append(bytes.Clone(data[:tail]), junk...), data[tail:]...),
	}
}

var fileSections = []section{
	{Kind: 1, Payload: []byte("config")},
	{Kind: 2, Payload: bytes.Repeat([]byte{0xC4}, 5000)},
	{Kind: 8, Payload: []byte{}},
}

func checkFileReads(t *testing.T, f *File) {
	t.Helper()
	if f.Epoch() != 9 {
		t.Fatalf("epoch = %d", f.Epoch())
	}
	if got := len(f.Sections()); got != len(fileSections) {
		t.Fatalf("%d sections, want %d", got, len(fileSections))
	}
	for i, want := range fileSections {
		e := f.Sections()[i]
		if e.Kind != want.Kind || e.Length != uint64(len(want.Payload)) {
			t.Fatalf("table entry %d = %+v", i, e)
		}
		got, err := f.Section(want.Kind)
		if err != nil {
			t.Fatalf("Section(%d): %v", want.Kind, err)
		}
		if !bytes.Equal(got, want.Payload) {
			t.Fatalf("Section(%d): %d bytes", want.Kind, len(got))
		}
	}
	if !f.Has(2) || f.Has(42) {
		t.Fatal("Has is wrong")
	}
	if _, err := f.Section(42); !errors.Is(err, ErrNoSection) {
		t.Fatalf("absent kind: %v", err)
	}
}

func TestFileIndexedOpen(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d", f.Size())
	}
	checkFileReads(t, f)
}

// TestFileV1Refused pins the version rule: the index-less v1 format is
// no longer read, by File or by Scan.
func TestFileV1Refused(t *testing.T) {
	data := buildV1(9, fileSections...)
	if _, err := NewFile(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 file: %v", err)
	}
	if err := readAll(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 scan: %v", err)
	}
}

// TestFileIndexMustTile pins the tiling rule: an index with a valid CRC
// that skips junk bytes or an unindexed section is corrupt.
func TestFileIndexMustTile(t *testing.T) {
	for name, bad := range untiled(t) {
		if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: NewFile = %v, want ErrCorrupt", name, err)
		}
		if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Scan = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFileRejectsReservedFlags pins that the header's reserved flags word
// must be zero: no CRC covers the header, so a flipped flags byte would
// otherwise load cleanly.
func TestFileRejectsReservedFlags(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	for i := 12; i < 16; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x01
		if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flags byte %d: NewFile = %v, want ErrCorrupt", i, err)
		}
		if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flags byte %d: Scan = %v, want ErrCorrupt", i, err)
		}
	}
}

// indexPayloadRange locates the index section's byte range in a v2 file.
func indexPayloadRange(t *testing.T, data []byte) (start, end int) {
	t.Helper()
	indexOff := int(binary.BigEndian.Uint64(data[len(data)-endSize+12:]))
	if binary.BigEndian.Uint32(data[indexOff:]) != IndexKind {
		t.Fatalf("no index at %d", indexOff)
	}
	length := int(binary.BigEndian.Uint64(data[indexOff+4:]))
	return indexOff + sectionHeadSize, indexOff + sectionHeadSize + length
}

// TestFileCorruptIndexRejected pins that a flipped index byte makes the
// whole file corrupt: there is no fallback walk over intact sections.
func TestFileCorruptIndexRejected(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	bad := append([]byte(nil), data...)
	start, _ := indexPayloadRange(t, bad)
	bad[start+2] ^= 0xFF // flip an index payload byte; sections are intact
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt index: %v", err)
	}
	if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan of corrupt index: %v", err)
	}
}

func TestFileTruncatedIndexRejected(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Rewrite the end marker to point the index past the file tail.
	bad := append([]byte(nil), data...)
	off := len(bad) - endSize
	binary.BigEndian.PutUint64(bad[off+12:], uint64(len(bad)))
	fixEndCRC(bad, off)
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unreachable index: %v", err)
	}
}

func TestFileSectionCRCVerifiedOnTouch(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Flip one byte inside section kind 2's payload. Open must succeed
	// (no payload is read), the untouched section must read fine, and the
	// corrupt one must surface ErrCorrupt on first touch.
	bad := append([]byte(nil), data...)
	bad[headerSize+sectionHeadSize+len(fileSections[0].Payload)+4+sectionHeadSize+100] ^= 1
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Section(1); err != nil {
		t.Fatalf("untouched section: %v", err)
	}
	if _, err := f.Section(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt section on touch: %v", err)
	}
}

func TestFileLyingIndexDoesNotOverAllocate(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Patch an index entry's length to a giant value, fixing the index
	// CRC so only the bounds checks can catch it. NewFile must reject the
	// file before allocating anything for the lying entry.
	bad := append([]byte(nil), data...)
	start, end := indexPayloadRange(t, bad)
	binary.BigEndian.PutUint64(bad[start+4+12:], 1<<60)
	var head [sectionHeadSize]byte
	copy(head[:], bad[start-sectionHeadSize:start])
	binary.BigEndian.PutUint32(bad[end:], sectionCRC(head, bad[start:end]))
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying index: %v", err)
	}
}

func TestFileConcurrentSectionReads(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range fileSections {
				got, err := f.Section(s.Kind)
				if err != nil || !bytes.Equal(got, s.Payload) {
					t.Errorf("Section(%d): %v", s.Kind, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStreamingSectionMatchesBuffered(t *testing.T) {
	payload := bytes.Repeat([]byte{7, 1, 9}, 4321)
	var buffered, streamed bytes.Buffer
	w1, _ := NewWriter(&buffered, 5)
	if err := w1.Section(3, payload); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, _ := NewWriter(&streamed, 5)
	dst, err := w2.BeginSection(3, uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload); i += 1000 {
		if _, err := dst.Write(payload[i:min(i+1000, len(payload))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.EndSection(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed bytes differ from buffered bytes")
	}
}

func TestStreamingSectionLengthEnforced(t *testing.T) {
	w, _ := NewWriter(io.Discard, 0)
	dst, err := w.BeginSection(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Write([]byte("12345")); err == nil {
		t.Fatal("overflow accepted")
	}

	w2, _ := NewWriter(io.Discard, 0)
	dst2, err := w2.BeginSection(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.Write([]byte("123")); err != nil {
		t.Fatal(err)
	}
	if err := w2.EndSection(); err == nil {
		t.Fatal("short section accepted")
	}

	w3, _ := NewWriter(io.Discard, 0)
	if _, err := w3.BeginSection(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err == nil {
		t.Fatal("Close with open streaming section accepted")
	}
}

func TestScanReportsVersionAndIndex(t *testing.T) {
	data := buildSnapshot(t, 3, section{Kind: 1, Payload: []byte("x")})
	info, err := Scan(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sections) != 1 || info.Sections[0].Offset != headerSize {
		t.Fatalf("sections = %+v", info.Sections)
	}
	if info.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, file is %d", info.Bytes, len(data))
	}
}
