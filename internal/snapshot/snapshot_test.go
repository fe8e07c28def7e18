package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// section is one test section: a kind and its payload.
type section struct {
	Kind    uint32
	Payload []byte
}

// buildSnapshot writes a small snapshot with the given sections.
func buildSnapshot(t testing.TB, epoch int64, sections ...section) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if err := w.Section(s.Kind, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, wrote %d", w.Bytes(), buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	sections := []section{
		{Kind: 1, Payload: []byte("config")},
		{Kind: 2, Payload: bytes.Repeat([]byte{0xAB}, 3000)},
		{Kind: 7, Payload: nil}, // empty payloads are legal
	}
	data := buildSnapshot(t, 42, sections...)

	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 42 {
		t.Fatalf("epoch = %d, want 42", f.Epoch())
	}
	table := f.Sections()
	if len(table) != len(sections) {
		t.Fatalf("%d sections, want %d", len(table), len(sections))
	}
	for i, want := range sections {
		got, err := f.Section(want.Kind)
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
		if table[i].Kind != want.Kind || !bytes.Equal(got, want.Payload) {
			t.Fatalf("section %d: got kind %d len %d", i, table[i].Kind, len(got))
		}
	}
}

func TestScan(t *testing.T) {
	data := buildSnapshot(t, 7, section{Kind: 3, Payload: []byte("abc")}, section{Kind: 9, Payload: []byte("defg")})
	info, err := Scan(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 7 {
		t.Fatalf("epoch = %d", info.Epoch)
	}
	if len(info.Sections) != 2 || info.Sections[0].Kind != 3 || info.Sections[1].Length != 4 {
		t.Fatalf("sections = %+v", info.Sections)
	}
	if info.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, file is %d", info.Bytes, len(data))
	}
}

func TestReservedKind(t *testing.T) {
	w, err := NewWriter(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section(EndKind, nil); err == nil {
		t.Fatal("kind 0 accepted")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	data := buildSnapshot(t, 0, section{Kind: 1, Payload: []byte("x")})

	bad := append([]byte(nil), data...)
	copy(bad, "NOTASNAP")
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(bad[8:], Version+1)
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: %v", err)
	}
}

// readAll opens data and reads every section, returning the first error.
func readAll(data []byte) error {
	_, err := Scan(bytes.NewReader(data), int64(len(data)))
	return err
}

func TestTruncation(t *testing.T) {
	data := buildSnapshot(t, 1, section{Kind: 1, Payload: bytes.Repeat([]byte{1}, 100)})
	// Every possible truncation point must error (wrapping ErrCorrupt),
	// never panic and never read as valid.
	for n := 0; n < len(data); n++ {
		if err := readAll(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	if err := readAll(data); err != nil {
		t.Fatalf("intact file: %v", err)
	}
}

func TestFlippedBytes(t *testing.T) {
	data := buildSnapshot(t, 1, section{Kind: 1, Payload: []byte("hello, snapshot")})
	// Flipping any byte after the header must surface as ErrCorrupt:
	// payloads, the index and the end marker are all CRC-framed, and a
	// flipped section kind or length disagrees with the index.
	for i := headerSize; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := readAll(bad); err == nil {
			t.Fatalf("flip at byte %d read as valid", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestLyingLengthDoesNotOverAllocate(t *testing.T) {
	data := buildSnapshot(t, 1, section{Kind: 1, Payload: []byte("tiny")})
	// Rewrite the section length to claim ~16 EiB. The reader must fail
	// on the disagreement with the index before allocating anything.
	bad := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(bad[headerSize+4:], 1<<60)
	before := testing.AllocsPerRun(1, func() {
		if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lying length: %v", err)
		}
	})
	_ = before // the run itself completing (no OOM) is the assertion
}

func TestWrongSectionCount(t *testing.T) {
	data := buildSnapshot(t, 1, section{Kind: 1, Payload: []byte("a")}, section{Kind: 2, Payload: []byte("b")})
	// Patch the end marker count from 2 to 3 and fix its CRC so only the
	// count check can catch it.
	bad := append([]byte(nil), data...)
	off := len(bad) - endSize
	binary.BigEndian.PutUint64(bad[off+4:], 3)
	fixEndCRC(bad, off)
	if err := readAll(bad); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "counts 3") {
		t.Fatalf("wrong count: %v", err)
	}
}

// fixEndCRC recomputes the end marker's CRC exactly as Close does.
func fixEndCRC(data []byte, off int) {
	binary.BigEndian.PutUint32(data[off+20:], crc32.ChecksumIEEE(data[off:off+20]))
}
