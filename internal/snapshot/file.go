package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// File is the random-access face of a snapshot and its only reader: it
// opens by reading only the header, the end marker and the trailing index
// (which must tile the file exactly), and reads one payload per Section
// call with positioned reads. No payload byte is touched at open, which
// is what keeps a replica's cold start O(sections) instead of O(file
// size); payload CRCs are verified on first touch, so a lazily hydrated
// loader surfaces corruption as a clean error from the query that first
// needs the section.
//
// Safe for concurrent Section calls (io.ReaderAt is required to tolerate
// concurrent positioned reads, and os.File does).
type File struct {
	ra     io.ReaderAt
	size   int64
	closer io.Closer
	epoch  int64
	table  []SectionInfo
}

// Open opens a snapshot file for random access. The returned File keeps
// the descriptor open — lazily hydrated loaders read from it long after
// open — until Close.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sf, err := NewFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	sf.closer = f
	return sf, nil
}

// NewFile opens a snapshot over any positioned reader of the given size.
// The header must carry Version and zero flags, and the index must pass
// its CRC, bounds and tiling checks; anything else is ErrCorrupt.
func NewFile(ra io.ReaderAt, size int64) (*File, error) {
	f := &File{ra: ra, size: size}
	var head [headerSize]byte
	if err := f.pread(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: header truncated: %v", ErrCorrupt, err)
	}
	if string(head[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:8])
	}
	if v := binary.BigEndian.Uint32(head[8:]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (reader speaks %d)", ErrCorrupt, v, Version)
	}
	if flags := binary.BigEndian.Uint32(head[12:]); flags != 0 {
		return nil, fmt.Errorf("%w: reserved header flags %#x", ErrCorrupt, flags)
	}
	f.epoch = int64(binary.BigEndian.Uint64(head[16:]))
	table, err := f.loadIndex()
	if err != nil {
		return nil, err
	}
	f.table = table
	return f, nil
}

// Close releases the underlying descriptor when the File owns one (Open);
// section reads fail afterwards.
func (f *File) Close() error {
	if f.closer == nil {
		return nil
	}
	return f.closer.Close()
}

// Epoch returns the deployment epoch recorded in the header.
func (f *File) Epoch() int64 { return f.epoch }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Sections returns the section table (a copy), in file order. Payload
// CRCs are as the index records them, not yet verified — Section verifies
// on read.
func (f *File) Sections() []SectionInfo {
	return append([]SectionInfo(nil), f.table...)
}

// Has reports whether the file contains a section of the given kind.
func (f *File) Has(kind uint32) bool {
	for _, e := range f.table {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// Section reads, CRC-verifies and returns the payload of the first
// section of the given kind. Absent kinds return ErrNoSection; integrity
// failures (including an index entry that disagrees with the section it
// points at) wrap ErrCorrupt. The returned payload is owned by the
// caller. Safe for concurrent use.
func (f *File) Section(kind uint32) ([]byte, error) {
	for _, e := range f.table {
		if e.Kind == kind {
			return f.payload(e)
		}
	}
	return nil, fmt.Errorf("%w: kind %d", ErrNoSection, kind)
}

// payload reads and verifies one section's payload. The table entry was
// bounds-checked at open, so the allocation here is backed by real file
// bytes.
func (f *File) payload(e SectionInfo) ([]byte, error) {
	var head [sectionHeadSize]byte
	if err := f.pread(head[:], e.Offset); err != nil {
		return nil, fmt.Errorf("%w: section kind %d head: %v", ErrCorrupt, e.Kind, err)
	}
	if k := binary.BigEndian.Uint32(head[:]); k != e.Kind {
		return nil, fmt.Errorf("%w: table points kind %d at a kind-%d section", ErrCorrupt, e.Kind, k)
	}
	if l := binary.BigEndian.Uint64(head[4:]); l != e.Length {
		return nil, fmt.Errorf("%w: section kind %d is %d bytes, table says %d", ErrCorrupt, e.Kind, l, e.Length)
	}
	buf := make([]byte, e.Length+4)
	if err := f.pread(buf, e.Offset+sectionHeadSize); err != nil {
		return nil, fmt.Errorf("%w: section kind %d payload: %v", ErrCorrupt, e.Kind, err)
	}
	payload, tail := buf[:e.Length:e.Length], buf[e.Length:]
	stored := binary.BigEndian.Uint32(tail)
	if got := sectionCRC(head, payload); got != stored || stored != e.CRC {
		return nil, fmt.Errorf("%w: section kind %d CRC mismatch", ErrCorrupt, e.Kind)
	}
	return payload, nil
}

func (f *File) pread(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > f.size {
		return fmt.Errorf("read [%d, %d) outside %d-byte file", off, off+int64(len(p)), f.size)
	}
	_, err := f.ra.ReadAt(p, off)
	return err
}

// loadIndex resolves the trailing index: end marker → index offset →
// index section, each CRC-checked, and every entry checked to tile the
// file up to the index, so a lying index cannot cause reads or
// allocations beyond the file.
func (f *File) loadIndex() ([]SectionInfo, error) {
	if f.size < headerSize+endSize {
		return nil, fmt.Errorf("%w: %d-byte file has no room for an end marker", ErrCorrupt, f.size)
	}
	var end [endSize]byte
	if err := f.pread(end[:], f.size-endSize); err != nil {
		return nil, fmt.Errorf("%w: end marker: %v", ErrCorrupt, err)
	}
	if binary.BigEndian.Uint32(end[:]) != EndKind {
		return nil, fmt.Errorf("%w: no end marker at file tail", ErrCorrupt)
	}
	if got := binary.BigEndian.Uint32(end[20:]); got != crc32.ChecksumIEEE(end[:20]) {
		return nil, fmt.Errorf("%w: end marker CRC mismatch", ErrCorrupt)
	}
	count := binary.BigEndian.Uint64(end[4:])
	indexOff := int64(binary.BigEndian.Uint64(end[12:]))
	if indexOff < headerSize || indexOff > f.size-endSize-sectionHeadSize-4 {
		return nil, fmt.Errorf("%w: index offset %d outside file", ErrCorrupt, indexOff)
	}
	var head [sectionHeadSize]byte
	if err := f.pread(head[:], indexOff); err != nil {
		return nil, fmt.Errorf("%w: index head: %v", ErrCorrupt, err)
	}
	if binary.BigEndian.Uint32(head[:]) != IndexKind {
		return nil, fmt.Errorf("%w: no index at offset %d", ErrCorrupt, indexOff)
	}
	// The index frame must end exactly where the end marker begins.
	length := binary.BigEndian.Uint64(head[4:])
	if length != uint64(f.size-endSize-indexOff-sectionHeadSize-4) {
		return nil, fmt.Errorf("%w: index of %d bytes does not reach the end marker", ErrCorrupt, length)
	}
	buf := make([]byte, length+4)
	if err := f.pread(buf, indexOff+sectionHeadSize); err != nil {
		return nil, fmt.Errorf("%w: index payload: %v", ErrCorrupt, err)
	}
	payload, tail := buf[:length:length], buf[length:]
	if got := binary.BigEndian.Uint32(tail); got != sectionCRC(head, payload) {
		return nil, fmt.Errorf("%w: index CRC mismatch", ErrCorrupt)
	}
	entries, err := parseIndex(payload, indexOff)
	if err != nil {
		return nil, err
	}
	if uint64(len(entries)) != count {
		return nil, fmt.Errorf("%w: index lists %d sections, end marker counts %d", ErrCorrupt, len(entries), count)
	}
	return entries, nil
}
