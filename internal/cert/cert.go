// Package cert implements whole-snapshot certificates: a compact, signed
// statement by the data owner of everything a replica must hold for one
// epoch — per-method shortest-path labellings (distance + parent rows) and
// the Merkle roots the stored structures must hash to — plus a linear-time
// audit that checks a freshly loaded snapshot against it in one pass.
//
// The certificate complements the paper's per-query authenticated hints
// with whole-labelling assurance, after the linear-time shortest-path
// certification of Shokry et al.: a distance labelling d with parent
// pointers p is the true SSSP labelling from src iff d[src]=0 and one scan
// of the edges finds no triangle violation (d[v] ≤ d[u] + w(u,v)), every
// parent edge tight (d[v] = d[p[v]] + w(p[v],v)), every reachable node
// parented, and the parent forest acyclic. That scan is O(V+E) with O(1)
// work per edge — no Dijkstra re-runs — and is what Audit performs for
// every row the certificate carries.
//
// Stored Merkle structures are audited by folding: every stored interior
// level is recomputed from the level below (mht.Tree.AuditLevels) and the
// root compared to the certificate's. Under collision resistance a fold
// match pins every stored leaf digest to the owner's, so the audit never
// re-hashes leaf messages — that is what keeps it several times cheaper
// than re-outsourcing.
package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
)

// Audit error classes. Every rejection wraps ErrAudit plus exactly one of
// the specific classes below, so the tamper matrix (and operators reading
// spvsnap output) can tell what kind of state was bad.
var (
	// ErrAudit is the root class: every audit rejection wraps it.
	ErrAudit = errors.New("cert: audit rejected")
	// ErrDistance: a distance label violates the shortest-path conditions
	// (triangle inequality, d[src]=0, negative/NaN, or a stored row
	// disagreeing with the certified one).
	ErrDistance = fmt.Errorf("%w: distance label", ErrAudit)
	// ErrParent: a parent pointer is missing, out of range, not a tight
	// graph edge, or the parent forest has a cycle.
	ErrParent = fmt.Errorf("%w: parent pointer", ErrAudit)
	// ErrRowDigest: a digest commitment mismatch — a row digest, a stored
	// Merkle level that does not fold, a root differing from the
	// certificate's, or the core-section digest.
	ErrRowDigest = fmt.Errorf("%w: digest commitment", ErrAudit)
	// ErrSignature: an owner signature (the certificate's own, or a stored
	// root signature) fails verification.
	ErrSignature = fmt.Errorf("%w: signature", ErrAudit)
	// ErrEncoding: the certificate is malformed or structurally
	// inconsistent with the snapshot it claims to certify.
	ErrEncoding = fmt.Errorf("%w: encoding", ErrAudit)
	// ErrEpochMismatch: the certificate was issued for a different epoch
	// than the one the snapshot carries.
	ErrEpochMismatch = fmt.Errorf("%w: epoch mismatch", ErrAudit)
	// ErrMethodMissing: the certificate covers a method the snapshot does
	// not carry (or the view cannot resolve).
	ErrMethodMissing = fmt.Errorf("%w: method missing", ErrAudit)
)

// SigContext domain-separates certificate signatures from every root
// signature context; the signed message is SigContext ‖ SigningBytes(c).
var SigContext = []byte("spv/CERT/v1\x00")

// Row is one certified shortest-path labelling: distances and parent
// pointers from Src over the whole node set, plus the digest of the row's
// canonical encoding (the per-row integrity handle the tamper matrix
// targets independently of the certificate signature).
type Row struct {
	Src     graph.NodeID
	Dists   []float64
	Parents []graph.NodeID
	Digest  []byte
}

// MethodCert is one method's slice of the certificate: the Merkle roots
// its stored structures must reproduce, the labelling rows the audit
// checks, and a method-defined parameter blob (e.g. HYP's row-form flag).
type MethodCert struct {
	Method string
	Aux    []byte
	Roots  [][]byte
	Rows   []Row
}

// Certificate is the owner's signed statement for one epoch. CoreDigest
// binds the snapshot's core sections (config, graph, leaf ordering), so a
// certificate cannot be replayed against a different world.
type Certificate struct {
	Alg        digest.Alg
	Epoch      int64
	CoreDigest []byte
	Methods    []MethodCert
	Sig        []byte
}

// Method returns the slice for the named method, or nil.
func (c *Certificate) Method(name string) *MethodCert {
	for i := range c.Methods {
		if c.Methods[i].Method == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// MethodNames returns the covered method names in certificate order.
func (c *Certificate) MethodNames() []string {
	names := make([]string, len(c.Methods))
	for i := range c.Methods {
		names[i] = c.Methods[i].Method
	}
	return names
}

// certMagic guards against feeding arbitrary sections to the decoder.
var certMagic = []byte("SPVC")

const certVersion = 1

// AppendBinary appends the canonical certificate wire:
//
//	"SPVC" | version u8 | alg u8 | epoch u64 | coreDigest bytes |
//	numMethods u16 | methods × (
//	  method str | aux bytes | numRoots u16 | roots × bytes |
//	  numRows u32 | rows × (src u32 | n u32 | n×f64 | n×u32 | digest bytes)
//	) | sig bytes
//
// where `bytes`/`str` are u32-length-prefixed and all integers are
// big-endian. Parents encode graph.Invalid as 0xFFFFFFFF.
func (c *Certificate) AppendBinary(buf []byte) []byte {
	buf = c.appendSigned(buf)
	return appendCertBytes(buf, c.Sig)
}

// SigningBytes returns the canonical bytes the certificate signature
// covers: the full wire minus the trailing signature field.
func (c *Certificate) SigningBytes() []byte { return c.appendSigned(nil) }

func (c *Certificate) appendSigned(buf []byte) []byte {
	buf = append(buf, certMagic...)
	buf = append(buf, certVersion, byte(c.Alg))
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Epoch))
	buf = appendCertBytes(buf, c.CoreDigest)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Methods)))
	for i := range c.Methods {
		m := &c.Methods[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Method)))
		buf = append(buf, m.Method...)
		buf = appendCertBytes(buf, m.Aux)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Roots)))
		for _, r := range m.Roots {
			buf = appendCertBytes(buf, r)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Rows)))
		for j := range m.Rows {
			buf = m.Rows[j].appendBinary(buf)
		}
	}
	return buf
}

func (r *Row) appendBinary(buf []byte) []byte {
	buf = r.appendBody(buf)
	return appendCertBytes(buf, r.Digest)
}

// appendBody is the digest preimage: everything but the digest itself.
func (r *Row) appendBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Dists)))
	for _, d := range r.Dists {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d))
	}
	for _, p := range r.Parents {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

// RowDigest computes the digest a Row must carry: H over the row's
// canonical body. scratch, when non-nil, provides the encode buffer.
func RowDigest(alg digest.Alg, r *Row, s *Scratch) []byte {
	var buf []byte
	if s != nil {
		buf = s.buf[:0]
	}
	buf = r.appendBody(buf)
	if s != nil {
		s.buf = buf
	}
	h := alg.New()
	h.Write(buf)
	return h.Sum(nil)
}

// maxCertMethods bounds decode allocation; the registry caps out far
// below this.
const maxCertMethods = 64

// DecodeCertificate parses a certificate wire. Every length is validated
// against the remaining input before allocation, so lying lengths error
// instead of over-allocating; decode→re-encode of an accepted wire is
// byte-identical (no trailing bytes tolerated).
func DecodeCertificate(buf []byte) (*Certificate, error) {
	c, off, err := decodeCertificate(buf)
	if err != nil {
		return nil, err
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(buf)-off)
	}
	return c, nil
}

func decodeCertificate(buf []byte) (*Certificate, int, error) {
	d := certDecoder{buf: buf}
	if string(d.take(4)) != string(certMagic) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrEncoding)
	}
	if v := d.u8(); v != certVersion {
		return nil, 0, fmt.Errorf("%w: unsupported certificate version %d", ErrEncoding, v)
	}
	c := &Certificate{Alg: digest.Alg(d.u8())}
	if d.err == nil && !c.Alg.Valid() {
		return nil, 0, fmt.Errorf("%w: bad digest algorithm %d", ErrEncoding, c.Alg)
	}
	size := 0
	if c.Alg.Valid() {
		size = c.Alg.Size()
	}
	c.Epoch = int64(d.u64())
	c.CoreDigest = d.bytes(size)
	nm := int(d.u16())
	if nm > maxCertMethods {
		return nil, 0, fmt.Errorf("%w: %d method slices", ErrEncoding, nm)
	}
	if d.err == nil {
		c.Methods = make([]MethodCert, 0, nm)
	}
	for i := 0; i < nm && d.err == nil; i++ {
		var m MethodCert
		m.Method = string(d.str())
		m.Aux = d.bytes(-1)
		nr := int(d.u16())
		if nr > maxCertMethods {
			d.fail("too many roots")
			break
		}
		for j := 0; j < nr && d.err == nil; j++ {
			m.Roots = append(m.Roots, d.bytes(size))
		}
		rows := int(d.u32())
		// A row is at least 8 bytes of header + the digest frame: bound
		// the claimed count by what the remaining input could hold.
		if d.err == nil && rows > d.remaining()/12 {
			d.fail("row count exceeds input")
			break
		}
		if d.err == nil && rows > 0 {
			m.Rows = make([]Row, 0, rows)
		}
		for j := 0; j < rows && d.err == nil; j++ {
			m.Rows = append(m.Rows, d.row(size))
		}
		if d.err == nil {
			c.Methods = append(c.Methods, m)
		}
	}
	c.Sig = d.bytes(-1)
	if d.err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrEncoding, d.err)
	}
	seen := map[string]bool{}
	for i := range c.Methods {
		if seen[c.Methods[i].Method] {
			return nil, 0, fmt.Errorf("%w: duplicate method slice %q", ErrEncoding, c.Methods[i].Method)
		}
		seen[c.Methods[i].Method] = true
	}
	return c, d.off, nil
}

// certDecoder is a sticky-error cursor over a certificate wire.
type certDecoder struct {
	buf []byte
	off int
	err error
}

func (d *certDecoder) remaining() int { return len(d.buf) - d.off }

func (d *certDecoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *certDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("truncated")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *certDecoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *certDecoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *certDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *certDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// bytes reads a u32-length-prefixed string; want >= 0 additionally pins
// the exact length (digest fields must be alg-sized).
func (d *certDecoder) bytes(want int) []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if want >= 0 && n != want {
		d.fail(fmt.Sprintf("field is %d bytes, want %d", n, want))
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

const maxMethodName = 16

func (d *certDecoder) str() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n == 0 || n > maxMethodName {
		d.fail("bad method name length")
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *certDecoder) row(digestSize int) Row {
	var r Row
	r.Src = graph.NodeID(d.u32())
	n := int(d.u32())
	if d.err != nil {
		return r
	}
	// 8 bytes of dist + 4 bytes of parent per node must still fit.
	if n > d.remaining()/12 {
		d.fail("row length exceeds input")
		return r
	}
	r.Dists = make([]float64, n)
	for i := range r.Dists {
		r.Dists[i] = math.Float64frombits(d.u64())
	}
	r.Parents = make([]graph.NodeID, n)
	for i := range r.Parents {
		r.Parents[i] = graph.NodeID(int32(d.u32()))
	}
	r.Digest = d.bytes(digestSize)
	return r
}

func appendCertBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}
