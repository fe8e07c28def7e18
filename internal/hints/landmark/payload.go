package landmark

import (
	"encoding/binary"
	"fmt"

	"github.com/authhints/spv/internal/graph"
)

// Payload is the per-node authenticated hint embedded in the extended-tuple
// Φ(v) (Eq. 4): either the node's own quantized landmark vector (b bits per
// landmark, packed), or a reference node plus compression error for
// compressed nodes. The payload bytes are covered by the node's digest in
// the network Merkle tree, so clients can trust whichever form they receive.
type Payload struct {
	HasVec bool
	Units  []uint32     // quantized units, present iff HasVec
	Ref    graph.NodeID // reference node v.θ, present iff !HasVec
	Eps    uint32       // compression error v.ε in λ units, iff !HasVec
}

// payload wire tags.
const (
	tagVector     = 0x01
	tagCompressed = 0x02
)

// PayloadOf extracts node v's payload from the hint set.
func (h *Hints) PayloadOf(v graph.NodeID) Payload {
	if h.Ref[v] == v {
		return Payload{HasVec: true, Units: h.Units[v]}
	}
	return Payload{Ref: h.Ref[v], Eps: h.Eps[v]}
}

// VectorPayloadSize returns the wire size of a vector payload for c
// landmarks at b bits: 1 tag byte plus the packed bitstream. This is the
// quantization win the paper's §V-A is after — c=200, b=12 costs 301 bytes
// instead of 1,601 for raw float64 vectors.
func VectorPayloadSize(c, bits int) int { return 1 + (c*bits+7)/8 }

// CompressedPayloadSize returns the wire size of a compressed payload:
// 1 tag byte + 4-byte reference ID + 4-byte ε.
const CompressedPayloadSize = 1 + 4 + 4

// EncodedSize returns the payload's wire size given the hint parameters.
func (p Payload) EncodedSize(c, bits int) int {
	if p.HasVec {
		return VectorPayloadSize(c, bits)
	}
	return CompressedPayloadSize
}

// AppendBinary encodes the payload.
func (p Payload) AppendBinary(bits int, buf []byte) []byte {
	if p.HasVec {
		buf = append(buf, tagVector)
		return appendPacked(buf, p.Units, bits)
	}
	buf = append(buf, tagCompressed)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Ref))
	buf = binary.BigEndian.AppendUint32(buf, p.Eps)
	return buf
}

// DecodePayload parses a payload for c landmarks at b bits, returning the
// payload and the number of bytes consumed.
func DecodePayload(buf []byte, c, bits int) (Payload, int, error) {
	p, _, n, err := DecodePayloadAppend(buf, c, bits, nil)
	return p, n, err
}

// DecodePayloadAppend is DecodePayload with a vector's units appended to
// units, so that the payloads of one proof share one arena; p.Units
// aliases the returned arena.
func DecodePayloadAppend(buf []byte, c, bits int, units []uint32) (Payload, []uint32, int, error) {
	if len(buf) < 1 {
		return Payload{}, units, 0, fmt.Errorf("landmark: payload truncated")
	}
	switch buf[0] {
	case tagVector:
		need := 1 + (c*bits+7)/8
		if len(buf) < need {
			return Payload{}, units, 0, fmt.Errorf("landmark: vector payload truncated (%d of %d bytes)", len(buf), need)
		}
		start := len(units)
		units = unpackAppend(units, buf[1:need], c, bits)
		return Payload{HasVec: true, Units: units[start:len(units):len(units)]}, units, need, nil
	case tagCompressed:
		if len(buf) < CompressedPayloadSize {
			return Payload{}, units, 0, fmt.Errorf("landmark: compressed payload truncated")
		}
		return Payload{
			Ref: graph.NodeID(binary.BigEndian.Uint32(buf[1:])),
			Eps: binary.BigEndian.Uint32(buf[5:]),
		}, units, CompressedPayloadSize, nil
	default:
		return Payload{}, units, 0, fmt.Errorf("landmark: unknown payload tag %#x", buf[0])
	}
}

// appendPacked packs each unit into bits bits, big-endian bit order.
func appendPacked(buf []byte, units []uint32, bits int) []byte {
	var acc uint64
	var nbits int
	for _, u := range units {
		acc = acc<<bits | uint64(u&((1<<bits)-1))
		nbits += bits
		for nbits >= 8 {
			nbits -= 8
			buf = append(buf, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		buf = append(buf, byte(acc<<(8-nbits)))
	}
	return buf
}

// unpackAppend reverses appendPacked for c units of the given width,
// appending them to units. buf must hold at least (c·bits+7)/8 bytes.
func unpackAppend(units []uint32, buf []byte, c, bits int) []uint32 {
	var acc uint64
	var nbits, pos int
	for i := 0; i < c; i++ {
		for nbits < bits {
			acc = acc<<8 | uint64(buf[pos])
			pos++
			nbits += 8
		}
		nbits -= bits
		units = append(units, uint32(acc>>nbits)&((1<<bits)-1))
	}
	return units
}

// Params are the global hint parameters a client needs to interpret
// payloads. They are covered by the owner's root signature (the core layer
// signs root ◦ params), so a provider cannot forge them.
type Params struct {
	C      int
	Bits   int
	Lambda float64
}

// Resolver evaluates Lemma 4 lower bounds on the client side over the
// authenticated payloads of one proof (one per tuple), addressed by the
// proof's local tuple index 0..n-1 rather than by node ID, so its memory
// is bounded by the record count. Resolve follows each node's reference
// once; LB then costs one pass over c quantized units.
type Resolver struct {
	Params
	ids      []graph.NodeID
	payloads []Payload
	vecs     [][]uint32 // resolved vector per local node; nil if unresolvable
	eps      []uint32
}

// NewResolver creates an empty resolver for the given parameters.
func NewResolver(p Params) *Resolver { return &Resolver{Params: p} }

// Reset empties the resolver and re-arms it for the given parameters,
// keeping its storage, so one verifier resolves proof after proof without
// allocating.
func (r *Resolver) Reset(p Params) {
	r.Params = p
	r.ids = r.ids[:0]
	r.payloads = r.payloads[:0]
	r.vecs = r.vecs[:0]
	r.eps = r.eps[:0]
}

// Add registers node v's payload as the next local node and returns its
// local index. Call Resolve after the last Add.
func (r *Resolver) Add(v graph.NodeID, p Payload) int {
	r.ids = append(r.ids, v)
	r.payloads = append(r.payloads, p)
	return len(r.ids) - 1
}

// Resolve fixes every local node's quantized vector and ε, following the
// reference indirection at most one level (representatives always carry
// their own vectors). local maps a node ID to its local index, reporting
// absence. A node whose reference is absent or itself compressed stays
// unresolved; LB reports it when asked.
func (r *Resolver) Resolve(local func(graph.NodeID) (int, bool)) {
	r.vecs = append(r.vecs[:0], make([][]uint32, len(r.payloads))...)
	r.eps = append(r.eps[:0], make([]uint32, len(r.payloads))...)
	for i, p := range r.payloads {
		if p.HasVec {
			r.vecs[i] = p.Units
			continue
		}
		if j, ok := local(p.Ref); ok && r.payloads[j].HasVec {
			r.vecs[i], r.eps[i] = r.payloads[j].Units, p.Eps
		}
	}
}

// vector returns local node i's resolved vector and ε.
func (r *Resolver) vector(i int) ([]uint32, uint32, error) {
	if i < 0 || i >= len(r.vecs) {
		return nil, 0, fmt.Errorf("landmark: no payload for local node %d", i)
	}
	if r.vecs[i] == nil {
		return nil, 0, fmt.Errorf("landmark: node %d references %d whose payload is missing or compressed",
			r.ids[i], r.payloads[i].Ref)
	}
	return r.vecs[i], r.eps[i], nil
}

// LB computes the Lemma 4 lower bound between local nodes i and j:
//
//	max{0, distLB^loose(i.θ, j.θ) − (i.ε + j.ε)·λ}
//
// It fails if a needed payload is absent — the client treats that as an
// invalid proof.
func (r *Resolver) LB(i, j int) (float64, error) {
	vu, eu, err := r.vector(i)
	if err != nil {
		return 0, err
	}
	vv, ev, err := r.vector(j)
	if err != nil {
		return 0, err
	}
	if len(vu) != len(vv) {
		return 0, fmt.Errorf("landmark: vector length mismatch (%d vs %d)", len(vu), len(vv))
	}
	var maxDiff uint32
	for k := range vu {
		var d uint32
		if vu[k] > vv[k] {
			d = vu[k] - vv[k]
		} else {
			d = vv[k] - vu[k]
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	// distLB^loose = (maxDiff − 1)·λ if maxDiff > 1 else 0 (Eq. 6);
	// subtract the compression penalty (Lemma 4), clamp at zero.
	if maxDiff <= 1 {
		return 0, nil
	}
	loose := float64(maxDiff-1) * r.Lambda
	penalty := float64(eu+ev) * r.Lambda
	if loose <= penalty {
		return 0, nil
	}
	return loose - penalty, nil
}
