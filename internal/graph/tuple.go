package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Tuple is the extended-tuple Φ(v) of a node v (paper Eq. 1):
//
//	Φ(v) = ⟨v.id, v.x, v.y, {⟨v', W(v, v')⟩ | (v, v') ∈ E}⟩
//
// It encapsulates the node's attributes and its full adjacency information,
// and is the unit of authentication in the network Merkle tree. Methods that
// need additional authenticated per-node hints (LDM landmark vectors, HYP
// cell/border flags) carry them in Extra, which is covered by the digest.
type Tuple struct {
	ID   NodeID
	X, Y float64
	Adj  []Edge // sorted by neighbor ID

	// Extra holds method-specific authenticated hint bytes appended to the
	// canonical encoding before hashing (Eq. 4 for LDM, Eq. 7 for HYP). For
	// the base methods it is nil.
	Extra []byte
}

// TupleOf builds the extended-tuple of node v. The adjacency is copied and
// canonically sorted so the encoding is deterministic.
func (g *Graph) TupleOf(v NodeID) Tuple {
	adj := append([]Edge(nil), g.adj[v]...)
	sort.Slice(adj, func(i, j int) bool { return adj[i].To < adj[j].To })
	return Tuple{ID: v, X: g.xs[v], Y: g.ys[v], Adj: adj}
}

// AppendBinary appends the canonical binary encoding of Φ(v) to buf and
// returns the extended slice. The layout is:
//
//	id uint32 | x float64 | y float64 | deg uint32 | deg×(to uint32, w float64) | extra
//
// All integers are big-endian. This encoding is the message hashed into the
// network Merkle tree, and also the on-the-wire form inside proofs.
func (t Tuple) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.ID))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.X))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.Y))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Adj)))
	for _, e := range t.Adj {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.To))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	buf = append(buf, t.Extra...)
	return buf
}

// EncodedSize returns the exact byte size of the canonical encoding,
// including Extra. This is the per-tuple contribution to the communication
// overhead reported in the experiments.
func (t Tuple) EncodedSize() int {
	return 4 + 8 + 8 + 4 + 12*len(t.Adj) + len(t.Extra)
}

// DecodeTuple parses a canonical tuple encoding produced by AppendBinary.
// extraLen gives the length of the trailing method-specific hint bytes;
// callers that embed tuples in streams must know it from context (the base
// methods use 0). It returns the tuple and the number of bytes consumed.
func DecodeTuple(buf []byte, extraLen int) (Tuple, int, error) {
	t, _, off, err := DecodeTupleAppend(buf, make([]Edge, 0, EncodedDegree(buf)))
	if err != nil {
		return Tuple{}, 0, err
	}
	if len(buf)-off < extraLen {
		return Tuple{}, 0, fmt.Errorf("graph: tuple adjacency truncated (deg=%d, have %d bytes)", len(t.Adj), len(buf))
	}
	if extraLen > 0 {
		t.Extra = append([]byte(nil), buf[off:off+extraLen]...)
		off += extraLen
	}
	return t, off, nil
}

// tupleHead is the fixed part of a tuple encoding: id, x, y and degree.
const tupleHead = 4 + 8 + 8 + 4

// EncodedDegree returns the adjacency length a tuple encoding declares,
// capped by what buf can hold, for sizing a shared arena before decoding.
func EncodedDegree(buf []byte) int {
	if len(buf) < tupleHead {
		return 0
	}
	return int(min(uint64(binary.BigEndian.Uint32(buf[20:])), uint64(len(buf)-tupleHead)/12))
}

// DecodeTupleAppend parses the base part of a canonical tuple encoding
// (no Extra), appending its adjacency to edges so that many tuples share
// one arena; t.Adj aliases the returned arena. It returns the tuple, the
// extended arena and the number of bytes consumed.
func DecodeTupleAppend(buf []byte, edges []Edge) (Tuple, []Edge, int, error) {
	if len(buf) < tupleHead {
		return Tuple{}, edges, 0, fmt.Errorf("graph: tuple truncated (%d bytes)", len(buf))
	}
	t := Tuple{
		ID: NodeID(binary.BigEndian.Uint32(buf)),
		X:  math.Float64frombits(binary.BigEndian.Uint64(buf[4:])),
		Y:  math.Float64frombits(binary.BigEndian.Uint64(buf[12:])),
	}
	deg := int(binary.BigEndian.Uint32(buf[20:]))
	if deg < 0 || (len(buf)-tupleHead)/12 < deg {
		return Tuple{}, edges, 0, fmt.Errorf("graph: tuple adjacency truncated (deg=%d, have %d bytes)", deg, len(buf))
	}
	start := len(edges)
	off := tupleHead
	for i := 0; i < deg; i++ {
		edges = append(edges, Edge{
			To: NodeID(binary.BigEndian.Uint32(buf[off:])),
			W:  math.Float64frombits(binary.BigEndian.Uint64(buf[off+4:])),
		})
		off += 12
	}
	t.Adj = edges[start:len(edges):len(edges)]
	return t, edges, off, nil
}

// Weight returns the weight of the edge from this tuple's node to neighbor
// `to`, and whether such an edge exists.
func (t Tuple) Weight(to NodeID) (float64, bool) {
	// Adjacency is sorted by ID; binary search.
	i := sort.Search(len(t.Adj), func(i int) bool { return t.Adj[i].To >= to })
	if i < len(t.Adj) && t.Adj[i].To == to {
		return t.Adj[i].W, true
	}
	return 0, false
}
