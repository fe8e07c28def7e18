package core

import (
	"fmt"
	"hash"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
)

// This file is the flat kernel of client verification, shared by the
// single-proof verifiers and the VerifyBatch fast paths (DESIGN.md §16):
// one proof's tuples decoded into a slice with one adjacency arena, one
// node ID → local index table, one leaf table sorted by Merkle position,
// and searches over dense per-local arrays. No structure is keyed by an
// attacker-chosen node ID, so memory is bounded by the record and
// adjacency counts.

// tupleTable is the client-side view of one proof's tuple set. Local
// index i names the i-th record; every per-node array is indexed by it.
type tupleTable struct {
	tuples []graph.Tuple // by local index (record order)
	// nbr holds, for every adjacency entry, the local index of its target
	// or -1 when the proof has no tuple for it; tuple i's entries start at
	// off[i].
	nbr []int32
	off []int32
	// byID is the one lookup by node ID: an open-addressing table of
	// uint32(id)<<32 | local+1 (0 = empty slot), at most half full.
	byID  []uint64
	shift uint
	// leaves is the (position, digest) table Merkle reconstruction reads,
	// strictly ascending by position.
	leaves []mht.Leaf

	edges   []graph.Edge // adjacency arena
	digests []byte       // leaf digest arena
	keys    []uint64     // position sort scratch
	alg     digest.Alg
	h       hash.Hash
}

// parse decodes recs into t, hashes each record into the leaf table and
// indexes the result. extra, when non-nil, is given each record's node
// and the bytes after its base encoding, in record order, and returns how
// many it consumed. Two records may not claim one leaf position, and no
// node may appear twice: either would let an unauthenticated record into
// the search (ErrMalformedProof).
func (t *tupleTable) parse(alg digest.Alg, recs []tupleRecord, extra func(id graph.NodeID, rest []byte) (int, error)) error {
	if !alg.Valid() {
		return fmt.Errorf("%w: invalid hash algorithm %d", ErrMalformedProof, alg)
	}
	if t.h == nil || t.alg != alg {
		t.alg, t.h = alg, alg.New()
	}
	size := alg.Size()
	degrees := 0
	for _, r := range recs {
		degrees += graph.EncodedDegree(r.Bytes)
	}
	t.tuples = slices.Grow(t.tuples[:0], len(recs))
	t.edges = slices.Grow(t.edges[:0], degrees)
	t.digests = slices.Grow(t.digests[:0], len(recs)*size)
	sorted := true
	for i, r := range recs {
		tu, edges, err := decodeRecord(r.Bytes, t.edges, extra)
		t.edges = edges
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrMalformedProof, i, err)
		}
		t.tuples = append(t.tuples, tu)
		t.h.Reset()
		t.h.Write(r.Bytes)
		t.digests = t.h.Sum(t.digests)
		if i > 0 && r.Pos <= recs[i-1].Pos {
			sorted = false
		}
	}
	// LDM and HYP records arrive in position order; DIJ records arrive in
	// settle order and take one sort.
	t.leaves = slices.Grow(t.leaves[:0], len(recs))
	if sorted {
		for i, r := range recs {
			t.leaves = append(t.leaves, mht.Leaf{Index: r.Pos, Digest: t.digests[i*size : (i+1)*size]})
		}
	} else {
		t.keys = t.keys[:0]
		for i, r := range recs {
			t.keys = append(t.keys, uint64(r.Pos)<<32|uint64(i))
		}
		slices.Sort(t.keys)
		for k, key := range t.keys {
			pos, i := uint32(key>>32), int(uint32(key))
			if k > 0 && uint32(t.keys[k-1]>>32) == pos {
				return fmt.Errorf("%w: two records claim leaf position %d", ErrMalformedProof, pos)
			}
			t.leaves = append(t.leaves, mht.Leaf{Index: pos, Digest: t.digests[i*size : (i+1)*size]})
		}
	}
	return t.index()
}

// decodeRecord decodes one record's base tuple, appending its adjacency
// to edges, and hands the bytes after it to extra (when non-nil), which
// returns how many it consumed; the record must be consumed exactly.
func decodeRecord(b []byte, edges []graph.Edge, extra func(id graph.NodeID, rest []byte) (int, error)) (graph.Tuple, []graph.Edge, error) {
	tu, edges, n, err := graph.DecodeTupleAppend(b, edges)
	if err != nil {
		return tu, edges, err
	}
	if extra != nil {
		used, err := extra(tu.ID, b[n:])
		if err != nil {
			return tu, edges, fmt.Errorf("extra: %v", err)
		}
		n += used
	}
	if n != len(b) {
		return tu, edges, fmt.Errorf("%d trailing bytes", len(b)-n)
	}
	return tu, edges, nil
}

// index builds the node ID table and resolves every adjacency target to
// its local index, once, so the searches never look a node up by ID.
func (t *tupleTable) index() error {
	size, shift := 8, uint(61)
	for size < 2*len(t.tuples) {
		size, shift = size*2, shift-1
	}
	t.byID = slices.Grow(t.byID[:0], size)[:size]
	clear(t.byID)
	t.shift = shift
	for i, tu := range t.tuples {
		k := uint64(uint32(tu.ID))
		for h := t.slot(k); ; h = (h + 1) & (size - 1) {
			if e := t.byID[h]; e == 0 {
				t.byID[h] = k<<32 | uint64(i+1)
				break
			} else if e>>32 == k {
				return fmt.Errorf("%w: node %d appears in two records", ErrMalformedProof, tu.ID)
			}
		}
	}
	t.off = t.off[:0]
	t.nbr = t.nbr[:0]
	for _, tu := range t.tuples {
		t.off = append(t.off, int32(len(t.nbr)))
		for _, e := range tu.Adj {
			t.nbr = append(t.nbr, t.local(e.To))
		}
	}
	t.off = append(t.off, int32(len(t.nbr)))
	return nil
}

// idHashMul is a random odd multiplier, drawn once per process, for the
// node ID table: record IDs are attacker-chosen before authentication, so
// the slot function must not be predictable.
var idHashMul = rand.Uint64() | 1

func (t *tupleTable) slot(k uint64) int { return int((k * idHashMul) >> t.shift) }

// local returns the local index of node id, or -1 when the proof has no
// tuple for it.
func (t *tupleTable) local(id graph.NodeID) int32 {
	k := uint64(uint32(id))
	for h := t.slot(k); ; h = (h + 1) & (len(t.byID) - 1) {
		e := t.byID[h]
		if e == 0 {
			return -1
		}
		if e>>32 == k {
			return int32(uint32(e)) - 1
		}
	}
}

// lookup is local in the (index, present) form Resolver.Resolve takes.
func (t *tupleTable) lookup(id graph.NodeID) (int, bool) {
	i := t.local(id)
	return int(i), i >= 0
}

// tuple returns node id's tuple, for path checks.
func (t *tupleTable) tuple(id graph.NodeID) (graph.Tuple, bool) {
	if i := t.local(id); i >= 0 {
		return t.tuples[i], true
	}
	return graph.Tuple{}, false
}

// adj returns local node i's adjacency and the local indices of its
// targets.
func (t *tupleTable) adj(i int32) ([]graph.Edge, []int32) {
	return t.tuples[i].Adj, t.nbr[t.off[i]:t.off[i+1]]
}

// hyperTable holds a proof's authenticated hyper-edge weights sorted by
// key, looked up by binary search.
type hyperTable []mbt.Entry

// fill replaces the table with entries, sorted by key.
func (h *hyperTable) fill(entries []mbt.ProvenEntry) {
	*h = (*h)[:0]
	for _, e := range entries {
		*h = append(*h, e.Entry)
	}
	if !slices.IsSortedFunc(*h, compareEntryKeys) {
		slices.SortStableFunc(*h, compareEntryKeys)
	}
}

func compareEntryKeys(a, b mbt.Entry) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	}
	return 0
}

// weight returns the weight of hyper-edge k, if the proof carries it.
func (h hyperTable) weight(k mbt.Key) (float64, bool) {
	i, ok := slices.BinarySearchFunc(h, mbt.Entry{Key: k}, compareEntryKeys)
	if !ok {
		return 0, false
	}
	return h[i].Value, true
}

// verifyScratch is the pooled state of one single-proof verification.
// Nothing in it outlives the verification: verdicts never alias it.
type verifyScratch struct {
	tab      tupleTable
	rec      mht.Reconstructor
	search   searchState
	cellS    searchState
	cellT    searchState
	meta     []hypMeta
	units    []uint32
	resolver landmark.Resolver
	hyper    hyperTable
	hyperRec mbt.RootScratch
	msg      []byte
}

var verifyPool = sync.Pool{New: func() any { return new(verifyScratch) }}

func acquireVerifyScratch() *verifyScratch { return verifyPool.Get().(*verifyScratch) }

// releaseVerifyScratch returns s to the pool, first dropping what it
// references of the verified proof (the Merkle entry digests); the rest
// of s refers only to its own arenas.
func releaseVerifyScratch(s *verifyScratch) {
	s.rec.Clear()
	s.hyperRec.Clear()
	verifyPool.Put(s)
}

// verifyRoot reconstructs the network Merkle root from the table's leaves
// plus the integrity proof and checks the owner's signature over the
// given context.
func (s *verifyScratch) verifyRoot(proof *mht.Proof, sigCtx, signature []byte, v sigVerifier) error {
	root, err := s.rec.Root(proof, s.tab.leaves)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
	}
	return s.checkSig(v, sigCtx, root, signature)
}

// checkSig verifies signature over sigCtx ◦ root.
func (s *verifyScratch) checkSig(v sigVerifier, sigCtx, root, signature []byte) error {
	s.msg = append(append(s.msg[:0], sigCtx...), root...)
	if err := v.Verify(s.msg, signature); err != nil {
		return reject(ErrBadSignature)
	}
	return nil
}
