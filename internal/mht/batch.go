package mht

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/authhints/spv/internal/digest"
)

// ErrInconsistentSet reports that a set of proofs claimed to share one tree
// does not: shapes differ, two proofs claim different digests for the same
// position, or a provided digest disagrees with the hash of its (fully
// known) children. Batch verifiers treat this as "fall back to per-proof
// verification" — it is a performance signal, never an accept/reject
// verdict.
var ErrInconsistentSet = errors.New("mht: inconsistent proof set")

// ReconstructSet audits a set of proofs that claim positions in one shared
// tree, hashing every needed internal digest exactly once instead of once
// per proof. known holds the merged leaf digests, sorted by strictly
// ascending Index (the caller guarantees a single digest per position — it
// must reject byte-differing duplicates while merging); leaves[i] lists
// the leaf positions proof i relies on, strictly ascending. complete must
// have one slot per proof.
//
// The returned root is the digest every *complete* proof would reconstruct
// on its own: complete[i] reports whether proof i's claims alone cover the
// root (the precondition for that equivalence — incomplete proofs must be
// retried individually so they fail with their own ErrIncomplete). The
// equivalence holds because (a) all claims are merged conflict-checked, so
// a proof's own claims have the same values in the merged view, and (b)
// every provided digest whose children are all known is recomputed and
// compared, so a position one proof computes bottom-up can never be
// short-circuited by another proof's differing claim. Any violation yields
// ErrInconsistentSet. The root aliases r's scratch, like Root's.
func (r *Reconstructor) ReconstructSet(proofs []*Proof, known []Leaf, leaves [][]uint32, complete []bool) ([]byte, error) {
	if len(proofs) == 0 {
		return nil, errors.New("mht: empty proof set")
	}
	if len(leaves) != len(proofs) || len(complete) != len(proofs) {
		return nil, fmt.Errorf("mht: %d leaf sets and %d slots for %d proofs", len(leaves), len(complete), len(proofs))
	}
	first := proofs[0]
	if first == nil {
		return nil, fmt.Errorf("%w: nil proof", ErrInconsistentSet)
	}
	fanout, err := r.shape(first)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInconsistentSet, err)
	}
	for _, p := range proofs[1:] {
		if p == nil || p.Alg != first.Alg || p.Fanout != first.Fanout || p.NumLeaves != first.NumLeaves {
			return nil, fmt.Errorf("%w: proofs describe different tree shapes", ErrInconsistentSet)
		}
	}
	size := first.Alg.Size()
	n := uint32(r.widths[0])
	for i, l := range known {
		if l.Index >= n || len(l.Digest) != size || i > 0 && l.Index <= known[i-1].Index {
			return nil, fmt.Errorf("%w: known leaf %d out of range, order or size", ErrInconsistentSet, l.Index)
		}
	}

	// Per-proof structural completeness: covered(l,i) ⇔ proof i claims the
	// position or all its children are covered. No hashing — this only
	// decides which proofs the shared root speaks for.
	for pi, p := range proofs {
		claims := r.claims[:0]
		for k, li := range leaves[pi] {
			if k > 0 && li <= leaves[pi][k-1] {
				return nil, fmt.Errorf("%w: proof %d leaf %d out of order", ErrInconsistentSet, pi, li)
			}
			if _, present := slices.BinarySearchFunc(known, Leaf{Index: li}, compareLeaves); !present {
				return nil, fmt.Errorf("%w: proof %d leaf %d missing from known set", ErrInconsistentSet, pi, li)
			}
			claims = append(claims, Leaf{Index: li})
		}
		r.claims = claims
		entries, err := r.sortedEntries(p.Entries, size)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInconsistentSet, err)
		}
		lvl0 := levelEnd(entries, 0)
		r.cur, _ = mergeLevel(r.cur[:0], claims, entries[:lvl0], false)
		top, _ := r.fold(fanout, entries[lvl0:], false, false)
		complete[pi] = len(top) > 0
	}

	// Merge every claim — leaves and proof entries — into one view, with
	// conflict detection across proofs.
	all := r.entries[:0]
	for _, p := range proofs {
		all = append(all, p.Entries...)
	}
	r.entries = all
	slices.SortStableFunc(all, func(a, b Entry) int {
		if c := cmp.Compare(a.Level, b.Level); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	for i := 1; i < len(all); i++ {
		a, b := &all[i-1], &all[i]
		if a.Level == b.Level && a.Index == b.Index && !bytes.Equal(a.Digest, b.Digest) {
			return nil, fmt.Errorf("%w: conflicting digests at (%d,%d)", ErrInconsistentSet, b.Level, b.Index)
		}
	}

	// Bottom-up: compute every position whose children are all known,
	// hashing each exactly once. Where a computed digest meets a provided
	// one, they must agree.
	r.setAlg(first.Alg)
	r.arena = slices.Grow(r.arena[:0], (len(known)+len(all)+len(r.widths))*size)
	lvl0 := levelEnd(all, 0)
	var conflict bool
	if r.cur, conflict = mergeLevel(r.cur[:0], known, all[:lvl0], true); conflict {
		return nil, fmt.Errorf("%w: conflicting leaf digests", ErrInconsistentSet)
	}
	top, ok := r.fold(fanout, all[lvl0:], true, true)
	if !ok {
		return nil, fmt.Errorf("%w: a provided digest disagrees with its children", ErrInconsistentSet)
	}
	if len(top) == 0 {
		// No proof in the set covers the root; every one is incomplete and
		// will be retried individually by the caller.
		return nil, nil
	}
	if slices.Contains(complete, true) {
		return top[0].Digest, nil
	}
	return nil, nil
}

// TreeScratch holds reusable storage for BuildInto: per-level node slices
// and one digest arena. A zero value is ready; reusing one scratch across
// builds of same-shaped trees reaches zero steady-state allocations. Not
// safe for concurrent use.
type TreeScratch struct {
	bufs  [][][]byte // bufs[k] backs tree level k+1
	arena []byte
	tree  Tree
}

// BuildInto is Build with caller-provided scratch for transient trees (the
// FULL method's per-query row trees). The returned tree aliases both the
// scratch and the leaves slice: it is valid only until the next BuildInto
// on s, and any digest taken from it (proof entries included) must be
// copied before s is reused. Digests are byte-identical to Build's.
func BuildInto(s *TreeScratch, alg digest.Alg, fanout int, leaves [][]byte) (*Tree, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	}
	if len(leaves) == 0 {
		return nil, errors.New("mht: no leaves")
	}
	size := alg.Size()
	for i, l := range leaves {
		if len(l) != size {
			return nil, fmt.Errorf("mht: leaf %d has %d bytes, want %d", i, len(l), size)
		}
	}
	s.arena = s.arena[:0]
	levels := s.tree.levels[:0]
	levels = append(levels, leaves)
	h := alg.New()
	cur := leaves
	for li := 0; len(cur) > 1; li++ {
		grp := groupLevel(len(cur), fanout)
		if li == len(s.bufs) {
			s.bufs = append(s.bufs, make([][]byte, 0, grp.groups))
		}
		next := s.bufs[li][:0]
		for p := 0; p < grp.groups; p++ {
			first, last := grp.childRange(p)
			h.Reset()
			for _, child := range cur[first:last] {
				h.Write(child)
			}
			s.arena = h.Sum(s.arena)
			next = append(next, s.arena[len(s.arena)-size:])
		}
		s.bufs[li] = next
		levels = append(levels, next)
		cur = next
	}
	s.tree = Tree{alg: alg, fanout: fanout, levels: levels}
	return &s.tree, nil
}
