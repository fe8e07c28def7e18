package mht

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash"
	"slices"

	"github.com/authhints/spv/internal/digest"
)

// ErrIncomplete reports that the proof and known leaves do not cover the
// tree, so the root cannot be reconstructed.
var ErrIncomplete = errors.New("mht: proof incomplete")

// Leaf is one leaf digest the verifier holds itself (the digest of a
// message it received), at its leaf position.
type Leaf struct {
	Index  uint32
	Digest []byte
}

// Reconstructor is reusable scratch for root reconstruction: one hasher,
// the per-level node lists and one digest arena. A zero value is ready;
// a verifier that keeps one across proofs reaches zero steady-state
// allocations. Not safe for concurrent use.
//
// Reconstruction runs bottom-up, one level at a time, as a merge of
// sorted (index, digest) lists: level l+1 is the union of the proof's
// level-(l+1) entries and the parents whose children are all present at
// level l. Where both exist the provided digest wins, exactly as in a
// top-down recursion that stops at the first provided digest on each
// root path, so both orders yield the same root or both fail (DESIGN.md
// §16.3).
type Reconstructor struct {
	alg       digest.Alg
	h         hash.Hash
	widths    []int
	entries   []Entry // sorted copy of out-of-order entries
	claims    []Leaf  // one proof's claimed leaves (ReconstructSet)
	cur, next []Leaf
	arena     []byte
}

// Reconstruct computes the root digest from the verifier's own leaf
// digests and the proof entries, without access to the tree. leaves must
// be sorted by strictly ascending Index. It fails if any needed digest is
// missing (ErrIncomplete) or the inputs are inconsistent with the
// declared shape.
func Reconstruct(p *Proof, leaves []Leaf) ([]byte, error) {
	var r Reconstructor
	return r.Root(p, leaves)
}

// Root is Reconstruct on r's scratch. The returned digest aliases the
// scratch: it is valid until the next call on r.
func (r *Reconstructor) Root(p *Proof, leaves []Leaf) ([]byte, error) {
	fanout, err := r.shape(p)
	if err != nil {
		return nil, err
	}
	size := p.Alg.Size()
	n := uint32(r.widths[0])
	for i, l := range leaves {
		if l.Index >= n {
			return nil, fmt.Errorf("mht: known leaf %d out of range", l.Index)
		}
		if len(l.Digest) != size {
			return nil, fmt.Errorf("mht: known leaf %d digest size %d, want %d", l.Index, len(l.Digest), size)
		}
		if i > 0 && l.Index <= leaves[i-1].Index {
			return nil, fmt.Errorf("mht: known leaf %d out of order", l.Index)
		}
	}
	entries, err := r.sortedEntries(p.Entries, size)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(entries); i++ {
		a, b := &entries[i-1], &entries[i]
		if a.Level == b.Level && a.Index == b.Index && !bytes.Equal(a.Digest, b.Digest) {
			return nil, fmt.Errorf("mht: conflicting digests at (%d,%d)", b.Level, b.Index)
		}
	}
	r.setAlg(p.Alg)
	r.arena = slices.Grow(r.arena[:0], (len(leaves)+len(entries)+len(r.widths))*size)
	lvl0 := levelEnd(entries, 0)
	var conflict bool
	r.cur, conflict = mergeLevel(r.cur[:0], leaves, entries[:lvl0], true)
	if conflict {
		return nil, errors.New("mht: conflicting digests at level 0")
	}
	top, _ := r.fold(fanout, entries[lvl0:], true, false)
	if len(top) == 0 {
		return nil, fmt.Errorf("%w: root not covered", ErrIncomplete)
	}
	return top[0].Digest, nil
}

// Clear drops every reference r holds into the inputs of its last call
// (proof and leaf digests), keeping its storage, so a pooled
// Reconstructor never pins a proof.
func (r *Reconstructor) Clear() {
	clear(r.entries[:cap(r.entries)])
	clear(r.claims[:cap(r.claims)])
	clear(r.cur[:cap(r.cur)])
	clear(r.next[:cap(r.next)])
}

// shape validates the proof header and fills r.widths with the number of
// positions per level, leaves first.
func (r *Reconstructor) shape(p *Proof) (int, error) {
	if !p.Alg.Valid() {
		return 0, fmt.Errorf("mht: invalid algorithm %d in proof", p.Alg)
	}
	fanout := int(p.Fanout)
	if fanout < 2 || fanout > MaxFanout {
		return 0, fmt.Errorf("mht: invalid fanout %d in proof", fanout)
	}
	n := int(p.NumLeaves)
	if n <= 0 {
		return 0, errors.New("mht: invalid leaf count in proof")
	}
	r.widths = r.widths[:0]
	for w := n; ; w = groupLevel(w, fanout).groups {
		r.widths = append(r.widths, w)
		if w == 1 {
			break
		}
	}
	return fanout, nil
}

func (r *Reconstructor) setAlg(alg digest.Alg) {
	if r.h == nil || r.alg != alg {
		r.alg, r.h = alg, alg.New()
	}
}

// sortedEntries validates entries against the current shape and returns
// them sorted by (level, index): as is when already sorted (every honest
// proof is), else as a stably sorted copy in r's scratch.
func (r *Reconstructor) sortedEntries(entries []Entry, size int) ([]Entry, error) {
	sorted := true
	for i, e := range entries {
		if int(e.Level) >= len(r.widths) || int(e.Index) >= r.widths[e.Level] {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) outside tree shape", e.Level, e.Index)
		}
		if len(e.Digest) != size {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) digest size %d, want %d", e.Level, e.Index, len(e.Digest), size)
		}
		if i > 0 && entryLess(e, entries[i-1]) {
			sorted = false
		}
	}
	if sorted {
		return entries, nil
	}
	r.entries = append(r.entries[:0], entries...)
	slices.SortStableFunc(r.entries, func(a, b Entry) int {
		switch {
		case entryLess(a, b):
			return -1
		case entryLess(b, a):
			return 1
		}
		return 0
	})
	return r.entries, nil
}

func entryLess(a, b Entry) bool {
	return a.Level < b.Level || a.Level == b.Level && a.Index < b.Index
}

// levelEnd returns the end of the run of level-l entries at the head of
// entries (sorted by level).
func levelEnd(entries []Entry, l int) int {
	i := 0
	for i < len(entries) && int(entries[i].Level) == l {
		i++
	}
	return i
}

// mergeLevel appends the sorted union of nodes and entries (both sorted by
// index; nodes strictly, entries possibly repeating an index) to dst.
// Repeats collapse to one node; with compare set, a repeat whose digests
// differ reports conflict.
func mergeLevel(dst, nodes []Leaf, entries []Entry, compare bool) ([]Leaf, bool) {
	i, j := 0, 0
	for i < len(nodes) || j < len(entries) {
		var next Leaf
		switch {
		case j == len(entries) || i < len(nodes) && nodes[i].Index < entries[j].Index:
			next = nodes[i]
			i++
		default:
			next = Leaf{Index: entries[j].Index, Digest: entries[j].Digest}
			j++
			if i < len(nodes) && nodes[i].Index == next.Index {
				if compare && !bytes.Equal(nodes[i].Digest, next.Digest) {
					return dst, true
				}
				i++
			}
		}
		if k := len(dst); k > 0 && dst[k-1].Index == next.Index {
			if compare && !bytes.Equal(dst[k-1].Digest, next.Digest) {
				return dst, true
			}
			continue
		}
		dst = append(dst, next)
	}
	return dst, false
}

// fold lifts r.cur (the level-0 nodes, sorted and unique) to the top
// level and returns the top level's nodes: the root, or nothing when the
// root is not covered. entries holds the provided digests of levels ≥ 1,
// sorted by (level, index). With hash unset fold only decides coverage
// (digests stay nil). With check set a parent that is both provided and
// computable is hashed anyway and must equal the provided digest; a
// mismatch returns ok=false. Without check the provided digest wins
// unhashed.
func (r *Reconstructor) fold(fanout int, entries []Entry, hash, check bool) ([]Leaf, bool) {
	size := 0
	if hash {
		size = r.alg.Size()
	}
	for l := 0; l+1 < len(r.widths); l++ {
		grp := groupLevel(r.widths[l], fanout)
		end := levelEnd(entries, l+1)
		provided := entries[:end]
		entries = entries[end:]
		next := r.next[:0]
		pi := 0
		cur := r.cur
		for i := 0; i < len(cur); {
			p := uint32(grp.parentOf(int(cur[i].Index)))
			first, last := grp.childRange(int(p))
			j := i + 1
			for j < len(cur) && cur[j].Index < uint32(last) {
				j++
			}
			for pi < len(provided) && provided[pi].Index < p {
				next = appendEntry(next, provided[pi])
				pi++
			}
			full := j-i == last-first
			have := pi < len(provided) && provided[pi].Index == p
			switch {
			case have && !(check && hash && full):
				next = append(next, Leaf{Index: p, Digest: provided[pi].Digest})
			case full:
				var d []byte
				if hash {
					r.h.Reset()
					for _, c := range cur[i:j] {
						r.h.Write(c.Digest)
					}
					r.arena = r.h.Sum(r.arena)
					d = r.arena[len(r.arena)-size:]
					if have && !bytes.Equal(d, provided[pi].Digest) {
						r.next = next
						return nil, false
					}
				}
				next = append(next, Leaf{Index: p, Digest: d})
			}
			for pi < len(provided) && provided[pi].Index == p {
				pi++
			}
			i = j
		}
		for ; pi < len(provided); pi++ {
			next = appendEntry(next, provided[pi])
		}
		r.cur, r.next = next, cur
	}
	return r.cur, true
}

// appendEntry appends a provided digest as a node, collapsing a repeat of
// the last index (repeats were checked equal up front).
func appendEntry(dst []Leaf, e Entry) []Leaf {
	if k := len(dst); k > 0 && dst[k-1].Index == e.Index {
		return dst
	}
	return append(dst, Leaf{Index: e.Index, Digest: e.Digest})
}

// SortLeaves sorts leaves by Index in place and collapses repeats of one
// position, returning the strictly ascending prefix Reconstruct and
// ReconstructSet take. Repeats must carry equal digests; a position with
// two different digests reports its index and ok=false.
func SortLeaves(leaves []Leaf) (out []Leaf, conflict uint32, ok bool) {
	if !slices.IsSortedFunc(leaves, compareLeaves) {
		slices.SortStableFunc(leaves, compareLeaves)
	}
	out = leaves[:0]
	for _, l := range leaves {
		if k := len(out); k > 0 && out[k-1].Index == l.Index {
			if !bytes.Equal(out[k-1].Digest, l.Digest) {
				return nil, l.Index, false
			}
			continue
		}
		out = append(out, l)
	}
	return out, 0, true
}

func compareLeaves(a, b Leaf) int { return cmp.Compare(a.Index, b.Index) }
