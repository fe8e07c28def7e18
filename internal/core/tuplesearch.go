package core

import (
	"fmt"
	"slices"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// This file implements the client-side re-execution searches: shortest path
// algorithms that run over a proof's tuple table instead of a graph, and
// that treat any *required* but missing tuple as proof invalidity. They
// are the heart of subgraph-proof verification (§IV-A, §V-A). Every search
// runs on dense arrays and an indexed heap keyed by the proof's local
// tuple index (tupleTable), never by node ID.

// searchState is the dense per-local state of one search, reused across
// proofs: tentative distances, a seen/settled mark per local node, the
// settle order and the heap.
type searchState struct {
	dist    []float64
	mark    []uint8 // markSeen: dist valid; markDone: settled
	settled []int32
	heap    sp.Heap
}

const (
	markSeen uint8 = 1
	markDone uint8 = 2
)

// reset readies s for a search over n local nodes.
func (s *searchState) reset(n int) {
	s.dist = slices.Grow(s.dist[:0], n)[:n]
	s.mark = slices.Grow(s.mark[:0], n)[:n]
	clear(s.mark)
	s.settled = s.settled[:0]
	s.heap.Reset()
}

// relax offers distance nd to local node u: it queues u or lowers its key
// when nd improves on what u has.
func (s *searchState) relax(u int32, nd float64) {
	if s.mark[u] == 0 || nd < s.dist[u] {
		if s.mark[u] == 0 {
			s.heap.Push(graph.NodeID(u), nd)
		} else {
			s.heap.DecreaseKey(graph.NodeID(u), nd)
		}
		s.dist[u] = nd
		s.mark[u] = markSeen
	}
}

// tupleDijkstra runs Dijkstra from src over the table's tuples, stopping
// once the frontier passes `bound` (the claimed shortest path distance).
// Every node settled at distance ≤ bound must have a tuple — that is
// exactly Lemma 1's containment requirement — otherwise an
// ErrIncompleteProof is returned. A node without a tuple is never
// expanded, so it would be the first settled at its tentative distance:
// reaching one within the bound is the failure. It returns the subgraph
// distance of dst (sp.Unreachable if not reached within bound).
func tupleDijkstra(s *searchState, t *tupleTable, src, dst graph.NodeID, bound float64) (float64, error) {
	slack := bound * (1 + distTolerance)
	s.reset(len(t.tuples))
	srcL := t.local(src)
	if srcL < 0 {
		if 0 > slack {
			return sp.Unreachable, nil
		}
		return 0, missingNode(src, 0, bound)
	}
	s.relax(srcL, 0)
	for s.heap.Len() > 0 {
		v, d := s.heap.Pop()
		if d > slack {
			break
		}
		s.mark[v] = markDone
		adj, nbr := t.adj(int32(v))
		for k, e := range adj {
			nd := d + e.W
			u := nbr[k]
			if u < 0 {
				if !(nd > slack) {
					return 0, missingNode(e.To, nd, bound)
				}
				continue
			}
			if s.mark[u] != markDone {
				s.relax(u, nd)
			}
		}
	}
	if dstL := t.local(dst); dstL >= 0 && s.mark[dstL] == markDone {
		return s.dist[dstL], nil
	}
	return sp.Unreachable, nil
}

func missingNode(v graph.NodeID, d, bound float64) error {
	return fmt.Errorf("%w: node %d required by Dijkstra re-run is missing (dist %g ≤ bound %g)",
		ErrIncompleteProof, v, d, bound)
}

// tupleAStar runs A* from src to dst over the table's tuples, with the
// lower bound lb(u) of dist(u, dst) for local node u (Lemma 4's compressed
// landmark bound). Closed nodes are re-opened on improvement, so plain
// admissibility of lb suffices for optimality. Per Lemma 2, every node the
// search expands with f ≤ bound must have a tuple, and so must every
// neighbor of an expanded node (their lower bounds are needed to order
// the frontier); violations return ErrIncompleteProof. lb errors (missing
// landmark payloads) are treated the same way.
func tupleAStar(s *searchState, t *tupleTable, src, dst graph.NodeID,
	lb func(u int32) (float64, error), bound float64) (float64, error) {

	s.reset(len(t.tuples))
	srcL, dstL := t.local(src), t.local(dst)
	if srcL < 0 || dstL < 0 {
		return 0, fmt.Errorf("%w: no tuple for query endpoint %d or %d", ErrIncompleteProof, src, dst)
	}
	lbSrc, err := lb(srcL)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
	}
	g := s.dist
	g[srcL] = 0
	s.mark[srcL] = markSeen
	s.heap.Push(graph.NodeID(srcL), lbSrc)

	best := sp.Unreachable
	slack := bound * (1 + distTolerance)
	for s.heap.Len() > 0 {
		if best < sp.Unreachable && s.heap.Peek() >= best {
			break
		}
		vn, f := s.heap.Pop()
		v := int32(vn)
		if f > slack {
			// Nodes beyond the claimed distance can only certify longer
			// paths; the claim check below handles rejection.
			break
		}
		if v == dstL {
			best = g[v]
			continue
		}
		adj, nbr := t.adj(v)
		for k, e := range adj {
			nd := g[v] + e.W
			u := nbr[k]
			if u >= 0 && s.mark[u] != 0 && nd >= g[u] {
				continue
			}
			if u < 0 {
				return 0, fmt.Errorf("%w: neighbor %d of expanded node %d is missing",
					ErrIncompleteProof, e.To, t.tuples[v].ID)
			}
			lbN, err := lb(u)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
			}
			g[u] = nd
			s.mark[u] = markSeen
			fN := nd + lbN
			if s.heap.Contains(graph.NodeID(u)) {
				s.heap.DecreaseKey(graph.NodeID(u), fN)
			} else {
				s.heap.Push(graph.NodeID(u), fN) // re-opens closed nodes as needed
			}
		}
	}
	if best == sp.Unreachable && s.mark[dstL] != 0 {
		// dst was reached but never popped within the bound: its g is an
		// upper bound that the claim check will compare.
		return g[dstL], nil
	}
	return best, nil
}

// cellDijkstra runs the HYP client's intra-cell search (§V-B): Dijkstra
// from vs restricted to edges between tuples of the same cell, using the
// authenticated cell/border annotations in meta (indexed by local node).
// A missing tuple for vs is ErrIncompleteProof. Expanding a *non-border* node requires all its
// neighbors' tuples (an authentic non-border node has all neighbors
// in-cell, so absence means the provider pruned the cell); expanding a
// border node silently skips absent neighbors (they live in other cells).
// On return s.settled lists every settled same-cell node and s.dist holds
// their distances.
func cellDijkstra(s *searchState, t *tupleTable, meta []hypMeta, vs graph.NodeID) error {
	s.reset(len(t.tuples))
	src := t.local(vs)
	if src < 0 {
		return fmt.Errorf("%w: no tuple for query endpoint %d", ErrIncompleteProof, vs)
	}
	cell := meta[src].cell
	s.relax(src, 0)
	for s.heap.Len() > 0 {
		vn, d := s.heap.Pop()
		v := int32(vn)
		s.mark[v] = markDone
		s.settled = append(s.settled, v)
		adj, nbr := t.adj(v)
		for k, e := range adj {
			u := nbr[k]
			if u < 0 {
				if !meta[v].isBorder {
					return fmt.Errorf("%w: non-border node %d has missing neighbor %d (cell pruned)",
						ErrIncompleteProof, t.tuples[v].ID, e.To)
				}
				continue // border nodes legitimately touch other cells
			}
			if s.mark[u] == markDone || meta[u].cell != cell {
				continue // settled, or a cross-cell edge covered by hyper-edges
			}
			s.relax(u, d+e.W)
		}
	}
	return nil
}
