package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// tuplesOf extracts the full tuple map of a graph — the "perfect proof".
func tuplesOf(g *graph.Graph) map[graph.NodeID]graph.Tuple {
	out := make(map[graph.NodeID]graph.Tuple, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		out[graph.NodeID(v)] = g.TupleOf(graph.NodeID(v))
	}
	return out
}

// tableOf indexes a tuple map, in descending node order so local indices
// differ from node IDs, into the tuple table the searches run on.
func tableOf(t *testing.T, tuples map[graph.NodeID]graph.Tuple) *tupleTable {
	t.Helper()
	ids := make([]graph.NodeID, 0, len(tuples))
	for v := range tuples {
		ids = append(ids, v)
	}
	slices.SortFunc(ids, func(a, b graph.NodeID) int { return int(b - a) })
	tab := &tupleTable{}
	for _, v := range ids {
		tab.tuples = append(tab.tuples, tuples[v])
	}
	if err := tab.index(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// metaOf lays a per-node annotation map out by the table's local index.
func metaOf(tab *tupleTable, meta map[graph.NodeID]hypMeta) []hypMeta {
	out := make([]hypMeta, len(tab.tuples))
	for i, tu := range tab.tuples {
		out[i] = meta[tu.ID]
	}
	return out
}

// tupleDijkstraMap runs tupleDijkstra on a fresh table and search state.
func tupleDijkstraMap(t *testing.T, tuples map[graph.NodeID]graph.Tuple, src, dst graph.NodeID, bound float64) (float64, error) {
	return tupleDijkstra(&searchState{}, tableOf(t, tuples), src, dst, bound)
}

// tupleAStarMap runs tupleAStar with a node-keyed lower bound to dst.
func tupleAStarMap(t *testing.T, tuples map[graph.NodeID]graph.Tuple, src, dst graph.NodeID,
	lb func(u, v graph.NodeID) (float64, error), bound float64) (float64, error) {
	tab := tableOf(t, tuples)
	local := func(u int32) (float64, error) { return lb(tab.tuples[u].ID, dst) }
	return tupleAStar(&searchState{}, tab, src, dst, local, bound)
}

// cellDijkstraMap runs cellDijkstra from src and returns the settled
// same-cell nodes' distances by node.
func cellDijkstraMap(t *testing.T, tuples map[graph.NodeID]graph.Tuple, meta map[graph.NodeID]hypMeta, src graph.NodeID) (map[graph.NodeID]float64, error) {
	tab := tableOf(t, tuples)
	var s searchState
	if err := cellDijkstra(&s, tab, metaOf(tab, meta), src); err != nil {
		return nil, err
	}
	dist := map[graph.NodeID]float64{}
	for _, v := range s.settled {
		dist[tab.tuples[v].ID] = s.dist[v]
	}
	return dist, nil
}

// searchFixture builds a small random connected graph and a query pair.
func searchFixture(t *testing.T, seed int64) (*graph.Graph, graph.NodeID, graph.NodeID, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(60)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(u, v, 1+rng.Float64()*50)
	}
	for k := 0; k < n/2; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*50)
		}
	}
	vs := graph.NodeID(rng.Intn(n))
	vt := graph.NodeID(rng.Intn(n))
	for vt == vs {
		vt = graph.NodeID(rng.Intn(n))
	}
	d, _ := sp.DijkstraTo(g, vs, vt)
	return g, vs, vt, d
}

func TestTupleDijkstraMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		got, err := tupleDijkstraMap(t, tuplesOf(g), vs, vt, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: tupleDijkstra %v, oracle %v", seed, got, want)
		}
	}
}

func TestTupleDijkstraDetectsMissingRequiredNode(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 3)
	tuples := tuplesOf(g)
	// Remove a node strictly inside the bound (not the endpoints).
	tree, settled := sp.DijkstraBounded(g, vs, want)
	var victim graph.NodeID = graph.Invalid
	for _, v := range settled {
		if v != vs && v != vt && tree.Dist[v] < want*0.9 {
			victim = v
			break
		}
	}
	if victim == graph.Invalid {
		t.Skip("no interior node to drop")
	}
	delete(tuples, victim)
	_, err := tupleDijkstraMap(t, tuples, vs, vt, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("missing node not detected: %v", err)
	}
}

func TestTupleDijkstraUnreachableTarget(t *testing.T) {
	g := graph.New(3)
	g.AddNode(0, 0)
	g.AddNode(1, 0)
	g.AddNode(2, 0)
	g.MustAddEdge(0, 1, 1)
	got, err := tupleDijkstraMap(t, tuplesOf(g), 0, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != sp.Unreachable {
		t.Errorf("got %v, want Unreachable", got)
	}
}

func TestTupleAStarMatchesOracleWithZeroLB(t *testing.T) {
	zero := func(u, v graph.NodeID) (float64, error) { return 0, nil }
	for seed := int64(0); seed < 10; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		got, err := tupleAStarMap(t, tuplesOf(g), vs, vt, zero, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: tupleAStar %v, oracle %v", seed, got, want)
		}
	}
}

func TestTupleAStarWithInconsistentAdmissibleLB(t *testing.T) {
	// A randomly deflated true distance is admissible but inconsistent; the
	// re-opening A* must still land on the oracle optimum.
	for seed := int64(0); seed < 8; seed++ {
		g, vs, vt, want := searchFixture(t, seed)
		toT := sp.Dijkstra(g, vt)
		rng := rand.New(rand.NewSource(seed * 31))
		scale := make([]float64, g.NumNodes())
		for i := range scale {
			scale[i] = rng.Float64()
		}
		lb := func(u, _ graph.NodeID) (float64, error) {
			if toT.Dist[u] == sp.Unreachable {
				return 0, nil
			}
			return toT.Dist[u] * scale[u], nil
		}
		got, err := tupleAStarMap(t, tuplesOf(g), vs, vt, lb, want)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !distEqual(got, want) {
			t.Errorf("seed %d: %v, want %v", seed, got, want)
		}
	}
}

func TestTupleAStarPropagatesLBErrors(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 5)
	bad := errors.New("payload missing")
	lb := func(u, v graph.NodeID) (float64, error) { return 0, bad }
	_, err := tupleAStarMap(t, tuplesOf(g), vs, vt, lb, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("LB error not mapped to incomplete proof: %v", err)
	}
}

func TestTupleAStarMissingNeighborDetected(t *testing.T) {
	g, vs, vt, want := searchFixture(t, 7)
	tuples := tuplesOf(g)
	// Drop a neighbor of the source: A* must refuse on first expansion.
	nbr := g.Neighbors(vs)[0].To
	if nbr == vt {
		t.Skip("degenerate layout")
	}
	delete(tuples, nbr)
	zero := func(u, v graph.NodeID) (float64, error) { return 0, nil }
	_, err := tupleAStarMap(t, tuples, vs, vt, zero, want)
	if !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("missing neighbor not detected: %v", err)
	}
}

func TestCellDijkstraRequiresSourceTuple(t *testing.T) {
	g, vs, _, _ := searchFixture(t, 9)
	tuples := tuplesOf(g)
	delete(tuples, vs)
	meta := map[graph.NodeID]hypMeta{}
	// No tuple for the source: its lookup must fail cleanly.
	if _, err := cellDijkstraMap(t, tuples, meta, vs); !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("missing source tuple not detected: %v", err)
	}
}

func TestCellDijkstraHonorsCellBoundaries(t *testing.T) {
	// A 6-node line graph split into two "cells": the intra-cell search
	// from one end must settle exactly its own cell's nodes.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	tuples := tuplesOf(g)
	meta := map[graph.NodeID]hypMeta{}
	for i := 0; i < 6; i++ {
		cell := 0
		if i >= 3 {
			cell = 1
		}
		// Border nodes: 2 and 3 (the cut edge endpoints).
		meta[graph.NodeID(i)] = hypMeta{
			cell:     geomCell(cell),
			isBorder: i == 2 || i == 3,
		}
	}
	dist, err := cellDijkstraMap(t, tuples, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range dist {
		if v >= 3 {
			t.Errorf("node %d outside cell was settled", v)
		}
		if want := float64(v); d != want {
			t.Errorf("dist[%d] = %v, want %v", v, d, want)
		}
	}
	if len(dist) != 3 {
		t.Errorf("settled %d nodes, want 3", len(dist))
	}
}

func TestCellDijkstraDetectsPrunedNonBorderNeighbor(t *testing.T) {
	// Same line graph, but node 1 (non-border, in cell 0) is pruned: the
	// search from node 0 (non-border) must reject.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	tuples := tuplesOf(g)
	meta := map[graph.NodeID]hypMeta{}
	for i := 0; i < 6; i++ {
		cell := 0
		if i >= 3 {
			cell = 1
		}
		meta[graph.NodeID(i)] = hypMeta{cell: geomCell(cell), isBorder: i == 2 || i == 3}
	}
	delete(tuples, 1)
	delete(meta, 1)
	if _, err := cellDijkstraMap(t, tuples, meta, 0); !errors.Is(err, ErrIncompleteProof) {
		t.Errorf("pruned non-border neighbor not detected: %v", err)
	}
	// Pruning across the border (node 4, reached only via border 3) is
	// legal: border nodes skip absent neighbors.
	tuples2 := tuplesOf(g)
	meta2 := map[graph.NodeID]hypMeta{}
	for i := 0; i < 6; i++ {
		cell := 0
		if i >= 3 {
			cell = 1
		}
		meta2[graph.NodeID(i)] = hypMeta{cell: geomCell(cell), isBorder: i == 2 || i == 3}
	}
	delete(tuples2, 4)
	delete(meta2, 4)
	if _, err := cellDijkstraMap(t, tuples2, meta2, 0); err != nil {
		t.Errorf("legal cross-border absence rejected: %v", err)
	}
}

// geomCell adapts an int to the geom.CellID type used in hypMeta.
func geomCell(c int) geom.CellID { return geom.CellID(c) }
