// Package hiti implements the 2-level HiTi hyper-graph of the HYP method
// (paper §V-B, after [28]): a Euclidean grid partition of the nodes into p
// cells, border-node detection, and materialized hyper-edge weights
// W*(u, v) = dist(u, v) between *all* pairs of border nodes (the paper's
// footnote 1 departs from [28] exactly here: hyper-edges exist for any pair
// of border nodes, not just borders of the same cell).
//
// The per-node cell identifier and border flag become part of the
// authenticated extended-tuple Φ(v) (Eq. 7); the hyper-edge weights go into
// a distance Merkle B-tree. Theorem 2 (border passage) makes the coarse
// source-cell/target-cell subgraph plus these hyper-edges sufficient to
// reproduce exact shortest path distances.
package hiti

import (
	"encoding/binary"
	"fmt"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// Hyper is the owner-computed HiTi structure for a graph.
type Hyper struct {
	Grid     *geom.Grid
	CellOf   []geom.CellID  // cell identifier per node
	IsBorder []bool         // border flag per node
	Borders  []graph.NodeID // all border nodes, ascending

	borderIdx map[graph.NodeID]int // node → row in W
	// Static builds hold W* border-indexed: wb[i][j] = dist(Borders[i],
	// Borders[j]), O(B²) memory. The first incremental update upgrades to
	// full rows w[i][x] (indexed by node, O(B·|V|) memory, wb dropped):
	// full rows are what make bridge-edge re-weightings resummable with
	// O(|V|) additions along retained shortest-path prefixes instead of B
	// fresh searches — a cost only update-serving deployments pay.
	wb        [][]float64
	w         [][]float64
	cellNodes map[geom.CellID][]graph.NodeID
	// cellBorders caches each cell's border nodes (ascending) so the query
	// hot path never re-scans cell membership.
	cellBorders map[geom.CellID][]graph.NodeID
	// cellGroups holds the border indices of each cell that has borders,
	// cells ascending and node ids ascending within a cell: the (cell,
	// node) order that lets Entries emit canonical keys already sorted.
	cellGroups [][]int
}

// Build partitions g into approximately p grid cells and materializes all
// border-pair distances (one bounded Dijkstra per border node; parallelized).
func Build(g *graph.Graph, p int) (*Hyper, error) {
	h, err := partition(g, p)
	if err != nil {
		return nil, err
	}
	// Materialize W* border-indexed: one Dijkstra per border node, all
	// borders as targets, early-terminating once they settle. Workers
	// search the frozen CSR view with a pooled workspace each.
	view := g.Freeze()
	h.wb = make([][]float64, len(h.Borders))
	par.Work(len(h.Borders), func(i int) {
		ws := sp.AcquireWorkspace(view.NumNodes())
		defer sp.ReleaseWorkspace(ws)
		h.wb[i] = ws.DijkstraToTargets(view, h.Borders[i], h.Borders, nil)
	})
	return h, nil
}

// partition derives everything that depends only on coordinates and
// adjacency — the grid, cell membership, border flags and border order.
// It is deterministic in g and p, which is what lets snapshot loading
// (Rehydrate) rebuild it instead of persisting it.
func partition(g *graph.Graph, p int) (*Hyper, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("hiti: empty graph")
	}
	if g.NumNodes() >= MaxNodes {
		return nil, fmt.Errorf("hiti: %d nodes exceed key capacity %d", g.NumNodes(), MaxNodes)
	}
	minX, minY, maxX, maxY := g.Bounds()
	grid, err := geom.NewGrid(minX, minY, maxX, maxY, p)
	if err != nil {
		return nil, err
	}
	if grid.NumCells() > MaxCells {
		return nil, fmt.Errorf("hiti: %d cells exceed key capacity %d", grid.NumCells(), MaxCells)
	}
	n := g.NumNodes()
	h := &Hyper{
		Grid:      grid,
		CellOf:    make([]geom.CellID, n),
		IsBorder:  make([]bool, n),
		borderIdx: make(map[graph.NodeID]int),
		cellNodes: make(map[geom.CellID][]graph.NodeID),
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		c := grid.Cell(g.X(id), g.Y(id))
		h.CellOf[v] = c
		h.cellNodes[c] = append(h.cellNodes[c], id)
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Neighbors(graph.NodeID(v)) {
			if h.CellOf[e.To] != h.CellOf[v] {
				h.IsBorder[v] = true
				break
			}
		}
		if h.IsBorder[v] {
			h.Borders = append(h.Borders, graph.NodeID(v))
		}
	}
	h.cellBorders = make(map[geom.CellID][]graph.NodeID)
	// Bucketing the ascending border list by cell sorts it by (cell, node)
	// in one pass.
	byCell := make([][]int, grid.NumCells())
	for i, b := range h.Borders {
		h.borderIdx[b] = i
		c := h.CellOf[b]
		h.cellBorders[c] = append(h.cellBorders[c], b)
		byCell[c] = append(byCell[c], i)
	}
	for _, grp := range byCell {
		if len(grp) > 0 {
			h.cellGroups = append(h.cellGroups, grp)
		}
	}
	return h, nil
}

// Rows exposes the materialized W* rows and their storage form for
// snapshot serialization: full reports whether rows are full distance rows
// (w, indexed by node) or the static border-indexed form (wb). The rows
// are the Hyper's own storage — read-only for callers. Pair with
// Rehydrate.
func (h *Hyper) Rows() (full bool, rows [][]float64) {
	if h.w != nil {
		return true, h.w
	}
	return false, h.wb
}

// Rehydrate reconstructs a Hyper over g from previously materialized rows
// without running a single search: the partition (grid, cells, borders) is
// recomputed — it is cheap and deterministic in g and p — and the given
// rows are installed under the storage form they were exported with. Row
// dimensions are validated against the recomputed border set, so a
// snapshot from a different graph or cell count fails loudly here rather
// than as a root mismatch downstream. The rows slice is retained.
func Rehydrate(g *graph.Graph, p int, full bool, rows [][]float64) (*Hyper, error) {
	h, err := partition(g, p)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(h.Borders) {
		return nil, fmt.Errorf("hiti: %d rows for %d borders", len(rows), len(h.Borders))
	}
	want := len(h.Borders)
	if full {
		want = g.NumNodes()
	}
	for i, row := range rows {
		if len(row) != want {
			return nil, fmt.Errorf("hiti: row %d has %d values, want %d", i, len(row), want)
		}
	}
	if full {
		h.w = rows
	} else {
		h.wb = rows
	}
	return h, nil
}

// at returns W*(Borders[i], Borders[j]) read from row i, under either
// storage form.
func (h *Hyper) at(i, j int) float64 {
	if h.w != nil {
		return h.w[i][h.Borders[j]]
	}
	return h.wb[i][j]
}

// pairValue is the hyper-edge value of the border pair (i, j): always read
// from the lower-indexed border's row. W* comes from independent Dijkstra
// runs per row and is not guaranteed bitwise symmetric, so the row choice
// is part of the committed leaf bytes.
func (h *Hyper) pairValue(i, j int) float64 {
	if j < i {
		i, j = j, i
	}
	return h.at(i, j)
}

// HasFullRows reports whether full distance rows have been materialized
// (the update pipeline's storage form).
func (h *Hyper) HasFullRows() bool { return h.w != nil }

// WithFullRows returns a Hyper carrying full distance rows computed over
// view, dropping the border-indexed form. The update pipeline upgrades a
// static Hyper with this exactly once (cost: one row rebuild), after which
// updates patch incrementally. DijkstraRow settles the border targets with
// the same relaxations DijkstraToTargets performs before its early stop,
// so border values are bitwise unchanged by the upgrade.
func (h *Hyper) WithFullRows(view graph.View) *Hyper {
	nh := *h
	nh.wb = nil
	nh.w = make([][]float64, len(h.Borders))
	nh.materializeRows(view, nil)
	return &nh
}

// materializeRows (re)computes full border rows over view: all of them
// when rows is nil, else exactly the given border indices. Rows are
// independent Dijkstra runs, so recomputation is bitwise identical to a
// fresh build for any row whose distances are unchanged. Full-rows form
// only.
func (h *Hyper) materializeRows(view graph.View, rows []int) {
	n := len(rows)
	if rows == nil {
		n = len(h.Borders)
	}
	par.Work(n, func(k int) {
		i := k
		if rows != nil {
			i = rows[k]
		}
		ws := sp.AcquireWorkspace(view.NumNodes())
		defer sp.ReleaseWorkspace(ws)
		h.w[i] = ws.DijkstraRow(view, h.Borders[i], nil)
	})
}

// WithPatchedRows returns a Hyper sharing the partition and border sets
// with the receiver, with every row deep-copied and handed to patch for
// in-place mutation (the update pipeline's bridge resummation). The
// receiver stays valid for concurrent readers. Full-rows form only.
func (h *Hyper) WithPatchedRows(patch func(src graph.NodeID, row []float64)) *Hyper {
	nh := *h
	nh.w = make([][]float64, len(h.w))
	for i, row := range h.w {
		nr := append([]float64(nil), row...)
		patch(h.Borders[i], nr)
		nh.w[i] = nr
	}
	return &nh
}

// WithUpdatedRows returns a Hyper sharing the partition, border sets and
// every clean row with the receiver, with the given border rows re-run
// against view (the post-update network). The receiver stays valid for
// concurrent readers.
func (h *Hyper) WithUpdatedRows(view graph.View, rows []int) *Hyper {
	nh := *h
	nh.w = append([][]float64(nil), h.w...)
	nh.materializeRows(view, rows)
	return &nh
}

// CrossingEntries returns the canonical entries for border pairs that
// straddle the given node partition (inF[x] = x on the far side). Across a
// bridge only straddling pairs can change value, so the update pipeline
// diffs exactly these instead of all B² pairs.
func (h *Hyper) CrossingEntries(inF []bool) []mbt.Entry {
	var bf, bc []int
	for i, bn := range h.Borders {
		if inF[bn] {
			bf = append(bf, i)
		} else {
			bc = append(bc, i)
		}
	}
	out := make([]mbt.Entry, 0, len(bf)*len(bc))
	for _, i := range bf {
		for _, j := range bc {
			u, v := h.Borders[i], h.Borders[j]
			out = append(out, mbt.Entry{
				Key:   HyperKey(u, v, h.CellOf[u], h.CellOf[v]),
				Value: h.pairValue(i, j),
			})
		}
	}
	return out
}

// RowEntries returns the canonical hyper-edge entries whose values derive
// from border row i — the (i, j ≥ i) triangle Entries materializes. Patch
// paths recompute exactly these after re-running row i.
func (h *Hyper) RowEntries(i int) []mbt.Entry {
	b := len(h.Borders)
	out := make([]mbt.Entry, 0, b-i)
	u := h.Borders[i]
	for j := i; j < b; j++ {
		v := h.Borders[j]
		out = append(out, mbt.Entry{
			Key:   HyperKey(u, v, h.CellOf[u], h.CellOf[v]),
			Value: h.at(i, j),
		})
	}
	return out
}

// BorderIndex returns border b's row index in W*, or -1 for non-borders.
func (h *Hyper) BorderIndex(b graph.NodeID) int {
	if i, ok := h.borderIdx[b]; ok {
		return i
	}
	return -1
}

// NumBorders returns the number of border nodes.
func (h *Hyper) NumBorders() int { return len(h.Borders) }

// BordersOf returns the border nodes of a cell, ascending. The slice is
// owned by the Hyper and must not be modified.
func (h *Hyper) BordersOf(c geom.CellID) []graph.NodeID {
	return h.cellBorders[c]
}

// NodesOf returns all nodes of a cell, ascending (cell lists are built by
// one ascending node sweep, so they are sorted by construction). The slice
// is owned by the Hyper and must not be modified.
func (h *Hyper) NodesOf(c geom.CellID) []graph.NodeID {
	return h.cellNodes[c]
}

// HyperEdge returns W*(u, v) for two border nodes, or false if either is not
// a border node.
func (h *Hyper) HyperEdge(u, v graph.NodeID) (float64, bool) {
	i, ok := h.borderIdx[u]
	if !ok {
		return 0, false
	}
	j, ok := h.borderIdx[v]
	if !ok {
		return 0, false
	}
	return h.at(i, j), true
}

// Hyper-edge key layout: the distance Merkle B-tree is keyed cell-pair
// first, border-pair second —
//
//	cell_a (10 bits) | cell_b (10 bits) | node_a (22 bits) | node_b (22 bits)
//
// with (cell_a, node_a) ≤ (cell_b, node_b) canonically. Every hyper-edge a
// query needs lies between the borders of exactly two cells, so this layout
// makes them contiguous B-tree leaves and the multi-key verification object
// collapses to a near-single path of sibling digests. This is a provider-
// side layout choice the client never has to trust: keys are reconstructed
// from authenticated cell annotations and bound by the root signature.
const (
	cellBits = 10
	nodeBits = 22
	// MaxCells and MaxNodes bound what the key layout can address.
	MaxCells = 1 << cellBits
	MaxNodes = 1 << nodeBits
)

// HyperKey is the canonical MBT key for the border pair (u, v) living in
// cells (cu, cv).
func HyperKey(u, v graph.NodeID, cu, cv geom.CellID) mbt.Key {
	if cv < cu || (cv == cu && v < u) {
		u, v = v, u
		cu, cv = cv, cu
	}
	return mbt.Key(uint64(cu)<<(cellBits+2*nodeBits) |
		uint64(cv)<<(2*nodeBits) |
		uint64(u)<<nodeBits |
		uint64(v))
}

// Entries materializes all hyper-edges as Merkle B-tree entries under
// canonical keys, including self-pairs (weight 0) so that border sets of
// size one still yield a provable key set. Entries come out in strictly
// ascending key order — leaf i of the distance tree is the i-th border
// pair in (cell_a, cell_b, node_a, node_b) order — by walking cell pairs
// cA ≤ cB, then u in cA, then v in cB (v ≥ u within one cell), so no
// consumer ever sorts them. Each value is read from the lower-indexed
// border's row, exactly as RowEntries derives it.
func (h *Hyper) Entries() []mbt.Entry {
	out := make([]mbt.Entry, 0, h.NumHyperEdges())
	for a, ga := range h.cellGroups {
		ca := h.CellOf[h.Borders[ga[0]]]
		for b, gb := range h.cellGroups[a:] {
			cb := h.CellOf[h.Borders[gb[0]]]
			for x, i := range ga {
				u := h.Borders[i]
				js := gb
				if b == 0 {
					js = gb[x:]
				}
				for _, j := range js {
					out = append(out, mbt.Entry{
						Key:   HyperKey(u, h.Borders[j], ca, cb),
						Value: h.pairValue(i, j),
					})
				}
			}
		}
	}
	return out
}

// NumHyperEdges returns the number of canonical hyper-edge entries.
func (h *Hyper) NumHyperEdges() int {
	b := len(h.Borders)
	return b * (b + 1) / 2
}

// --- Extended-tuple extras (Eq. 7) ---

// ExtraSize is the wire size of the HYP per-node tuple extra: a 4-byte cell
// identifier plus a 1-byte border flag.
const ExtraSize = 5

// Extra encodes the Eq. 7 additions (v.c, v.is_border) for node v.
func (h *Hyper) Extra(v graph.NodeID) []byte {
	buf := make([]byte, ExtraSize)
	binary.BigEndian.PutUint32(buf, uint32(h.CellOf[v]))
	if h.IsBorder[v] {
		buf[4] = 1
	}
	return buf
}

// DecodeExtra parses a tuple extra produced by Extra.
func DecodeExtra(buf []byte) (cell geom.CellID, isBorder bool, err error) {
	if len(buf) < ExtraSize {
		return 0, false, fmt.Errorf("hiti: tuple extra truncated (%d bytes)", len(buf))
	}
	flag := buf[4]
	if flag > 1 {
		return 0, false, fmt.Errorf("hiti: bad border flag %d", flag)
	}
	return geom.CellID(binary.BigEndian.Uint32(buf)), flag == 1, nil
}
