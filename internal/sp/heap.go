// Package sp implements the shortest path algorithms the paper builds on
// (§II-C): Dijkstra's algorithm, A* search with pluggable lower bounds,
// bidirectional Dijkstra, Floyd–Warshall, and repeated-Dijkstra all-pairs
// computation. All algorithms require non-negative edge weights, which the
// graph substrate enforces.
package sp

import "github.com/authhints/spv/internal/graph"

// Heap is an indexed binary min-heap of nodes keyed by float64 priorities.
// It supports decrease-key in O(log n) via a position index, which keeps
// Dijkstra at the textbook O((V+E) log V). Nodes are dense non-negative
// indices and the position index is a slice over them, so its memory is
// bounded by the largest node pushed: graph node IDs for the graph-side
// searches here, and a proof's local tuple indices (bounded by its record
// count, never by the attacker-chosen node IDs) for the client-side tuple
// searches in the core package.
type Heap struct {
	items []heapItem
	pos   []int32 // pos[v] = index of v in items + 1; 0 = not queued
}

type heapItem struct {
	node graph.NodeID
	key  float64
}

func NewHeap(capacity int) *Heap {
	return &Heap{items: make([]heapItem, 0, capacity)}
}

func (h *Heap) Len() int { return len(h.items) }

// Push inserts node (≥ 0) with the given key. The node must not be present.
func (h *Heap) Push(node graph.NodeID, key float64) {
	if int(node) >= len(h.pos) {
		h.pos = append(h.pos, make([]int32, int(node)+1-len(h.pos))...)
	}
	h.items = append(h.items, heapItem{node, key})
	i := len(h.items) - 1
	h.pos[node] = int32(i) + 1
	h.up(i)
}

// Pop removes and returns the minimum-key node.
func (h *Heap) Pop() (graph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top.node] = 0
	if last > 0 {
		h.down(0)
	}
	return top.node, top.key
}

// Peek returns the minimum key without removing it. Valid only when
// Len() > 0.
func (h *Heap) Peek() float64 { return h.items[0].key }

// DecreaseKey lowers the key of an existing node. It is a no-op if the new
// key is not smaller.
func (h *Heap) DecreaseKey(node graph.NodeID, key float64) {
	if !h.Contains(node) {
		return
	}
	i := int(h.pos[node]) - 1
	if h.items[i].key <= key {
		return
	}
	h.items[i].key = key
	h.up(i)
}

// Contains reports whether node is currently queued.
func (h *Heap) Contains(node graph.NodeID) bool {
	return node >= 0 && int(node) < len(h.pos) && h.pos[node] != 0
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= h.items[i].key {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].key < h.items[small].key {
			small = l
		}
		if r < n && h.items[r].key < h.items[small].key {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = int32(i) + 1
	h.pos[h.items[j].node] = int32(j) + 1
}

// Reset empties the heap for reuse, keeping its storage. Clearing costs
// O(queued), so searches that stop early never pay for the whole index.
func (h *Heap) Reset() {
	for _, it := range h.items {
		h.pos[it.node] = 0
	}
	h.items = h.items[:0]
}
