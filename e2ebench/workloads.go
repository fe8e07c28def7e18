package main

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	spv "github.com/authhints/spv"
)

// world names one synthesized road network. The server regenerates it
// from the same flags; the benchmark regenerates it to draw inputs.
type world struct {
	Name  string
	Scale float64 // DE dataset scale; the synthesis seed is spvserve's default, 1
}

var (
	standardWorld = world{Name: "DE0.05", Scale: 0.05} // 1,443 nodes
	largeWorld    = world{Name: "DE0.5", Scale: 0.5}   // 14,434 nodes
)

func (w world) graph() (*spv.Graph, error) { return spv.BuildNetwork("DE", w.Scale, 0, 0, 1) }

// serverArgs is the world-selecting part of an owner daemon's command line.
func (w world) serverArgs() []string {
	return []string{"-dataset", "DE", "-scale", fmt.Sprint(w.Scale)}
}

// methodShare weights one method in the request mix.
type methodShare struct {
	M spv.Method
	W int
}

// mix is DIJ=1,LDM=2,HYP=1 on every workload, as in `make load`.
var mix = []methodShare{{spv.DIJ, 1}, {spv.LDM, 2}, {spv.HYP, 1}}

var methods = []spv.Method{spv.DIJ, spv.LDM, spv.HYP}

// queryRange is the target network distance of every query pair.
const queryRange = 4000

// spec is one workload: the world, the server's role, the read traffic and
// the owner stream. See README.md for why each exists.
type spec struct {
	Name      string
	World     world
	Replica   bool    // boot a key-less replica from the cached snapshot
	Rate      float64 // nominal open-loop arrivals per second
	BatchFrac float64 // share of arrivals sent as /batch
	BatchSize int
	PoolDraws int     // pair draws before de-duplication
	MinPairs  int     // fewer distinct pairs than this is a preparation error
	Zipf      float64 // rank skew over the pool; 0 draws uniformly
	// RoundPools gives every round its own pool and update sample, so a
	// run's medians average over several seeded inputs instead of hanging
	// on which few pairs and edges one small sample happened to hold.
	RoundPools bool

	UpdEvery   time.Duration // open-loop owner updates at this period
	Churn      bool          // closed-loop owner updates, back to back
	UpdEdges   int           // edges per update batch
	UpdBatches int           // distinct perturb batches (each also restored)
	SaveEvery  time.Duration // POST /snapshot period (0: one save mid-window)

	// HitCeiling is the cache-bypass guard: a run whose proof-cache hit
	// rate exceeds it is invalid (0: no guard).
	HitCeiling float64
	// CheckTruth requires verified distances to equal the pool's ground
	// truth and repeated keys to return byte-identical proofs; only valid
	// when no update changes the network.
	CheckTruth bool
}

func (s spec) owner() bool { return s.UpdEvery > 0 || s.Churn }

var specs = []spec{
	{
		Name: "mixed-hot", World: standardWorld, Rate: 200, BatchFrac: 0.1, BatchSize: 8,
		PoolDraws: 64, MinPairs: 48, Zipf: 1.2, RoundPools: true,
		UpdEvery: 500 * time.Millisecond, UpdEdges: 2, UpdBatches: 32,
	},
	{
		Name: "cold-replica", World: largeWorld, Replica: true, Rate: 150, BatchFrac: 0.1, BatchSize: 8,
		// 17,500 draws over 14,434 sources leave ≥10k distinct pairs.
		PoolDraws: 17500, MinPairs: 10000,
		HitCeiling: 0.15, CheckTruth: true,
	},
	{
		Name: "owner-churn", World: standardWorld, Rate: 200, BatchFrac: 0.1, BatchSize: 8,
		PoolDraws: 256, MinPairs: 200, Zipf: 1.2, RoundPools: true,
		Churn: true, UpdEdges: 1, UpdBatches: 64, SaveEvery: 2 * time.Second,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// pair is one pool entry with its ground-truth distance.
type pair struct {
	S, T spv.NodeID
	Dist float64
}

// inputs is everything one round draws from, generated from the seed and
// the round and cached on disk keyed by (world, workload, seed, round).
type inputs struct {
	Pairs   []pair
	Updates [][]spv.EdgeUpdate // perturb batches, then their restores
}

// loadInputs returns the workload's inputs for (seed, round), generating
// and caching them on first use.
func loadInputs(dir string, s spec, g *spv.Graph, seed int64, round int) (*inputs, error) {
	path := filepath.Join(dir, fmt.Sprintf("inputs-%s-%s-%d-r%d.gob", s.World.Name, s.Name, seed, round))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var in inputs
		if err := gob.NewDecoder(f).Decode(&in); err == nil {
			return &in, nil
		}
	}
	in, err := makeInputs(s, g, seed*rounds+int64(round))
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(f).Encode(in); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return in, os.Rename(tmp, path)
}

func makeInputs(s spec, g *spv.Graph, seed int64) (*inputs, error) {
	// Two generators halve the wait on the large world; each is seeded
	// from the workload seed, so the pool is a function of the seed.
	half := (s.PoolDraws + 1) / 2
	var parts [2][]spv.Query
	errs := make(chan error, 2)
	for k := range parts {
		go func(k int) {
			var err error
			parts[k], err = spv.GenerateWorkload(g, half, queryRange, seed*2+int64(k))
			errs <- err
		}(k)
	}
	for range parts {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("generate pairs: %w", err)
		}
	}
	in := &inputs{}
	seen := make(map[[2]spv.NodeID]bool)
	for _, q := range append(parts[0], parts[1]...) {
		k := [2]spv.NodeID{q.S, q.T}
		if seen[k] {
			continue
		}
		seen[k] = true
		in.Pairs = append(in.Pairs, pair{S: q.S, T: q.T, Dist: q.Dist})
	}
	if len(in.Pairs) < s.MinPairs {
		return nil, fmt.Errorf("%s: only %d distinct pairs from %d draws (want ≥%d)",
			s.Name, len(in.Pairs), s.PoolDraws, s.MinPairs)
	}
	if s.owner() {
		ups, err := perturbBatches(g, s.UpdBatches, s.UpdEdges, seed)
		if err != nil {
			return nil, err
		}
		in.Updates = ups
	}
	return in, nil
}

// perturbBatches samples count×per distinct edges and lays out count
// batches raising each weight by 5% followed by count batches restoring
// them, so cycling the list never drifts the network.
func perturbBatches(g *spv.Graph, count, per int, seed int64) ([][]spv.EdgeUpdate, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := make(map[[2]spv.NodeID]bool)
	var edges []spv.EdgeUpdate
	for tries := 0; len(edges) < count*per; tries++ {
		if tries > 100*count*per {
			return nil, fmt.Errorf("could not sample %d distinct edges", count*per)
		}
		u := spv.NodeID(rng.Intn(g.NumNodes()))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		e := adj[rng.Intn(len(adj))]
		k := [2]spv.NodeID{min(u, e.To), max(u, e.To)}
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, spv.EdgeUpdate{U: u, V: e.To, W: e.W})
	}
	out := make([][]spv.EdgeUpdate, 2*count)
	for i := 0; i < count; i++ {
		for _, e := range edges[i*per : (i+1)*per] {
			out[i] = append(out[i], spv.EdgeUpdate{U: e.U, V: e.V, W: e.W * 1.05})
			out[count+i] = append(out[count+i], e)
		}
	}
	return out, nil
}

// request is one read arrival: a single /query, or a /batch when it holds
// more than one query.
type request []spv.ServeQuery

func (r request) batch() bool { return len(r) > 1 }

// drawer turns the seed into a deterministic request sequence.
type drawer struct {
	s     spec
	pairs []pair
	rng   *rand.Rand
	zipf  *rand.Zipf
	total int
}

func newDrawer(s spec, in *inputs, seed int64) *drawer {
	d := &drawer{s: s, pairs: in.Pairs, rng: rand.New(rand.NewSource(seed))}
	if s.Zipf > 0 {
		d.zipf = rand.NewZipf(d.rng, s.Zipf, 1, uint64(len(in.Pairs)-1))
	}
	for _, m := range mix {
		d.total += m.W
	}
	return d
}

func (d *drawer) query() spv.ServeQuery {
	var p pair
	if d.zipf != nil {
		p = d.pairs[d.zipf.Uint64()]
	} else {
		p = d.pairs[d.rng.Intn(len(d.pairs))]
	}
	k := d.rng.Intn(d.total)
	for _, m := range mix {
		if k < m.W {
			return spv.ServeQuery{Method: m.M, VS: p.S, VT: p.T}
		}
		k -= m.W
	}
	panic("unreachable: mix weights exhausted")
}

func (d *drawer) requests(n int) []request {
	out := make([]request, n)
	for i := range out {
		size := 1
		if d.rng.Float64() < d.s.BatchFrac {
			size = d.s.BatchSize
		}
		out[i] = make(request, size)
		for j := range out[i] {
			out[i][j] = d.query()
		}
	}
	return out
}

// distinctKeys counts the distinct (method, vs, vt) keys offered.
func distinctKeys(reqs []request) int {
	seen := make(map[spv.ServeQuery]bool)
	for _, r := range reqs {
		for _, q := range r {
			seen[q] = true
		}
	}
	return len(seen)
}
