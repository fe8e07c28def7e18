package core

import (
	"testing"

	"github.com/authhints/spv/internal/workload"
)

// Steady-state allocation budgets for the cold query path. The measured
// numbers (PR 2) are ~15 allocs/op for DIJ and ~17 for LDM on the bench
// world; the budgets leave headroom for pool churn (sync.Pool drops entries
// across GCs) while still catching any regression back toward the ~110
// allocs/op the pre-workspace implementation paid.
const (
	dijAllocBudget = 60
	ldmAllocBudget = 60
)

// fullColdAllocBudget pins the cold FULL proof build (PR 7): with the
// forest row scratch pooled the measured cost is ~32 allocs/op, down from
// the ~4,500/op the per-query row regeneration used to pay. The budget
// leaves pool-churn headroom while staying an order of magnitude under the
// old cost.
const fullColdAllocBudget = 400

// TestQueryAllocBudget pins the provider hot path to a small constant
// allocation budget: after warm-up, a DIJ/LDM query must not allocate
// per-|V| scratch (workspaces, heaps, include sets are pooled; only the
// proof itself is built fresh).
func TestQueryAllocBudget(t *testing.T) {
	w := world(t)
	q := w.queries[0]

	warm := func(query func() error) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := query(); err != nil {
				t.Fatal(err)
			}
		}
	}

	dij := func() error { _, err := w.dij.Query(q.S, q.T); return err }
	warm(dij)
	if got := testing.AllocsPerRun(20, func() { dij() }); got > dijAllocBudget {
		t.Errorf("DIJ query allocates %.0f/op, budget %d", got, dijAllocBudget)
	}

	ldm := func() error { _, err := w.ldm.Query(q.S, q.T); return err }
	warm(ldm)
	if got := testing.AllocsPerRun(20, func() { ldm() }); got > ldmAllocBudget {
		t.Errorf("LDM query allocates %.0f/op, budget %d", got, ldmAllocBudget)
	}
}

// TestFULLColdQueryAllocBudget pins the cold FULL proof build — the path
// every cache miss pays. There is no warm variant: FULL proofs are built
// from scratch per query, so this *is* the steady state once the scratch
// pools are populated.
func TestFULLColdQueryAllocBudget(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	for i := 0; i < 3; i++ {
		if _, err := w.full.Query(q.S, q.T); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { w.full.Query(q.S, q.T) }); got > fullColdAllocBudget {
		t.Errorf("cold FULL query allocates %.0f/op, budget %d", got, fullColdAllocBudget)
	}
}

// batchItemsCycled builds an n-proof single-root response by cycling the
// workload pool — the shape of real /batch traffic, where queries repeat —
// and round-trips it through the shared batch wire, so the items are
// exactly what a client decodes (repeated answers share one proof pointer).
func batchItemsCycled(t *testing.T, w *testWorld, m Method, n int) []BatchItem {
	t.Helper()
	p := testProvider(t, w, m)
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		q := w.queries[i%len(w.queries)]
		pr, err := p.QueryProof(q.S, q.T)
		if err != nil {
			t.Fatalf("%s query (%d→%d): %v", m, q.S, q.T, err)
		}
		items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: pr})
	}
	wire, err := AppendProofBatch(nil, m, items)
	if err != nil {
		t.Fatalf("%s batch encode: %v", m, err)
	}
	pb, _, err := DecodeProofBatch(wire)
	if err != nil {
		t.Fatalf("%s batch decode: %v", m, err)
	}
	return pb.Items()
}

// TestVerifyBatchAllocBudget is the allocation half of the batch-verify
// acceptance gate: one VerifyBatch over a 64-proof single-root response
// must allocate at least 5× less than 64 individual VerifyProof calls, for
// every registered method. (The latency half lives in the benchjson verify
// lanes.)
func TestVerifyBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 64 proofs per method")
	}
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		items := batchItemsCycled(t, w, m, 64)
		for i, err := range VerifyBatch(v, m, items) {
			if err != nil {
				t.Fatalf("%s item %d: %v", m, i, err)
			}
		}
		single := testing.AllocsPerRun(3, func() {
			for _, it := range items {
				if err := VerifyProof(v, m, it.VS, it.VT, it.Proof); err != nil {
					t.Fatalf("%s single verify: %v", m, err)
				}
			}
		})
		batch := testing.AllocsPerRun(3, func() {
			for _, err := range VerifyBatch(v, m, items) {
				if err != nil {
					t.Fatalf("%s batch verify: %v", m, err)
				}
			}
		})
		t.Logf("%s: 64 singles %.0f allocs, batch %.0f allocs (%.1f×)", m, single, batch, single/batch)
		if batch*5 > single {
			t.Errorf("%s: batch of 64 allocates %.0f, singles allocate %.0f — want ≥5× reduction", m, batch, single)
		}
	}
}

// Single-proof verification allocation ceilings. The flat verification
// kernel decodes into pooled arenas, so a steady-state verify allocates a
// small constant — the signature check, the error-free return path and,
// for FULL, the distance forest's row reconstruction — independent of
// the proof's tuple count. Measured on the test world's largest proof per
// method: DIJ 9 (91 tuples), LDM 11 (26), HYP 20 (150), FULL 46 (20)
// allocs/op, where the map-based verifiers paid 655, 313, 1052 and 286.
// The ceilings leave pool-churn headroom.
var verifyAllocBudget = map[Method]float64{DIJ: 40, LDM: 40, HYP: 60, FULL: 90}

// TestVerifyAllocBudget pins each method's single-proof VerifyProof to its
// allocation ceiling, so a regression back toward per-tuple allocation
// fails here.
func TestVerifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled verify scratch at random")
	}
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		// The workload query with the most tuples in this method's proof.
		var q workload.Query
		var pr Proof
		for _, cand := range w.queries {
			p, err := testProvider(t, w, m).QueryProof(cand.S, cand.T)
			if err != nil {
				t.Fatal(err)
			}
			if pr == nil || p.Stats().SItems > pr.Stats().SItems {
				q, pr = cand, p
			}
		}
		verify := func() {
			if err := VerifyProof(v, m, q.S, q.T, pr); err != nil {
				t.Fatalf("%s verify: %v", m, err)
			}
		}
		verify()
		got := testing.AllocsPerRun(20, verify)
		t.Logf("%s: %.0f allocs per verify (%d tuples)", m, got, pr.Stats().SItems)
		if budget, ok := verifyAllocBudget[m]; !ok || got > budget {
			t.Errorf("%s verify allocates %.0f/op, budget %.0f", m, got, budget)
		}
	}
}
