package core

import (
	"errors"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// This file is the attack matrix (DESIGN.md §6, invariant 7): for every
// method, every tampering a malicious or compromised provider could attempt
// must be rejected by the client. Each attack manipulates a real proof, so
// rejections exercise the actual verification logic rather than decode
// errors.

// subOptimalPath returns a real path from s to t that is strictly longer
// than the shortest one, by deleting an edge of the shortest path and
// re-routing. Returns nil if the graph offers no alternative.
func subOptimalPath(g *graph.Graph, s, t graph.NodeID) (graph.Path, float64) {
	best, shortest := sp.DijkstraTo(g, s, t)
	if shortest == nil {
		return nil, 0
	}
	for i := 1; i < len(shortest); i++ {
		u, v := shortest[i-1], shortest[i]
		cut := g.Clone()
		cut.RemoveEdge(u, v)
		d, p := sp.DijkstraTo(cut, s, t)
		if p != nil && d > best*(1+1e-6) {
			// Confirm it is a real path in the ORIGINAL graph.
			if err := p.Validate(g, s, t); err == nil {
				return p, d
			}
		}
	}
	return nil, 0
}

// attackQuery picks a workload query for which a sub-optimal alternative
// path exists.
func attackQuery(t *testing.T, w *testWorld) (graph.NodeID, graph.NodeID, graph.Path, float64) {
	t.Helper()
	for _, q := range w.queries {
		if p, d := subOptimalPath(w.g, q.S, q.T); p != nil {
			return q.S, q.T, p, d
		}
	}
	t.Fatal("no query with a sub-optimal alternative found")
	return 0, 0, nil, 0
}

func wantRejected(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: tampered proof ACCEPTED", name)
		return
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("%s: rejection not wrapped in ErrRejected: %v", name, err)
	}
}

// --- DIJ attacks ---

func TestDIJAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	v := w.owner.Verifier()

	// The provider maliciously reports the longer path, with an honest
	// subgraph proof sized for the longer distance (the strongest version
	// of this attack: everything else is consistent).
	_, settled := sp.DijkstraBounded(w.g, vs, altDist*providerSlack)
	mhtProof, err := w.dij.ads.Prove(settled)
	if err != nil {
		t.Fatal(err)
	}
	proof := &DIJProof{
		Path:    alt,
		Dist:    altDist,
		Tuples:  w.dij.ads.Records(settled),
		MHT:     mhtProof,
		RootSig: w.dij.rootSig,
	}
	err = VerifyDIJ(v, vs, vt, proof)
	wantRejected(t, "DIJ sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestDIJAttackTamperedTuple(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate an edge weight inside a tuple (e.g. to justify a detour).
	tampered := append([]byte(nil), proof.Tuples[0].Bytes...)
	tampered[len(tampered)-1] ^= 0x01
	proof.Tuples[0].Bytes = tampered
	wantRejected(t, "DIJ tampered tuple", VerifyDIJ(w.owner.Verifier(), q.S, q.T, proof))
}

func TestDIJAttackDroppedTuple(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a tuple but keep its Merkle digest available: simulate by
	// removing the record and inserting its digest as a proof entry is not
	// even needed — removal alone must break either the root reconstruction
	// or the Dijkstra re-run.
	proof.Tuples = proof.Tuples[:len(proof.Tuples)-1]
	wantRejected(t, "DIJ dropped tuple", VerifyDIJ(w.owner.Verifier(), q.S, q.T, proof))
}

func TestDIJAttackFabricatedEdge(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a path using an edge that does not exist.
	proof.Path = graph.Path{q.S, q.T}
	wd, _ := sp.DijkstraTo(w.g, q.S, q.T)
	proof.Dist = wd
	wantRejected(t, "DIJ fabricated edge", VerifyDIJ(w.owner.Verifier(), q.S, q.T, proof))
}

func TestDIJAttackWrongEndpoints(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Serve a (valid) proof for a different target.
	other := w.queries[1]
	wantRejected(t, "DIJ wrong endpoints", VerifyDIJ(w.owner.Verifier(), other.S, other.T, proof))
}

func TestDIJAttackInflatedClaim(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	proof.Dist *= 1.01
	wantRejected(t, "DIJ inflated claim", VerifyDIJ(w.owner.Verifier(), q.S, q.T, proof))
}

// --- FULL attacks ---

func TestFULLAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	honest, err := w.full.Query(vs, vt)
	if err != nil {
		t.Fatal(err)
	}
	// Report the longer path; the authentic materialized distance gives the
	// lie away.
	mhtProof, err := w.full.ads.Prove(alt)
	if err != nil {
		t.Fatal(err)
	}
	proof := &FULLProof{
		Path:    alt,
		Dist:    altDist,
		DistVO:  honest.DistVO,
		Tuples:  w.full.ads.Records(alt),
		MHT:     mhtProof,
		NetSig:  honest.NetSig,
		DistSig: honest.DistSig,
	}
	err = VerifyFULL(w.owner.Verifier(), vs, vt, proof)
	wantRejected(t, "FULL sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestFULLAttackTamperedDistance(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.full.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	proof.DistVO.Entry.Value = proof.Dist * 1.5
	wantRejected(t, "FULL tampered distance", VerifyFULL(w.owner.Verifier(), q.S, q.T, proof))
}

func TestFULLAttackForeignDistanceEntry(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	other := w.queries[1]
	proof, err := w.full.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Substitute another pair's (authentic!) distance entry.
	foreign, err := w.full.forest.Prove(int(other.S), int(other.T))
	if err != nil {
		t.Fatal(err)
	}
	proof.DistVO = foreign
	wantRejected(t, "FULL foreign entry", VerifyFULL(w.owner.Verifier(), q.S, q.T, proof))
}

func TestFULLAttackRekeyedEntry(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.full.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the digest material but re-label the entry's key.
	proof.DistVO.Entry.Key = mbt.MakeKey(uint32(q.S), uint32(q.S))
	wantRejected(t, "FULL re-keyed entry", VerifyFULL(w.owner.Verifier(), q.S, q.T, proof))
}

// --- LDM attacks ---

func TestLDMAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	// Malicious provider: collects an honest-looking Lemma 2 subgraph for
	// the LONGER distance, so the proof is internally consistent.
	bound := altDist * providerSlack
	tree, settled := sp.DijkstraBounded(w.g, vs, bound)
	include := make(map[graph.NodeID]bool)
	for _, v := range settled {
		if tree.Dist[v]+w.ldm.hints.LB(v, vt) <= bound {
			include[v] = true
			for _, e := range w.g.Neighbors(v) {
				include[e.To] = true
			}
		}
	}
	nodes := make([]graph.NodeID, 0, len(include))
	for v := range include {
		nodes = append(nodes, v)
	}
	for _, v := range nodes {
		if ref := w.ldm.hints.Ref[v]; ref != v && !include[ref] {
			include[ref] = true
			nodes = append(nodes, ref)
		}
	}
	mhtProof, err := w.ldm.ads.Prove(nodes)
	if err != nil {
		t.Fatal(err)
	}
	proof := &LDMProof{
		Path:    alt,
		Dist:    altDist,
		Params:  w.ldmParams(),
		Tuples:  w.ldm.ads.Records(nodes),
		MHT:     mhtProof,
		RootSig: w.ldm.rootSig,
	}
	err = VerifyLDM(w.owner.Verifier(), vs, vt, proof)
	wantRejected(t, "LDM sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func (w *testWorld) ldmParams() landmark.Params {
	return landmark.Params{C: w.ldm.hints.C(), Bits: w.ldm.hints.Bits, Lambda: w.ldm.hints.Lambda}
}

func TestLDMAttackDroppedReference(t *testing.T) {
	w := world(t)
	// Find a query whose proof contains a compressed tuple, then drop the
	// referenced representative's tuple.
	for _, q := range w.queries {
		proof, err := w.ldm.Query(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		refs := map[graph.NodeID]bool{}
		inProof := map[graph.NodeID]bool{}
		for _, rec := range proof.Tuples {
			tup, _, err := graph.DecodeTuple(rec.Bytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			inProof[tup.ID] = true
			if ref := w.ldm.hints.Ref[tup.ID]; ref != tup.ID {
				refs[ref] = true
			}
		}
		if len(refs) == 0 {
			continue
		}
		// Drop one representative's record.
		var filtered []tupleRecord
		dropped := false
		for _, rec := range proof.Tuples {
			tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
			if !dropped && refs[tup.ID] && w.ldm.hints.Ref[tup.ID] == tup.ID {
				dropped = true
				continue
			}
			filtered = append(filtered, rec)
		}
		if !dropped {
			continue
		}
		proof.Tuples = filtered
		wantRejected(t, "LDM dropped reference", VerifyLDM(w.owner.Verifier(), q.S, q.T, proof))
		return
	}
	t.Skip("no query produced compressed tuples; compression too weak at this scale")
}

func TestLDMAttackTamperedPayload(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.ldm.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside a landmark vector (inflating a lower bound could
	// hide a shorter path).
	rec := proof.Tuples[len(proof.Tuples)/2]
	tampered := append([]byte(nil), rec.Bytes...)
	tampered[len(tampered)-2] ^= 0xff
	proof.Tuples[len(proof.Tuples)/2].Bytes = tampered
	wantRejected(t, "LDM tampered payload", VerifyLDM(w.owner.Verifier(), q.S, q.T, proof))
}

func TestLDMAttackParameterForgery(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof, err := w.ldm.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a larger λ: every lower bound would scale up, potentially
	// pruning the re-run into accepting a longer path. The signature binds
	// λ, so this must die at the signature check.
	proof.Params.Lambda *= 2
	wantRejected(t, "LDM forged lambda", VerifyLDM(w.owner.Verifier(), q.S, q.T, proof))
}

// --- HYP attacks ---

func TestHYPAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	honest, err := w.hyp.Query(vs, vt)
	if err != nil {
		t.Fatal(err)
	}
	// Report the longer path with the honest coarse proof: the Theorem 2
	// re-computation exposes the true distance.
	include := map[graph.NodeID]bool{}
	for _, rec := range honest.Tuples {
		tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
		include[tup.ID] = true
	}
	nodes := make([]graph.NodeID, 0, len(include)+len(alt))
	for v := range include {
		nodes = append(nodes, v)
	}
	for _, v := range alt {
		if !include[v] {
			include[v] = true
			nodes = append(nodes, v)
		}
	}
	mhtProof, err := w.hyp.ads.Prove(nodes)
	if err != nil {
		t.Fatal(err)
	}
	proof := &HYPProof{
		Path:    alt,
		Dist:    altDist,
		Tuples:  w.hyp.ads.Records(nodes),
		MHT:     mhtProof,
		Hyper:   honest.Hyper,
		NetSig:  honest.NetSig,
		DistSig: honest.DistSig,
	}
	err = VerifyHYP(w.owner.Verifier(), vs, vt, proof)
	wantRejected(t, "HYP sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestHYPAttackTamperedHyperEdge(t *testing.T) {
	w := world(t)
	for _, q := range w.queries {
		proof, err := w.hyp.Query(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		if proof.Hyper == nil || len(proof.Hyper.Entries) == 0 {
			continue
		}
		proof.Hyper.Entries[0].Value *= 2
		wantRejected(t, "HYP tampered hyper-edge", VerifyHYP(w.owner.Verifier(), q.S, q.T, proof))
		return
	}
	t.Fatal("no query used hyper-edges")
}

func TestHYPAttackDroppedHyperEdges(t *testing.T) {
	w := world(t)
	for _, q := range w.queries {
		proof, err := w.hyp.Query(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		if proof.Hyper == nil || len(proof.Hyper.Entries) < 2 {
			continue
		}
		// Drop the hyper-edge block entirely: inflating the coarse minimum
		// could legitimize a longer path.
		proof.Hyper = nil
		wantRejected(t, "HYP dropped hyper-edges", VerifyHYP(w.owner.Verifier(), q.S, q.T, proof))
		return
	}
	t.Fatal("no query used hyper-edges")
}

func TestHYPAttackPrunedCell(t *testing.T) {
	w := world(t)
	// Drop a non-border cell node from the coarse proof: the client's
	// intra-cell Dijkstra must notice the missing neighbor of a non-border
	// node.
	for _, q := range w.queries {
		proof, err := w.hyp.Query(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		cs := w.hyp.hyper.CellOf[q.S]
		var filtered []tupleRecord
		dropped := false
		for _, rec := range proof.Tuples {
			tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
			if !dropped && tup.ID != q.S && tup.ID != q.T &&
				w.hyp.hyper.CellOf[tup.ID] == cs && !w.hyp.hyper.IsBorder[tup.ID] &&
				!onPath(proof.Path, tup.ID) {
				dropped = true
				continue
			}
			filtered = append(filtered, rec)
		}
		if !dropped {
			continue
		}
		proof.Tuples = filtered
		wantRejected(t, "HYP pruned cell", VerifyHYP(w.owner.Verifier(), q.S, q.T, proof))
		return
	}
	t.Skip("no query had a droppable inner cell node")
}

func onPath(p graph.Path, v graph.NodeID) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// --- cross-cutting ---

func TestAllMethodsRejectReplayedSignatureAcrossMethods(t *testing.T) {
	// A DIJ root signature must not authenticate an LDM tree and vice
	// versa: the signing context binds the method.
	w := world(t)
	q := w.queries[0]
	dp, err := w.dij.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := w.ldm.Query(q.S, q.T)
	if err != nil {
		t.Fatal(err)
	}
	dp.RootSig, lp.RootSig = lp.RootSig, dp.RootSig
	wantRejected(t, "DIJ with LDM sig", VerifyDIJ(w.owner.Verifier(), q.S, q.T, dp))
	wantRejected(t, "LDM with DIJ sig", VerifyLDM(w.owner.Verifier(), q.S, q.T, lp))
}

// --- cross-method: leaf position aliasing ---

// aliasParts exposes the fields the aliasing attacks rewrite, on a shallow
// copy of pr whose tuple list and Merkle proof are fresh copies.
func aliasParts(t *testing.T, pr Proof) (Proof, *[]tupleRecord, *mht.Proof, *float64, graph.Path) {
	t.Helper()
	cloneMHT := func(p *mht.Proof) *mht.Proof {
		cp := *p
		cp.Entries = append([]mht.Entry(nil), p.Entries...)
		return &cp
	}
	switch p := pr.(type) {
	case *DIJProof:
		cp := *p
		cp.Tuples = append([]tupleRecord(nil), p.Tuples...)
		cp.MHT = cloneMHT(p.MHT)
		return &cp, &cp.Tuples, cp.MHT, &cp.Dist, cp.Path
	case *LDMProof:
		cp := *p
		cp.Tuples = append([]tupleRecord(nil), p.Tuples...)
		cp.MHT = cloneMHT(p.MHT)
		return &cp, &cp.Tuples, cp.MHT, &cp.Dist, cp.Path
	case *HYPProof:
		cp := *p
		cp.Tuples = append([]tupleRecord(nil), p.Tuples...)
		cp.MHT = cloneMHT(p.MHT)
		return &cp, &cp.Tuples, cp.MHT, &cp.Dist, cp.Path
	case *FULLProof:
		cp := *p
		cp.Tuples = append([]tupleRecord(nil), p.Tuples...)
		cp.MHT = cloneMHT(p.MHT)
		return &cp, &cp.Tuples, cp.MHT, &cp.Dist, cp.Path
	}
	t.Fatalf("unexpected proof type %T", pr)
	return nil, nil, nil, nil, nil
}

// aliasForge rewrites pr into the position-alias attack: the first path
// node X gets a forged tuple whose edge to the next path node weighs half
// as much, the claimed distance drops by that half, and the forged record
// is filed under the position of another record Y, placed before Y's own
// record. X's genuine digest rides along as a level-0 Merkle entry, so the
// reconstructed root is still the signed one; only position uniqueness
// keeps the forged tuple out of the search. It returns nil when the proof
// offers no such pair.
func aliasForge(t *testing.T, pr Proof) Proof {
	t.Helper()
	forged, recsp, mp, dist, path := aliasParts(t, pr)
	recs := *recsp
	x, next := path[0], path[1]
	xi, yi := -1, -1
	for i, r := range recs {
		tu, _, err := graph.DecodeTuple(r.Bytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tu.ID == x {
			xi = i
		} else if yi < 0 {
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		return nil
	}
	genuine := recs[xi]
	tu, n, err := graph.DecodeTuple(genuine.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := 0.0
	for k := range tu.Adj {
		if tu.Adj[k].To == next {
			saved = tu.Adj[k].W / 2
			tu.Adj[k].W -= saved
		}
	}
	fake := tupleRecord{Pos: recs[yi].Pos, Bytes: append(tu.AppendBinary(nil), genuine.Bytes[n:]...)}
	var out []tupleRecord
	for i, r := range recs {
		if i == yi {
			out = append(out, fake)
		}
		if i != xi {
			out = append(out, r)
		}
	}
	*recsp = out
	mp.Entries = append(mp.Entries, mht.Entry{Level: 0, Index: genuine.Pos, Digest: mp.Alg.Sum(genuine.Bytes)})
	*dist -= saved
	return forged
}

// TestAttackLeafPositionAlias: two records may not claim one Merkle leaf
// position. Before the flat verification kernel a later record's digest
// silently replaced an earlier one's, so the earlier tuple entered the
// search unauthenticated. Every method must reject the alias as malformed,
// through VerifyProof and through VerifyBatch (with honest items beside
// it), and a second record for a node already present is rejected the
// same way.
func TestAttackLeafPositionAlias(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		p := testProvider(t, w, m)
		var items []BatchItem
		forgedAt := map[int]bool{}
		for _, q := range w.queries {
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				t.Fatalf("%s query: %v", m, err)
			}
			items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: pr})
			forged := aliasForge(t, pr)
			if forged == nil {
				continue
			}
			err = VerifyProof(v, m, q.S, q.T, forged)
			wantRejected(t, string(m)+" position alias", err)
			if !errors.Is(err, ErrMalformedProof) {
				t.Errorf("%s position alias: want ErrMalformedProof, got %v", m, err)
			}
			forgedAt[len(items)] = true
			items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: forged})

			// A second record for a node already present, at a position
			// of its own, is malformed too.
			dup, recs, _, _, _ := aliasParts(t, pr)
			used := map[uint32]bool{}
			for _, r := range *recs {
				used[r.Pos] = true
			}
			extra := (*recs)[0]
			for used[extra.Pos] {
				extra.Pos++
			}
			*recs = append(*recs, extra)
			err = VerifyProof(v, m, q.S, q.T, dup)
			wantRejected(t, string(m)+" duplicate node", err)
			if !errors.Is(err, ErrMalformedProof) {
				t.Errorf("%s duplicate node: want ErrMalformedProof, got %v", m, err)
			}
		}
		if len(forgedAt) == 0 {
			t.Fatalf("%s: no proof offered an alias pair", m)
		}
		for i, err := range VerifyBatch(v, m, items) {
			switch {
			case forgedAt[i]:
				wantRejected(t, string(m)+" batched position alias", err)
				if !errors.Is(err, ErrMalformedProof) {
					t.Errorf("%s batched position alias: want ErrMalformedProof, got %v", m, err)
				}
			case err != nil:
				t.Errorf("%s honest batch item %d rejected: %v", m, i, err)
			}
		}
	}
}
