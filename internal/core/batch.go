package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// This file implements batch verification: VerifyBatch checks a set of
// proofs of one method together, exploiting what proofs from a single
// provider epoch share — the signed root (one public-key operation instead
// of one per proof), overlapping Merkle authentication paths (each internal
// digest hashed once via mht.ReconstructSet), identical tuple bodies (each
// decoded and leaf-hashed once), and reusable search state (pooled maps and
// heaps instead of per-proof allocation).
//
// The contract is strict verdict equivalence: VerifyBatch accepts exactly
// the items the per-proof verifier accepts and rejects exactly the items it
// rejects, with the per-proof error classes. The fast path only ever
// *accepts* on its own authority (backed by ReconstructSet's equivalence
// guarantee); any item it cannot vouch for — and any batch whose proofs
// turn out not to share one tree — is re-verified individually, so
// rejections always carry the exact single-proof error.

// BatchItem is one query-proof pair in a batch.
type BatchItem struct {
	VS, VT graph.NodeID
	Proof  Proof
}

// VerifyBatch client-verifies a batch of proofs of method m, returning one
// verdict per item (nil = authentic and optimal, exactly as VerifyProof
// would report). Items sharing an epoch are verified cooperatively; the
// result is always equivalent to calling VerifyProof per item.
func VerifyBatch(v SigVerifier, m Method, items []BatchItem) []error {
	impl, ok := LookupMethod(m)
	if !ok {
		errs := make([]error, len(items))
		err := fmt.Errorf("%w %q", ErrUnknownMethod, m)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	return impl.VerifyProofBatch(v, items)
}

// errRetry marks a distinct item the fast path declined to vouch for; the
// batch frame re-verifies it with the per-proof verifier so the caller
// sees the exact single-proof error.
var errRetry = errors.New("core: re-verify individually")

// batchVerify is the shared batch frame: dedup identical (vs, vt, proof)
// items, run the method's fast path over the distinct ones, and fall back
// to per-proof verification for every item the fast path declined (or all
// of them, when the proofs turn out not to form one consistent set).
func batchVerify(v SigVerifier, items []BatchItem, impl MethodImpl,
	fast func(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool) []error {

	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	uniq, mapTo := dedupBatch(items)
	sel := make([]BatchItem, len(uniq))
	for k, i := range uniq {
		sel[k] = items[i]
	}
	verdicts := make([]error, len(uniq))
	b := acquireBatchScratch()
	ok := fast(b, v, sel, verdicts)
	releaseBatchScratch(b)
	for k := range verdicts {
		if !ok || verdicts[k] != nil {
			verdicts[k] = impl.VerifyProof(v, sel[k].VS, sel[k].VT, sel[k].Proof)
		}
	}
	for i := range items {
		errs[i] = verdicts[mapTo[i]]
	}
	return errs
}

// dedupBatch groups items that are literally the same query-proof pair
// (same endpoints, same proof value — decoded batch wires share one proof
// pointer per distinct body, so repeated answers dedup here). It returns
// the indices of first occurrences and each item's distinct slot.
func dedupBatch(items []BatchItem) (uniq, mapTo []int) {
	type key struct {
		vs, vt graph.NodeID
		pr     Proof
	}
	seen := make(map[key]int, len(items))
	mapTo = make([]int, len(items))
	for i, it := range items {
		if it.Proof != nil && !reflect.TypeOf(it.Proof).Comparable() {
			mapTo[i] = len(uniq)
			uniq = append(uniq, i)
			continue
		}
		k := key{it.VS, it.VT, it.Proof}
		if j, dup := seen[k]; dup {
			mapTo[i] = j
			continue
		}
		seen[k] = len(uniq)
		mapTo[i] = len(uniq)
		uniq = append(uniq, i)
	}
	return uniq, mapTo
}

// cachedTuple is one decoded tuple record in the batch-wide cache, keyed
// by leaf position: proofs from one epoch ship byte-identical records for
// shared positions, so each is decoded and leaf-hashed once per batch.
// payload and hmeta hold the method-specific annotation (a batch is always
// single-method, so only one of them is ever populated).
type cachedTuple struct {
	bytes   []byte
	tuple   graph.Tuple
	payload landmark.Payload // LDM: decoded landmark payload
	hmeta   hypMeta          // HYP: decoded cell/border annotation
}

type sigVerdict struct {
	ctx, root, sig []byte
	ok             bool
}

// batchScratch is the pooled cross-proof state of one VerifyProofBatch
// call: the tuple cache, the merged leaf-digest views for the shared
// trees, per-proof maps reused via clear(), and pooled search state.
// Nothing in it survives release; maps keep their buckets across batches.
type batchScratch struct {
	cache  map[uint32]cachedTuple
	known  map[int][]byte // merged network-tree leaf digests
	known2 map[int][]byte // merged second-tree leaves (FULL rows / HYP hyper)

	tuples   map[graph.NodeID]graph.Tuple
	meta     map[graph.NodeID]hypMeta
	hyperW   map[mbt.Key]float64
	dist     map[graph.NodeID]float64
	done     map[graph.NodeID]bool
	heap     *sp.Heap
	cells    *cellSearchScratch
	resolver *landmark.Resolver

	msg  []byte
	sigs []sigVerdict
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		cache:  make(map[uint32]cachedTuple),
		known:  make(map[int][]byte),
		known2: make(map[int][]byte),
		tuples: make(map[graph.NodeID]graph.Tuple),
		meta:   make(map[graph.NodeID]hypMeta),
		hyperW: make(map[mbt.Key]float64),
		dist:   make(map[graph.NodeID]float64),
		done:   make(map[graph.NodeID]bool),
		heap:   sp.NewHeap(64),
		cells:  newCellSearchScratch(),
	}
}}

func acquireBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// releaseBatchScratch clears and returns b to the pool. Clearing happens
// on release so a pooled scratch never pins a batch's decoded proofs.
func releaseBatchScratch(b *batchScratch) {
	clear(b.cache)
	clear(b.known)
	clear(b.known2)
	b.sigs = b.sigs[:0]
	batchScratchPool.Put(b)
}

// checkSig verifies one root signature with a batch-scoped verdict cache,
// so a batch sharing one signed root costs a single public-key operation.
func (b *batchScratch) checkSig(v SigVerifier, ctx, root, sig []byte) bool {
	for _, s := range b.sigs {
		if bytes.Equal(s.ctx, ctx) && bytes.Equal(s.root, root) && bytes.Equal(s.sig, sig) {
			return s.ok
		}
	}
	b.msg = append(append(b.msg[:0], ctx...), root...)
	ok := v.Verify(b.msg, sig) == nil
	b.sigs = append(b.sigs, sigVerdict{ctx: ctx, root: root, sig: sig, ok: ok})
	return ok
}

// mergeTupleRecords parses one proof's records through the batch cache,
// merging leaf digests into the shared known view and returning the leaf
// positions the proof relies on. Any parse failure — including records
// that byte-differ from another proof's at the same position — makes the
// caller verify that proof individually.
func (b *batchScratch) mergeTupleRecords(alg digest.Alg, recs []tupleRecord,
	onParse func(c *cachedTuple, rest []byte) (int, error)) ([]int, error) {

	leaves := make([]int, 0, len(recs))
	for i, r := range recs {
		if c, hit := b.cache[r.Pos]; hit {
			if !bytes.Equal(c.bytes, r.Bytes) {
				return nil, fmt.Errorf("%w: differing tuple bytes at leaf %d", mht.ErrInconsistentSet, r.Pos)
			}
			leaves = append(leaves, int(r.Pos))
			continue
		}
		var c cachedTuple
		t, n, err := graph.DecodeTuple(r.Bytes, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrMalformedProof, i, err)
		}
		c.tuple = t
		if onParse != nil {
			used, err := onParse(&c, r.Bytes[n:])
			if err != nil {
				return nil, fmt.Errorf("%w: record %d extra: %v", ErrMalformedProof, i, err)
			}
			n += used
		}
		if n != len(r.Bytes) {
			return nil, fmt.Errorf("%w: record %d has %d trailing bytes", ErrMalformedProof, i, len(r.Bytes)-n)
		}
		c.bytes = r.Bytes
		b.cache[r.Pos] = c
		b.known[int(r.Pos)] = alg.Sum(r.Bytes)
		leaves = append(leaves, int(r.Pos))
	}
	return leaves, nil
}

// fillTuples rebuilds one proof's node → tuple view from the batch cache
// into the pooled map (valid until the next fill), calling onFill once per
// node so method annotations land in their per-proof structures. Proofs
// with duplicate node IDs — never produced by an honest provider — are
// declined, because the per-proof verifier's duplicate semantics depend on
// record order and annotation bytes the cache does not preserve.
func (b *batchScratch) fillTuples(recs []tupleRecord, onFill func(c *cachedTuple)) (map[graph.NodeID]graph.Tuple, error) {
	clear(b.tuples)
	for _, r := range recs {
		c := b.cache[r.Pos]
		if _, dup := b.tuples[c.tuple.ID]; dup {
			return nil, fmt.Errorf("%w: node %d appears twice", ErrMalformedProof, c.tuple.ID)
		}
		b.tuples[c.tuple.ID] = c.tuple
		if onFill != nil {
			onFill(&c)
		}
	}
	return b.tuples, nil
}

// auditShared runs the shared-tree audit over the still-admitted proofs:
// one merged reconstruction (mht.ReconstructSet) plus one cached signature
// check per proof. Proofs the shared root cannot vouch for — incomplete
// paths, failed signatures — are declined in verdicts; an inconsistent set
// aborts the whole fast path (return false).
func (b *batchScratch) auditShared(v SigVerifier, ctx []byte, known map[int][]byte,
	mhtps []*mht.Proof, leaves [][]int, sigs [][]byte, ks []int,
	verdicts []error, decline func(k int)) bool {

	if len(mhtps) == 0 {
		return true
	}
	root, complete, err := mht.ReconstructSet(mhtps, known, leaves)
	if err != nil {
		return false
	}
	for x, k := range ks {
		if root == nil || !complete[x] || !b.checkSig(v, ctx, root, sigs[x]) {
			verdicts[k] = errRetry
			decline(k)
		}
	}
	return true
}

// --- DIJ ---

func (dijImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, dijImpl{}, dijBatchFast)
}

func dijBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	proofs := make([]*DIJProof, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*DIJProof)
		if !ok || p == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			continue
		}
		proofs[k] = p
	}
	leaves := make([][]int, len(sel))
	for k, p := range proofs {
		if p == nil {
			continue
		}
		lv, err := b.mergeTupleRecords(p.MHT.Alg, p.Tuples, nil)
		if err != nil {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		leaves[k] = lv
	}
	var mhtps []*mht.Proof
	var lvs [][]int
	var sigs [][]byte
	var ks []int
	for k, p := range proofs {
		if p == nil {
			continue
		}
		mhtps = append(mhtps, p.MHT)
		lvs = append(lvs, leaves[k])
		sigs = append(sigs, p.RootSig)
		ks = append(ks, k)
	}
	if !b.auditShared(v, dijSigCtx, b.known, mhtps, lvs, sigs, ks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	for k, p := range proofs {
		if p == nil {
			continue
		}
		it := sel[k]
		tuples, err := b.fillTuples(p.Tuples, nil)
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		claimed, err := checkClaimedPath(tuples, p.Path, it.VS, it.VT, p.Dist)
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		clear(b.dist)
		clear(b.done)
		b.heap.Reset()
		recomputed, err := tupleDijkstraInto(b.dist, b.done, b.heap, tuples, it.VS, it.VT, claimed)
		if err != nil || checkOptimal(recomputed, claimed) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}

// sameShape admits proofs over one tree shape, anchored at the first
// admitted proof; aliens go to per-proof verification instead of polluting
// the merged digest view with foreign-algorithm hashes.
func sameShape(ref **mht.Proof, p *mht.Proof) bool {
	if *ref == nil {
		*ref = p
		return true
	}
	r := *ref
	return p.Alg == r.Alg && p.Fanout == r.Fanout && p.NumLeaves == r.NumLeaves
}

// --- LDM ---

func (ldmImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, ldmImpl{}, ldmBatchFast)
}

func ldmBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	proofs := make([]*LDMProof, len(sel))
	var ref *mht.Proof
	var params landmark.Params
	haveParams := false
	for k, it := range sel {
		p, ok := it.Proof.(*LDMProof)
		if !ok || p == nil || p.MHT == nil ||
			p.Params.C <= 0 || p.Params.Bits <= 0 || p.Params.Bits > 30 ||
			p.Params.Lambda <= 0 || math.IsNaN(p.Params.Lambda) || math.IsInf(p.Params.Lambda, 0) {
			verdicts[k] = errRetry
			continue
		}
		if !haveParams {
			params = p.Params
			haveParams = true
		} else if p.Params != params {
			// Cached payloads are decoded under the batch parameters; a
			// proof under different parameters cannot share them.
			verdicts[k] = errRetry
			continue
		}
		if !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			continue
		}
		proofs[k] = p
	}
	onParse := func(c *cachedTuple, rest []byte) (int, error) {
		payload, n, err := landmark.DecodePayload(rest, params.C, params.Bits)
		if err != nil {
			return 0, err
		}
		c.payload = payload
		return n, nil
	}
	leaves := make([][]int, len(sel))
	for k, p := range proofs {
		if p == nil {
			continue
		}
		lv, err := b.mergeTupleRecords(p.MHT.Alg, p.Tuples, onParse)
		if err != nil {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		leaves[k] = lv
	}
	var mhtps []*mht.Proof
	var lvs [][]int
	var sigs [][]byte
	var ks []int
	for k, p := range proofs {
		if p == nil {
			continue
		}
		mhtps = append(mhtps, p.MHT)
		lvs = append(lvs, leaves[k])
		sigs = append(sigs, p.RootSig)
		ks = append(ks, k)
	}
	if len(mhtps) == 0 {
		return true
	}
	ctx := ldmSigCtx(params)
	if !b.auditShared(v, ctx, b.known, mhtps, lvs, sigs, ks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	for k, p := range proofs {
		if p == nil {
			continue
		}
		it := sel[k]
		if b.resolver == nil {
			b.resolver = landmark.NewResolver(params)
		} else {
			b.resolver.Reset(params)
		}
		tuples, err := b.fillTuples(p.Tuples, func(c *cachedTuple) {
			b.resolver.Add(c.tuple.ID, c.payload)
		})
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		claimed, err := checkClaimedPath(tuples, p.Path, it.VS, it.VT, p.Dist)
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		clear(b.dist)
		b.heap.Reset()
		recomputed, err := tupleAStarInto(b.dist, b.heap, tuples, it.VS, it.VT, b.resolver.LB, claimed)
		if err != nil || checkOptimal(recomputed, claimed) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}

// --- FULL ---

func (fullImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, fullImpl{}, fullBatchFast)
}

func fullBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	proofs := make([]*FULLProof, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*FULLProof)
		if !ok || p == nil || p.DistVO == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			continue
		}
		proofs[k] = p
	}
	// Distance forest: reconstruct each proof's row locally, then audit the
	// shared top tree over the merged row roots.
	rowLeaf := make([][]int, len(sel))
	for k, p := range proofs {
		if p == nil {
			continue
		}
		it := sel[k]
		i, j := p.DistVO.Entry.Key.Split()
		if graph.NodeID(i) != it.VS || graph.NodeID(j) != it.VT {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		li, rowRoot, err := p.DistVO.RowLeaf()
		if err != nil {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		if prev, dup := b.known2[li]; dup && !bytes.Equal(prev, rowRoot) {
			return false // two proofs disagree about one row root
		}
		b.known2[li] = rowRoot
		rowLeaf[k] = []int{li}
	}
	var tops []*mht.Proof
	var topLvs [][]int
	var distSigs [][]byte
	var ks []int
	for k, p := range proofs {
		if p == nil {
			continue
		}
		tops = append(tops, p.DistVO.Top)
		topLvs = append(topLvs, rowLeaf[k])
		distSigs = append(distSigs, p.DistSig)
		ks = append(ks, k)
	}
	if !b.auditShared(v, fullDistCtx, b.known2, tops, topLvs, distSigs, ks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	// Network tree over the path tuples.
	leaves := make([][]int, len(sel))
	for k, p := range proofs {
		if p == nil {
			continue
		}
		lv, err := b.mergeTupleRecords(p.MHT.Alg, p.Tuples, nil)
		if err != nil {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		leaves[k] = lv
	}
	var mhtps []*mht.Proof
	var lvs [][]int
	var netSigs [][]byte
	ks = ks[:0]
	for k, p := range proofs {
		if p == nil {
			continue
		}
		mhtps = append(mhtps, p.MHT)
		lvs = append(lvs, leaves[k])
		netSigs = append(netSigs, p.NetSig)
		ks = append(ks, k)
	}
	if !b.auditShared(v, fullNetCtx, b.known, mhtps, lvs, netSigs, ks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	for k, p := range proofs {
		if p == nil {
			continue
		}
		it := sel[k]
		tuples, err := b.fillTuples(p.Tuples, nil)
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		claimed, err := checkClaimedPath(tuples, p.Path, it.VS, it.VT, p.Dist)
		if err != nil || checkOptimal(p.DistVO.Entry.Value, claimed) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}

// --- HYP ---

func (hypImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, hypImpl{}, hypBatchFast)
}

func hypBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	proofs := make([]*HYPProof, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*HYPProof)
		if !ok || p == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			continue
		}
		proofs[k] = p
	}
	onParse := func(c *cachedTuple, rest []byte) (int, error) {
		cell, isBorder, err := hiti.DecodeExtra(rest)
		if err != nil {
			return 0, err
		}
		c.hmeta = hypMeta{cell: cell, isBorder: isBorder}
		return hiti.ExtraSize, nil
	}
	leaves := make([][]int, len(sel))
	for k, p := range proofs {
		if p == nil {
			continue
		}
		lv, err := b.mergeTupleRecords(p.MHT.Alg, p.Tuples, onParse)
		if err != nil {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		leaves[k] = lv
	}
	var mhtps []*mht.Proof
	var lvs [][]int
	var netSigs [][]byte
	var ks []int
	for k, p := range proofs {
		if p == nil {
			continue
		}
		mhtps = append(mhtps, p.MHT)
		lvs = append(lvs, leaves[k])
		netSigs = append(netSigs, p.NetSig)
		ks = append(ks, k)
	}
	if !b.auditShared(v, hypNetCtx, b.known, mhtps, lvs, netSigs, ks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	// Hyper-edge tree: merged audit over the proofs that carry one (a proof
	// without hyper-edges has nothing to authenticate here, exactly like the
	// per-proof verifier).
	var hypers []*mht.Proof
	var hyperLvs [][]int
	var distSigs [][]byte
	var hks []int
	var hyperRef *mht.Proof
	for k, p := range proofs {
		if p == nil || p.Hyper == nil {
			continue
		}
		if p.Hyper.MHT == nil || !sameShape(&hyperRef, p.Hyper.MHT) {
			verdicts[k] = errRetry
			proofs[k] = nil
			continue
		}
		lv, err := p.Hyper.MergeLeafDigests(b.known2)
		if err != nil {
			return false // conflicting hyper-edge entries across proofs
		}
		hypers = append(hypers, p.Hyper.MHT)
		hyperLvs = append(hyperLvs, lv)
		distSigs = append(distSigs, p.DistSig)
		hks = append(hks, k)
	}
	if !b.auditShared(v, hypDistCtx, b.known2, hypers, hyperLvs, distSigs, hks, verdicts,
		func(k int) { proofs[k] = nil }) {
		return false
	}
	for k, p := range proofs {
		if p == nil {
			continue
		}
		it := sel[k]
		clear(b.meta)
		tuples, err := b.fillTuples(p.Tuples, func(c *cachedTuple) {
			b.meta[c.tuple.ID] = c.hmeta
		})
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		clear(b.hyperW)
		if p.Hyper != nil {
			for _, e := range p.Hyper.Entries {
				b.hyperW[e.Key] = e.Value
			}
		}
		claimed, err := checkClaimedPath(tuples, p.Path, it.VS, it.VT, p.Dist)
		if err != nil {
			verdicts[k] = errRetry
			continue
		}
		if hypCoarse(b.cells, tuples, b.meta, b.hyperW, it.VS, it.VT, claimed) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}
