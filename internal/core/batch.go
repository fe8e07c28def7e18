package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mht"
)

// This file implements batch verification: VerifyBatch checks a set of
// proofs of one method together, exploiting what proofs from a single
// provider epoch share — the signed root (one public-key operation instead
// of one per proof), overlapping Merkle authentication paths (each internal
// digest hashed once via mht.ReconstructSet), identical tuple bodies (each
// decoded and leaf-hashed once, through one position-sorted record table),
// and reusable search state (the pooled flat kernel of tupletable.go
// instead of per-proof allocation).
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

// batchSlot is one distinct leaf position of the batch-wide record table:
// proofs from one epoch ship byte-identical records for shared positions,
// so each is decoded and leaf-hashed once per batch. payload and hmeta
// hold the method-specific annotation (a batch is always single-method, so
// only one of them is ever populated).
type batchSlot struct {
	pos     uint32
	bytes   []byte
	tuple   graph.Tuple
	payload landmark.Payload // LDM: decoded landmark payload
	hmeta   hypMeta          // HYP: decoded cell/border annotation
	bad     bool             // decode failed
	used    bool             // relied on by a still-admitted proof
}

type sigVerdict struct {
	ctx, root, sig []byte
	ok             bool
}

// auditSet collects the inputs of one shared-tree audit: per admitted
// proof its Merkle proof, its leaf positions and its signature, and the
// proof's slot in the batch.
type auditSet struct {
	mhtps  []*mht.Proof
	leaves [][]uint32
	sigs   [][]byte
	ks     []int
}

func (a *auditSet) reset() {
	a.mhtps, a.leaves, a.sigs, a.ks = a.mhtps[:0], a.leaves[:0], a.sigs[:0], a.ks[:0]
}

func (a *auditSet) add(k int, p *mht.Proof, leaves []uint32, sig []byte) {
	a.mhtps = append(a.mhtps, p)
	a.leaves = append(a.leaves, leaves)
	a.sigs = append(a.sigs, sig)
	a.ks = append(a.ks, k)
}

// batchScratch is the pooled cross-proof state of one VerifyProofBatch
// call: the position-sorted record table with its decoded slots and
// arenas, the merged leaf views of the shared trees, the per-proof view
// and search state, and the signature verdict cache. Nothing in it
// survives release; slices keep their storage across batches.
type batchScratch struct {
	// Record table: key = pos<<32 | global record number; recK/recJ map a
	// global record number to its proof and its index in that proof.
	keys   []uint64
	recK   []int32
	recJ   []int32
	base   []int32 // first global record number of each proof
	slotOf []int32 // global record number → slot
	slots  []batchSlot
	edges  []graph.Edge
	units  []uint32

	live     []bool     // proof still admitted to the fast path
	known    []mht.Leaf // merged network-tree leaves of the used slots
	digests  []byte
	lists    [][]uint32 // per proof: its network-tree leaf positions
	known2   []mht.Leaf // merged second-tree leaves (FULL rows / HYP hyper)
	arena2   []byte
	lists2   [][]uint32
	audit    auditSet
	rec      mht.Reconstructor
	complete []bool // per audited proof: its own claims cover the root

	tab      tupleTable
	search   searchState
	cellS    searchState
	cellT    searchState
	meta     []hypMeta
	resolver landmark.Resolver
	hyper    hyperTable

	msg   []byte
	roots []byte // owned copies of the roots in sigs
	sigs  []sigVerdict
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func acquireBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// releaseBatchScratch clears and returns b to the pool. Clearing happens
// on release so a pooled scratch never pins a batch's decoded proofs.
func releaseBatchScratch(b *batchScratch) {
	clear(b.slots)
	clear(b.known)
	clear(b.known2)
	clear(b.tab.tuples)
	clear(b.sigs)
	clear(b.audit.mhtps)
	clear(b.audit.sigs)
	b.rec.Clear()
	b.sigs = b.sigs[:0]
	batchScratchPool.Put(b)
}

// checkSig verifies one root signature with a batch-scoped verdict cache,
// so a batch sharing one signed root costs a single public-key operation.
// root may alias reconstruction scratch: the cache keeps its own copy.
func (b *batchScratch) checkSig(v SigVerifier, ctx, root, sig []byte) bool {
	for _, s := range b.sigs {
		if bytes.Equal(s.ctx, ctx) && bytes.Equal(s.root, root) && bytes.Equal(s.sig, sig) {
			return s.ok
		}
	}
	b.msg = append(append(b.msg[:0], ctx...), root...)
	ok := v.Verify(b.msg, sig) == nil
	b.roots = append(b.roots, root...)
	owned := b.roots[len(b.roots)-len(root):]
	b.sigs = append(b.sigs, sigVerdict{ctx: ctx, root: owned, sig: sig, ok: ok})
	return ok
}

// resetFor sizes the per-proof state for a batch of n distinct proofs,
// all admitted.
func (b *batchScratch) resetFor(n int) {
	b.live = slices.Grow(b.live[:0], n)[:n]
	for k := range b.live {
		b.live[k] = true
	}
	b.lists = growLists(b.lists, n)
	b.lists2 = growLists(b.lists2, n)
	b.known2 = b.known2[:0]
	b.arena2 = b.arena2[:0]
	b.roots = b.roots[:0]
}

func growLists(l [][]uint32, n int) [][]uint32 {
	for len(l) < n {
		l = append(l, nil)
	}
	for k := range l[:n] {
		l[k] = l[k][:0]
	}
	return l[:n]
}

// mergeRecords builds the batch-wide record table over the tuple sets of
// the admitted proofs (recs[k] for every k with b.live[k]): one sort by
// leaf position, one decode and one leaf hash per distinct position. It
// withdraws from b.live every proof whose records repeat a position,
// byte-differ from an earlier proof's record at the same position, or
// fail to decode — the per-proof verifier gives those their exact verdict.
// On return b.known holds the leaves every admitted proof relies on and
// b.lists[k] proof k's positions, both ascending.
func (b *batchScratch) mergeRecords(alg digest.Alg, recs [][]tupleRecord,
	onParse func(c *batchSlot, rest []byte) (int, error)) {

	b.keys, b.recK, b.recJ, b.base = b.keys[:0], b.recK[:0], b.recJ[:0], b.base[:0]
	for k, rs := range recs {
		b.base = append(b.base, int32(len(b.recK)))
		if !b.live[k] {
			continue
		}
		for j, r := range rs {
			b.keys = append(b.keys, uint64(r.Pos)<<32|uint64(len(b.recK)))
			b.recK = append(b.recK, int32(k))
			b.recJ = append(b.recJ, int32(j))
		}
	}
	record := func(g uint32) tupleRecord { return recs[b.recK[g]][b.recJ[g]] }
	slices.Sort(b.keys)
	b.slotOf = slices.Grow(b.slotOf[:0], len(b.recK))[:len(b.recK)]
	b.slots = b.slots[:0]
	degrees := 0
	for i := 0; i < len(b.keys); {
		pos := uint32(b.keys[i] >> 32)
		rep := record(uint32(b.keys[i]))
		slot := int32(len(b.slots))
		b.slots = append(b.slots, batchSlot{pos: pos, bytes: rep.Bytes})
		degrees += graph.EncodedDegree(rep.Bytes)
		j := i
		for ; j < len(b.keys) && uint32(b.keys[j]>>32) == pos; j++ {
			g := uint32(b.keys[j])
			b.slotOf[g] = slot
			if j == i {
				continue
			}
			k := b.recK[g]
			if k == b.recK[uint32(b.keys[j-1])] || !bytes.Equal(record(g).Bytes, rep.Bytes) {
				b.live[k] = false
			}
		}
		i = j
	}
	b.edges = slices.Grow(b.edges[:0], degrees)
	b.units = b.units[:0]
	var c *batchSlot
	var extra func(graph.NodeID, []byte) (int, error)
	if onParse != nil {
		extra = func(_ graph.NodeID, rest []byte) (int, error) { return onParse(c, rest) }
	}
	for i := range b.slots {
		c = &b.slots[i]
		t, edges, err := decodeRecord(c.bytes, b.edges, extra)
		b.edges = edges
		c.tuple, c.bad = t, err != nil
	}
	for g, k := range b.recK {
		if b.live[k] && b.slots[b.slotOf[g]].bad {
			b.live[k] = false
		}
	}
	for g, k := range b.recK {
		if b.live[k] {
			b.slots[b.slotOf[g]].used = true
		}
	}
	h := alg.New()
	size := alg.Size()
	b.known = b.known[:0]
	b.digests = slices.Grow(b.digests[:0], len(b.slots)*size)
	for i := range b.slots {
		if c := &b.slots[i]; c.used {
			h.Reset()
			h.Write(c.bytes)
			b.digests = h.Sum(b.digests)
			b.known = append(b.known, mht.Leaf{Index: c.pos, Digest: b.digests[len(b.digests)-size:]})
		}
	}
	for _, key := range b.keys {
		if g := uint32(key); b.live[b.recK[g]] {
			k := b.recK[g]
			b.lists[k] = append(b.lists[k], uint32(key>>32))
		}
	}
}

// view rebuilds proof k's tuple table from the decoded slots, in record
// order, calling onFill once per local node so method annotations land in
// their per-proof structures. It is valid until the next view.
func (b *batchScratch) view(k int, n int, onFill func(c *batchSlot)) error {
	b.tab.tuples = b.tab.tuples[:0]
	for j := 0; j < n; j++ {
		c := &b.slots[b.slotOf[int(b.base[k])+j]]
		b.tab.tuples = append(b.tab.tuples, c.tuple)
		if onFill != nil {
			onFill(c)
		}
	}
	return b.tab.index()
}

// auditShared runs the shared-tree audit over the collected proofs: one
// merged reconstruction (mht.ReconstructSet) plus one cached signature
// check per proof. Proofs the shared root cannot vouch for — incomplete
// paths, failed signatures — are declined in verdicts; an inconsistent set
// aborts the whole fast path (return false).
func (b *batchScratch) auditShared(v SigVerifier, ctx []byte, known []mht.Leaf, a *auditSet,
	verdicts []error, decline func(k int)) bool {

	if len(a.mhtps) == 0 {
		return true
	}
	b.complete = slices.Grow(b.complete[:0], len(a.mhtps))[:len(a.mhtps)]
	root, err := b.rec.ReconstructSet(a.mhtps, known, a.leaves, b.complete)
	if err != nil {
		return false
	}
	for x, k := range a.ks {
		if root == nil || !b.complete[x] || !b.checkSig(v, ctx, root, a.sigs[x]) {
			verdicts[k] = errRetry
			decline(k)
		}
	}
	return true
}

// auditNetwork merges the admitted proofs' tuple records (recs[k], with
// proof k's network-tree Merkle proof mhtps[k] and root signature sigs[k])
// and audits the shared network tree, withdrawing every proof it cannot
// vouch for from b.live (and marking it errRetry). It returns false when
// the proofs do not form one consistent tree.
func (b *batchScratch) auditNetwork(v SigVerifier, ctx []byte, alg digest.Alg, recs [][]tupleRecord,
	mhtps []*mht.Proof, sigs [][]byte, verdicts []error,
	onParse func(c *batchSlot, rest []byte) (int, error)) bool {

	b.mergeRecords(alg, recs, onParse)
	b.audit.reset()
	for k := range recs {
		if b.live[k] {
			b.audit.add(k, mhtps[k], b.lists[k], sigs[k])
		} else if verdicts[k] == nil {
			verdicts[k] = errRetry
		}
	}
	return b.auditShared(v, ctx, b.known, &b.audit, verdicts, b.withdraw)
}

func (b *batchScratch) withdraw(k int) { b.live[k] = false }

// sameShape admits proofs over one tree shape, anchored at the first
// admitted proof; aliens go to per-proof verification instead of polluting
// the merged digest view with foreign-algorithm hashes.
func sameShape(ref **mht.Proof, p *mht.Proof) bool {
	if *ref == nil {
		if !p.Alg.Valid() {
			return false
		}
		*ref = p
		return true
	}
	r := *ref
	return p.Alg == r.Alg && p.Fanout == r.Fanout && p.NumLeaves == r.NumLeaves
}

// --- DIJ ---

func (dijImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, dijImpl{}, dijBatchFast)
}

func dijBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	b.resetFor(len(sel))
	proofs := make([]*DIJProof, len(sel))
	recs := make([][]tupleRecord, len(sel))
	mhtps := make([]*mht.Proof, len(sel))
	sigs := make([][]byte, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*DIJProof)
		if !ok || p == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		proofs[k], recs[k], mhtps[k], sigs[k] = p, p.Tuples, p.MHT, p.RootSig
	}
	if ref == nil {
		return true
	}
	if !b.auditNetwork(v, dijSigCtx, ref.Alg, recs, mhtps, sigs, verdicts, nil) {
		return false
	}
	for k, p := range proofs {
		if !b.live[k] {
			continue
		}
		it := sel[k]
		if b.view(k, len(p.Tuples), nil) != nil || verifyDIJSearch(&b.search, &b.tab, it.VS, it.VT, p) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}

// --- LDM ---

func (ldmImpl) VerifyProofBatch(v SigVerifier, items []BatchItem) []error {
	return batchVerify(v, items, ldmImpl{}, ldmBatchFast)
}

func ldmBatchFast(b *batchScratch, v SigVerifier, sel []BatchItem, verdicts []error) bool {
	b.resetFor(len(sel))
	proofs := make([]*LDMProof, len(sel))
	recs := make([][]tupleRecord, len(sel))
	mhtps := make([]*mht.Proof, len(sel))
	sigs := make([][]byte, len(sel))
	var ref *mht.Proof
	var params landmark.Params
	haveParams := false
	for k, it := range sel {
		p, ok := it.Proof.(*LDMProof)
		admit := ok && p != nil && p.MHT != nil &&
			p.Params.C > 0 && p.Params.Bits > 0 && p.Params.Bits <= 30 &&
			p.Params.Lambda > 0 && !math.IsNaN(p.Params.Lambda) && !math.IsInf(p.Params.Lambda, 0)
		if admit && !haveParams {
			params = p.Params
			haveParams = true
		}
		// Cached payloads are decoded under the batch parameters; a proof
		// under different parameters cannot share them.
		if !admit || p.Params != params || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		proofs[k], recs[k], mhtps[k], sigs[k] = p, p.Tuples, p.MHT, p.RootSig
	}
	if ref == nil {
		return true
	}
	onParse := func(c *batchSlot, rest []byte) (int, error) {
		payload, units, n, err := landmark.DecodePayloadAppend(rest, params.C, params.Bits, b.units)
		b.units = units
		c.payload = payload
		return n, err
	}
	if !b.auditNetwork(v, ldmSigCtx(params), ref.Alg, recs, mhtps, sigs, verdicts, onParse) {
		return false
	}
	for k, p := range proofs {
		if !b.live[k] {
			continue
		}
		it := sel[k]
		b.resolver.Reset(params)
		err := b.view(k, len(p.Tuples), func(c *batchSlot) { b.resolver.Add(c.tuple.ID, c.payload) })
		if err == nil {
			b.resolver.Resolve(b.tab.lookup)
			err = verifyLDMSearch(&b.search, &b.tab, &b.resolver, it.VS, it.VT, p)
		}
		if err != nil {
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
	b.resetFor(len(sel))
	proofs := make([]*FULLProof, len(sel))
	recs := make([][]tupleRecord, len(sel))
	mhtps := make([]*mht.Proof, len(sel))
	sigs := make([][]byte, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*FULLProof)
		if !ok || p == nil || p.DistVO == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		proofs[k] = p
	}
	// Distance forest: reconstruct each proof's row locally, then audit the
	// shared top tree over the merged row roots.
	b.audit.reset()
	for k, p := range proofs {
		if !b.live[k] {
			continue
		}
		it := sel[k]
		i, j := p.DistVO.Entry.Key.Split()
		li, rowRoot, err := p.DistVO.RowLeaf()
		if graph.NodeID(i) != it.VS || graph.NodeID(j) != it.VT || err != nil {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		b.known2 = append(b.known2, mht.Leaf{Index: uint32(li), Digest: rowRoot})
		b.lists2[k] = append(b.lists2[k], uint32(li))
		b.audit.add(k, p.DistVO.Top, b.lists2[k], p.DistSig)
	}
	known2, _, ok := mht.SortLeaves(b.known2)
	if !ok {
		return false // two proofs disagree about one row root
	}
	if !b.auditShared(v, fullDistCtx, known2, &b.audit, verdicts, b.withdraw) {
		return false
	}
	// Network tree over the path tuples.
	for k, p := range proofs {
		if b.live[k] {
			recs[k], mhtps[k], sigs[k] = p.Tuples, p.MHT, p.NetSig
		}
	}
	if ref == nil {
		return true
	}
	if !b.auditNetwork(v, fullNetCtx, ref.Alg, recs, mhtps, sigs, verdicts, nil) {
		return false
	}
	for k, p := range proofs {
		if !b.live[k] {
			continue
		}
		it := sel[k]
		if b.view(k, len(p.Tuples), nil) != nil {
			verdicts[k] = errRetry
			continue
		}
		claimed, err := checkClaimedPath(&b.tab, p.Path, it.VS, it.VT, p.Dist)
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
	b.resetFor(len(sel))
	proofs := make([]*HYPProof, len(sel))
	recs := make([][]tupleRecord, len(sel))
	mhtps := make([]*mht.Proof, len(sel))
	sigs := make([][]byte, len(sel))
	var ref *mht.Proof
	for k, it := range sel {
		p, ok := it.Proof.(*HYPProof)
		if !ok || p == nil || p.MHT == nil || !sameShape(&ref, p.MHT) {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		proofs[k], recs[k], mhtps[k], sigs[k] = p, p.Tuples, p.MHT, p.NetSig
	}
	if ref == nil {
		return true
	}
	onParse := func(c *batchSlot, rest []byte) (int, error) {
		cell, isBorder, err := hiti.DecodeExtra(rest)
		if err != nil {
			return 0, err
		}
		c.hmeta = hypMeta{cell: cell, isBorder: isBorder}
		return hiti.ExtraSize, nil
	}
	if !b.auditNetwork(v, hypNetCtx, ref.Alg, recs, mhtps, sigs, verdicts, onParse) {
		return false
	}
	// Hyper-edge tree: merged audit over the proofs that carry one (a proof
	// without hyper-edges has nothing to authenticate here, exactly like the
	// per-proof verifier).
	b.audit.reset()
	var hyperRef *mht.Proof
	for k, p := range proofs {
		if !b.live[k] || p.Hyper == nil {
			continue
		}
		if p.Hyper.MHT == nil || !sameShape(&hyperRef, p.Hyper.MHT) {
			verdicts[k] = errRetry
			b.live[k] = false
			continue
		}
		b.known2, b.arena2 = p.Hyper.AppendLeafDigests(b.known2, b.arena2)
		for _, e := range p.Hyper.Entries {
			b.lists2[k] = append(b.lists2[k], e.Index)
		}
		slices.Sort(b.lists2[k])
		b.lists2[k] = slices.Compact(b.lists2[k])
		b.audit.add(k, p.Hyper.MHT, b.lists2[k], p.DistSig)
	}
	known2, _, ok := mht.SortLeaves(b.known2)
	if !ok {
		return false // conflicting hyper-edge entries across proofs
	}
	if !b.auditShared(v, hypDistCtx, known2, &b.audit, verdicts, b.withdraw) {
		return false
	}
	for k, p := range proofs {
		if !b.live[k] {
			continue
		}
		it := sel[k]
		b.meta = b.meta[:0]
		err := b.view(k, len(p.Tuples), func(c *batchSlot) { b.meta = append(b.meta, c.hmeta) })
		b.hyper = b.hyper[:0]
		if p.Hyper != nil {
			b.hyper.fill(p.Hyper.Entries)
		}
		if err != nil || verifyHYPSearch(&b.cellS, &b.cellT, &b.tab, b.meta, b.hyper, it.VS, it.VT, p) != nil {
			verdicts[k] = errRetry
		}
	}
	return true
}
