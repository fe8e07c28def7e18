package mht

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/digest"
)

func msgs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("message-%04d", i))
	}
	return out
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(digest.SHA1, 2, nil); err == nil {
		t.Error("empty leaves accepted")
	}
	if _, err := Build(digest.SHA1, 1, [][]byte{digest.SHA1.Sum([]byte("x"))}); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := Build(digest.SHA1, MaxFanout+1, [][]byte{digest.SHA1.Sum([]byte("x"))}); err == nil {
		t.Error("huge fanout accepted")
	}
	if _, err := Build(digest.SHA1, 2, [][]byte{{1, 2, 3}}); err == nil {
		t.Error("short leaf digest accepted")
	}
	if _, err := Build(digest.Alg(99), 2, [][]byte{digest.SHA1.Sum([]byte("x"))}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestSingleLeafTree(t *testing.T) {
	leaf := digest.SHA1.Sum([]byte("only"))
	tr, err := Build(digest.SHA1, 4, [][]byte{leaf})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Root(), leaf) {
		t.Error("single-leaf root should be the leaf digest")
	}
	p, err := tr.Prove([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 {
		t.Errorf("single leaf proof has %d entries, want 0", len(p.Entries))
	}
	root, err := reconstructMap(p, map[int][]byte{0: leaf})
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("reconstruct: %v", err)
	}
}

func TestPaperFigure3Example(t *testing.T) {
	// Figure 3b: 36 leaves, fanout 3, leaf groups h1..h12 of 3 leaves each
	// with h3 = (v31, v32, v33) and h4 = (v41, v42, v43). ΓS = {v32, v33,
	// v42} = leaves {7, 8, 10}. The paper's proof is ΓT = {H(Φ(v31)),
	// H(Φ(v41)), H(Φ(v43)), h1, h2, h5, h6, h18}: 3 leaf digests, 4 level-1
	// digests and 1 level-3 digest (h18) — level 2 contributes nothing
	// because h13, h14 are both reconstructible and grouped together.
	tr, err := BuildFromMessages(digest.SHA1, 3, msgs(36))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Prove([]int{7, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[uint8]int{}
	for _, e := range p.Entries {
		byLevel[e.Level]++
	}
	if byLevel[0] != 3 || byLevel[1] != 4 || byLevel[2] != 0 || byLevel[3] != 1 {
		t.Errorf("per-level entry counts = %v, want map[0:3 1:4 3:1]", byLevel)
	}
	if len(p.Entries) != 8 {
		t.Errorf("%d entries, want 8 (as in the paper's example)", len(p.Entries))
	}
	known := map[int][]byte{
		7:  digest.SHA1.Sum(msgs(36)[7]),
		8:  digest.SHA1.Sum(msgs(36)[8]),
		10: digest.SHA1.Sum(msgs(36)[10]),
	}
	root, err := reconstructMap(p, known)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, tr.Root()) {
		t.Error("reconstructed root mismatch")
	}
}

func TestProveReconstructAllFanouts(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 8, 16, 32} {
		for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
			tr, err := BuildFromMessages(digest.SHA1, fanout, msgs(n))
			if err != nil {
				t.Fatal(err)
			}
			// Prove a few different subsets.
			subsets := [][]int{{0}, {n - 1}, {0, n - 1}, {n / 2}}
			for _, s := range subsets {
				p, err := tr.Prove(s)
				if err != nil {
					t.Fatalf("fanout %d n %d: %v", fanout, n, err)
				}
				known := map[int][]byte{}
				for _, idx := range s {
					known[idx] = tr.Leaf(idx)
				}
				root, err := reconstructMap(p, known)
				if err != nil {
					t.Fatalf("fanout %d n %d subset %v: %v", fanout, n, s, err)
				}
				if !bytes.Equal(root, tr.Root()) {
					t.Fatalf("fanout %d n %d subset %v: root mismatch", fanout, n, s)
				}
			}
		}
	}
}

func TestProveRejectsBadIndices(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(8))
	if _, err := tr.Prove(nil); err == nil {
		t.Error("empty index set accepted")
	}
	if _, err := tr.Prove([]int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := tr.Prove([]int{8}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestProofPropertyRandomSubsets: for random trees and random leaf subsets,
// reconstruction succeeds with exactly the proven leaves and fails when any
// leaf digest is tampered with.
func TestProofPropertyRandomSubsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		fanout := 2 + rng.Intn(15)
		m := msgs(n)
		tr, err := BuildFromMessages(digest.SHA1, fanout, m)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(n)
		idxSet := map[int]bool{}
		for len(idxSet) < k {
			idxSet[rng.Intn(n)] = true
		}
		var indices []int
		for i := range idxSet {
			indices = append(indices, i)
		}
		p, err := tr.Prove(indices)
		if err != nil {
			return false
		}
		known := map[int][]byte{}
		for _, i := range indices {
			known[i] = digest.SHA1.Sum(m[i])
		}
		root, err := reconstructMap(p, known)
		if err != nil || !bytes.Equal(root, tr.Root()) {
			t.Logf("seed %d: reconstruct failed: %v", seed, err)
			return false
		}
		// Tamper with one proven leaf: root must change.
		victim := indices[rng.Intn(len(indices))]
		known[victim] = digest.SHA1.Sum([]byte("tampered"))
		root2, err := reconstructMap(p, known)
		if err == nil && bytes.Equal(root2, tr.Root()) {
			t.Logf("seed %d: tampered leaf reconstructed to same root", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestProofMissingLeafFails: dropping a proven leaf digest must make
// reconstruction fail with ErrIncomplete, not silently succeed. This is the
// defense against a provider that removes ΓS tuples and hides the removal.
func TestProofMissingLeafFails(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 3, msgs(30))
	p, err := tr.Prove([]int{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	known := map[int][]byte{
		4: tr.Leaf(4),
		6: tr.Leaf(6),
		// 5 missing
	}
	if _, err := reconstructMap(p, known); err == nil {
		t.Fatal("reconstruction with missing leaf succeeded")
	}
}

func TestProofEntryTamperFails(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(64))
	p, _ := tr.Prove([]int{10})
	known := map[int][]byte{10: tr.Leaf(10)}
	p.Entries[0].Digest[0] ^= 0xff
	root, err := reconstructMap(p, known)
	if err == nil && bytes.Equal(root, tr.Root()) {
		t.Fatal("tampered proof entry still verified")
	}
}

func TestProofShapeLies(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(20))
	p, _ := tr.Prove([]int{3})
	known := map[int][]byte{3: tr.Leaf(3)}

	lie := *p
	lie.NumLeaves = 40
	if root, err := reconstructMap(&lie, known); err == nil && bytes.Equal(root, tr.Root()) {
		t.Error("leaf-count lie produced matching root")
	}
	lie2 := *p
	lie2.Fanout = 4
	if root, err := reconstructMap(&lie2, known); err == nil && bytes.Equal(root, tr.Root()) {
		t.Error("fanout lie produced matching root")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA256, 4, msgs(77))
	p, _ := tr.Prove([]int{0, 12, 76})
	enc := p.AppendBinary(nil)
	if len(enc) != p.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize %d", len(enc), p.EncodedSize())
	}
	dec, n, err := DecodeProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d, want %d", n, len(enc))
	}
	if dec.Alg != p.Alg || dec.Fanout != p.Fanout || dec.NumLeaves != p.NumLeaves || len(dec.Entries) != len(p.Entries) {
		t.Fatal("header round-trip mismatch")
	}
	for i := range dec.Entries {
		if dec.Entries[i].Level != p.Entries[i].Level ||
			dec.Entries[i].Index != p.Entries[i].Index ||
			!bytes.Equal(dec.Entries[i].Digest, p.Entries[i].Digest) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	known := map[int][]byte{0: tr.Leaf(0), 12: tr.Leaf(12), 76: tr.Leaf(76)}
	root, err := reconstructMap(dec, known)
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("decoded proof does not verify: %v", err)
	}
}

func TestDecodeProofTruncated(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(16))
	p, _ := tr.Prove([]int{5})
	enc := p.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut += 3 {
		if _, _, err := DecodeProof(enc[:cut]); err == nil {
			t.Errorf("truncated proof (%d bytes) decoded", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99 // unknown algorithm
	if _, _, err := DecodeProof(bad); err == nil {
		t.Error("unknown algorithm decoded")
	}
}

// TestProofMinimality: proof entries never overlap proven leaves' ancestor
// paths, and sibling sets are complete — i.e. the entry set is exactly the
// boundary. We verify the defining conditions rather than sizes.
func TestProofMinimality(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 3, msgs(81))
	indices := []int{0, 1, 40, 41, 80}
	p, _ := tr.Prove(indices)

	covered := map[[2]uint32]bool{}
	for _, idx := range indices {
		pos := idx
		for l := 0; l < tr.Height(); l++ {
			covered[[2]uint32{uint32(l), uint32(pos)}] = true
			if l+1 < tr.Height() {
				pos = groupLevel(len(tr.levels[l]), tr.Fanout()).parentOf(pos)
			}
		}
	}
	for _, e := range p.Entries {
		if covered[[2]uint32{uint32(e.Level), e.Index}] {
			t.Errorf("entry (%d,%d) overlaps a proven subtree", e.Level, e.Index)
		}
		grp := groupLevel(len(tr.levels[e.Level]), tr.Fanout())
		parent := [2]uint32{uint32(e.Level) + 1, uint32(grp.parentOf(int(e.Index)))}
		if !covered[parent] {
			t.Errorf("entry (%d,%d) has unproven parent: not minimal", e.Level, e.Index)
		}
	}
}

func TestFanoutAffectsProofSize(t *testing.T) {
	// Larger fanout ⇒ more sibling digests per level ⇒ larger proofs
	// (Fig 11a's mechanism). Verify monotonicity for a single leaf.
	m := msgs(4096)
	var prev int
	for i, fanout := range []int{2, 4, 8, 16, 32} {
		tr, _ := BuildFromMessages(digest.SHA1, fanout, m)
		p, _ := tr.Prove([]int{2048})
		size := p.EncodedSize()
		if i > 0 && size <= prev {
			t.Errorf("fanout %d proof size %d not larger than previous %d", fanout, size, prev)
		}
		prev = size
	}
}

func TestSHA256TreeWorks(t *testing.T) {
	tr, err := BuildFromMessages(digest.SHA256, 2, msgs(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root()) != 32 {
		t.Errorf("SHA-256 root has %d bytes", len(tr.Root()))
	}
	p, _ := tr.Prove([]int{7})
	root, err := reconstructMap(p, map[int][]byte{7: tr.Leaf(7)})
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("sha256 reconstruct failed: %v", err)
	}
}

// referenceReconstruct is the original top-down, map-per-level
// reconstruction, kept as the oracle the bottom-up kernel is tested
// against: same root, or an error of the same class (ErrIncomplete or
// not).
func referenceReconstruct(p *Proof, known map[int][]byte) ([]byte, error) {
	if !p.Alg.Valid() {
		return nil, fmt.Errorf("mht: invalid algorithm %d in proof", p.Alg)
	}
	fanout := int(p.Fanout)
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: invalid fanout %d in proof", fanout)
	}
	n := int(p.NumLeaves)
	if n <= 0 {
		return nil, errors.New("mht: invalid leaf count in proof")
	}
	size := p.Alg.Size()
	var widths []int
	for w := n; ; w = groupLevel(w, fanout).groups {
		widths = append(widths, w)
		if w == 1 {
			break
		}
	}
	have := make([]map[uint32][]byte, len(widths))
	for l := range have {
		have[l] = make(map[uint32][]byte)
	}
	for idx, d := range known {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("mht: known leaf %d out of range", idx)
		}
		if len(d) != size {
			return nil, fmt.Errorf("mht: known leaf %d digest size %d, want %d", idx, len(d), size)
		}
		have[0][uint32(idx)] = d
	}
	for _, e := range p.Entries {
		if int(e.Level) >= len(widths) || int(e.Index) >= widths[e.Level] {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) outside tree shape", e.Level, e.Index)
		}
		if len(e.Digest) != size {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) digest size %d, want %d", e.Level, e.Index, len(e.Digest), size)
		}
		if prev, dup := have[e.Level][e.Index]; dup && !bytes.Equal(prev, e.Digest) {
			return nil, fmt.Errorf("mht: conflicting digests at (%d,%d)", e.Level, e.Index)
		}
		have[e.Level][e.Index] = e.Digest
	}
	var compute func(level int, index uint32) ([]byte, error)
	compute = func(level int, index uint32) ([]byte, error) {
		if d, ok := have[level][index]; ok {
			return d, nil
		}
		if level == 0 {
			return nil, fmt.Errorf("%w: missing leaf %d", ErrIncomplete, index)
		}
		childLevel := level - 1
		first, last := groupLevel(widths[childLevel], fanout).childRange(int(index))
		h := p.Alg.New()
		for c := first; c < last; c++ {
			d, err := compute(childLevel, uint32(c))
			if err != nil {
				return nil, err
			}
			h.Write(d)
		}
		d := h.Sum(nil)
		have[level][index] = d
		return d, nil
	}
	return compute(len(widths)-1, 0)
}

// reconstructMap runs the kernel on a map of known leaves, sorted into the
// ascending leaf list it takes.
func reconstructMap(p *Proof, known map[int][]byte) ([]byte, error) {
	return Reconstruct(p, sortedLeaves(known))
}

func sortedLeaves(known map[int][]byte) []Leaf {
	leaves := make([]Leaf, 0, len(known))
	for i, d := range known {
		leaves = append(leaves, Leaf{Index: uint32(i), Digest: d})
	}
	slices.SortFunc(leaves, func(a, b Leaf) int { return cmp.Compare(a.Index, b.Index) })
	return leaves
}

// reconstructCase builds a random tree (fanout 2–16, 1–2000 leaves), an
// honest proof for a random leaf subset, and then applies nmut random
// mutations to the proof and the known leaves: dropped, duplicated,
// conflicting, out-of-shape, wrongly sized and redundant interior entries,
// dropped, extra and tampered known leaves, shuffled entry order and
// shape lies.
func reconstructCase(rng *rand.Rand, fanout, n, nmut int) (*Proof, map[int][]byte) {
	tr, err := BuildFromMessages(digest.SHA1, fanout, msgs(n))
	if err != nil {
		panic(err)
	}
	var subset []int
	for i := 0; i < n; i++ {
		if rng.Intn(n) < 1+rng.Intn(8) {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		subset = []int{rng.Intn(n)}
	}
	p, err := tr.Prove(subset)
	if err != nil {
		panic(err)
	}
	known := make(map[int][]byte, len(subset))
	for _, i := range subset {
		known[i] = tr.Leaf(i)
	}
	node := func() (uint8, uint32) {
		l := rng.Intn(tr.Height())
		return uint8(l), uint32(rng.Intn(len(tr.levels[l])))
	}
	junk := func() []byte { return digest.SHA1.Sum([]byte{byte(rng.Intn(256)), 7}) }
	for k := 0; k < nmut; k++ {
		switch rng.Intn(12) {
		case 0: // drop an entry
			if len(p.Entries) > 0 {
				i := rng.Intn(len(p.Entries))
				p.Entries = append(p.Entries[:i:i], p.Entries[i+1:]...)
			}
		case 1: // duplicate an entry
			if len(p.Entries) > 0 {
				p.Entries = append(p.Entries, p.Entries[rng.Intn(len(p.Entries))])
			}
		case 2: // conflicting duplicate
			if len(p.Entries) > 0 {
				e := p.Entries[rng.Intn(len(p.Entries))]
				e.Digest = junk()
				p.Entries = append(p.Entries, e)
			}
		case 3: // out-of-shape entry
			l, i := node()
			if rng.Intn(2) == 0 {
				l = uint8(tr.Height() + rng.Intn(3))
			} else {
				i = uint32(len(tr.levels[l]) + rng.Intn(3))
			}
			p.Entries = append(p.Entries, Entry{Level: l, Index: i, Digest: junk()})
		case 4: // redundant genuine entry anywhere, interior included
			l, i := node()
			p.Entries = append(p.Entries, Entry{Level: l, Index: i, Digest: tr.levels[l][i]})
		case 5: // redundant wrong entry anywhere
			l, i := node()
			p.Entries = append(p.Entries, Entry{Level: l, Index: i, Digest: junk()})
		case 6: // drop a known leaf
			for i := range known {
				delete(known, i)
				break
			}
		case 7: // extra genuine known leaf
			i := rng.Intn(n)
			known[i] = tr.Leaf(i)
		case 8: // tampered known leaf
			known[rng.Intn(n)] = junk()
		case 9: // wrongly sized entry
			if len(p.Entries) > 0 {
				p.Entries[rng.Intn(len(p.Entries))].Digest = []byte{1, 2, 3}
			}
		case 10: // shuffled entry order
			rng.Shuffle(len(p.Entries), func(i, j int) { p.Entries[i], p.Entries[j] = p.Entries[j], p.Entries[i] })
		case 11: // shape lie
			if rng.Intn(2) == 0 {
				p.NumLeaves = uint32(1 + rng.Intn(2*n+2))
			} else {
				p.Fanout = uint16(rng.Intn(18))
			}
		}
	}
	return p, known
}

// checkAgainstReference requires the kernel and the reference to agree:
// the same root, or errors of the same class.
func checkAgainstReference(t *testing.T, p *Proof, known map[int][]byte) {
	t.Helper()
	want, wantErr := referenceReconstruct(p, known)
	got, gotErr := reconstructMap(p, known)
	switch {
	case wantErr == nil && gotErr == nil:
		if !bytes.Equal(got, want) {
			t.Fatalf("roots differ: kernel %x, reference %x", got, want)
		}
	case wantErr != nil && gotErr != nil:
		if errors.Is(gotErr, ErrIncomplete) != errors.Is(wantErr, ErrIncomplete) {
			t.Fatalf("error classes differ: kernel %v, reference %v", gotErr, wantErr)
		}
	default:
		t.Fatalf("verdicts differ: kernel (%x, %v), reference (%x, %v)", got, gotErr, want, wantErr)
	}
}

// TestReconstructMatchesReference is the differential test of the
// bottom-up kernel against the top-down reference over random shapes,
// leaf subsets and proof mutations.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iters := 600
	if testing.Short() {
		iters = 150
	}
	for it := 0; it < iters; it++ {
		fanout := 2 + rng.Intn(15)
		n := 1 + rng.Intn(2000)
		if it%3 == 0 {
			n = 1 + rng.Intn(40) // small trees reach the root-level corner cases
		}
		p, known := reconstructCase(rng, fanout, n, rng.Intn(4))
		checkAgainstReference(t, p, known)
	}
}

// BenchmarkReconstruct times root reconstruction for a 500-leaf random
// subset of a 14k-leaf fanout-2 tree, the shape of a cold long-range DIJ
// proof: the kernel on one reused Reconstructor, and the top-down
// reference for comparison.
func BenchmarkReconstruct(b *testing.B) {
	const n = 14434
	tr, err := BuildFromMessages(digest.SHA1, 2, msgs(n))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	start := rng.Intn(n - 4000)
	var subset []int
	for len(subset) < 500 {
		subset = append(subset, start+rng.Intn(4000))
	}
	p, err := tr.Prove(subset)
	if err != nil {
		b.Fatal(err)
	}
	known := map[int][]byte{}
	for _, i := range subset {
		known[i] = tr.Leaf(i)
	}
	leaves := sortedLeaves(known)
	b.Run("bottom-up", func(b *testing.B) {
		var r Reconstructor
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root, err := r.Root(p, leaves)
			if err != nil || !bytes.Equal(root, tr.Root()) {
				b.Fatalf("reconstruct: %v", err)
			}
		}
	})
	b.Run("top-down-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root, err := referenceReconstruct(p, known)
			if err != nil || !bytes.Equal(root, tr.Root()) {
				b.Fatalf("reconstruct: %v", err)
			}
		}
	})
}
