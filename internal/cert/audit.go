package cert

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mht"
)

// unreachable mirrors sp.Unreachable: the distance label stored for nodes
// a source cannot reach. Anything at or above it is treated as +∞.
const unreachable = math.MaxFloat64

// distTolerance mirrors core's verification tolerance: distances are sums
// of float64 edge weights, and two bit-exactly-different evaluation orders
// may differ in the final ulps. Same constant, same comparison.
const distTolerance = 1e-9

func distEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	limit := distTolerance * (1 + a)
	if a < b {
		limit = distTolerance * (1 + b)
	}
	return diff <= limit
}

// Scratch is the audit's pooled working memory: parent-edge coverage
// marks, forest-walk states, and an encode buffer for row hashing. One
// scratch serves an entire audit; reuse across rows never re-allocates
// once grown to the node count.
type Scratch struct {
	seen  []bool  // parent edge of node v witnessed in the edge pass
	state []uint8 // parent-forest walk: 0 unvisited, 1 on path, 2 done
	buf   []byte  // canonical row encoding scratch for hashing
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a pooled scratch; pass it back via
// ReleaseScratch when the audit completes.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns s to the pool.
func ReleaseScratch(s *Scratch) { scratchPool.Put(s) }

func (s *Scratch) reset(n int) {
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
		s.state = make([]uint8, n)
	}
	s.seen = s.seen[:n]
	s.state = s.state[:n]
	clear(s.seen)
	clear(s.state)
}

// AuditRow checks that row is the true shortest-path labelling from
// row.Src over g, in one pass over the edges (O(V+E), no Dijkstra):
//
//  1. d[src] = 0, parent[src] = Invalid; every d finite-or-∞, never
//     negative or NaN; every reachable non-source has an in-range parent,
//     every unreachable node has none.
//  2. For every directed edge (u,v,w): d[v] ≤ d[u] + w (triangle), and
//     where parent[v] = u the edge is tight (d[v] = d[u] + w).
//  3. Every claimed parent edge actually occurred in the scan, and the
//     parent forest is acyclic (zero-weight edges are legal, so tightness
//     alone does not rule out a zero-weight parent cycle).
//
// Soundness: (2) makes every d[v] a lower bound on no path and an upper
// bound via the tight parent chain, so with (1) and (3) d equals the true
// distance labelling exactly (up to the shared float tolerance).
func AuditRow(g *graph.Graph, row *Row, s *Scratch) error {
	n := g.NumNodes()
	if len(row.Dists) != n || len(row.Parents) != n {
		return fmt.Errorf("%w: row has %d dists / %d parents, want %d",
			ErrEncoding, len(row.Dists), len(row.Parents), n)
	}
	if row.Src < 0 || int(row.Src) >= n {
		return fmt.Errorf("%w: row source %d out of range", ErrEncoding, row.Src)
	}
	d, p := row.Dists, row.Parents
	src := row.Src
	if d[src] != 0 {
		return fmt.Errorf("%w: d[src=%d] = %g, want 0", ErrDistance, src, d[src])
	}
	if p[src] != graph.Invalid {
		return fmt.Errorf("%w: source %d has parent %d", ErrParent, src, p[src])
	}
	for v := 0; v < n; v++ {
		dv := d[v]
		if math.IsNaN(dv) || dv < 0 {
			return fmt.Errorf("%w: d[%d] = %g", ErrDistance, v, dv)
		}
		pv := p[v]
		if dv >= unreachable {
			if pv != graph.Invalid {
				return fmt.Errorf("%w: unreachable node %d has parent %d", ErrParent, v, pv)
			}
			continue
		}
		if graph.NodeID(v) == src {
			continue
		}
		if pv == graph.Invalid {
			return fmt.Errorf("%w: reachable node %d has no parent", ErrParent, v)
		}
		if pv < 0 || int(pv) >= n {
			return fmt.Errorf("%w: node %d parent %d out of range", ErrParent, v, pv)
		}
	}
	s.reset(n)
	// The single edge pass: each directed half of every undirected edge is
	// visited exactly once — O(1) amortized work per edge.
	for u := 0; u < n; u++ {
		du := d[u]
		uReach := du < unreachable
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			v := e.To
			if uReach {
				duw := du + e.W
				if dv := d[v]; dv > duw && !distEqual(dv, duw) {
					return fmt.Errorf("%w: triangle violation d[%d]=%g > d[%d]+w=%g",
						ErrDistance, v, dv, u, duw)
				}
			}
			if p[v] == graph.NodeID(u) {
				if !uReach {
					return fmt.Errorf("%w: node %d parented to unreachable %d", ErrParent, v, u)
				}
				if !distEqual(d[v], du+e.W) {
					return fmt.Errorf("%w: parent edge (%d,%d) not tight: d[%d]=%g, d[%d]+w=%g",
						ErrParent, u, v, v, d[v], u, du+e.W)
				}
				s.seen[v] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == src || d[v] >= unreachable {
			continue
		}
		if !s.seen[v] {
			return fmt.Errorf("%w: parent edge (%d,%d) is not in the graph", ErrParent, p[v], v)
		}
	}
	// Parent-forest acyclicity: follow each chain once, marking the path
	// in-progress (1) and finalizing it (2) — O(n) total.
	for v := 0; v < n; v++ {
		if s.state[v] != 0 {
			continue
		}
		x := graph.NodeID(v)
		for {
			s.state[x] = 1
			nxt := p[x]
			if nxt == graph.Invalid || s.state[nxt] == 2 {
				break
			}
			if s.state[nxt] == 1 {
				return fmt.Errorf("%w: parent cycle through node %d", ErrParent, nxt)
			}
			x = nxt
		}
		x = graph.NodeID(v)
		for s.state[x] == 1 {
			s.state[x] = 2
			if p[x] == graph.Invalid {
				break
			}
			x = p[x]
		}
	}
	return nil
}

// ForEachRow runs fn over row indices 0..n-1 across GOMAXPROCS workers,
// each with its own pooled scratch. Rows are independent (the linear
// pass reads the shared graph and its own row only), so fan-out changes
// wall time, not the verdict: the lowest-index error is returned — the
// same rejection a sequential sweep would produce.
func ForEachRow(n int, fn func(i int, sc *Scratch) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := AcquireScratch()
		defer ReleaseScratch(sc)
		for i := 0; i < n; i++ {
			if err := fn(i, sc); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := AcquireScratch()
			defer ReleaseScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i, sc)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckRowDigest recomputes row's digest over its canonical body and
// compares it to the one the certificate carries.
func CheckRowDigest(alg digest.Alg, row *Row, s *Scratch) error {
	if !bytes.Equal(RowDigest(alg, row, s), row.Digest) {
		return fmt.Errorf("%w: row %d digest mismatch", ErrRowDigest, row.Src)
	}
	return nil
}

// AuditTree folds the stored interior levels of t and compares its root
// to the certificate's. A pass pins every stored digest in t — down to
// the leaves — to the committed root, without touching leaf messages.
func AuditTree(t *mht.Tree, wantRoot []byte, what string) error {
	if err := t.AuditLevels(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrRowDigest, what, err)
	}
	if !bytes.Equal(t.Root(), wantRoot) {
		return fmt.Errorf("%w: %s root differs from certificate", ErrRowDigest, what)
	}
	return nil
}

// SigVerifier verifies owner signatures; satisfied by sig.Verifier.
type SigVerifier interface {
	Verify(msg, signature []byte) error
}

// View is what the audit runs against — implemented by core.ProviderSet.
// AuditMethod dispatches one method slice to that method's audit
// (hydrating a lazily loaded provider touches exactly that method's
// section); AuditCoreDigest recomputes the digest of the core sections, consulting
// only providers named in methods when it needs one.
type View interface {
	AuditEpoch() int64
	AuditMethods() []string
	AuditCoreDigest(alg digest.Alg, methods []string) ([]byte, error)
	AuditMethod(mc *MethodCert, v SigVerifier, s *Scratch) error
}

// MethodResult is one method's audit verdict.
type MethodResult struct {
	Method string
	Err    error
}

// Report is the outcome of one Audit run. Global problems (epoch, core
// digest, malformed certificate) live in Global; per-method verdicts in
// Methods; Uncovered lists methods the view serves that the certificate
// says nothing about (policy for those is the caller's — spvserve's
// -audit-on-load refuses to serve them).
type Report struct {
	Epoch     int64
	Global    error
	Methods   []MethodResult
	Uncovered []string
	// SigErr is the certificate-signature verdict. It is checked last and
	// reported last: the signature covers the whole wire, so any field
	// tamper also breaks it, and reporting it first would mask the
	// specific class.
	SigErr error
}

// Err returns the report's overall verdict: nil iff the audit passed.
// Order matches check order — structural/global first, then the first
// failing method, the certificate signature last.
func (r *Report) Err() error {
	if r.Global != nil {
		return r.Global
	}
	for _, m := range r.Methods {
		if m.Err != nil {
			return fmt.Errorf("%s: %w", m.Method, m.Err)
		}
	}
	return r.SigErr
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Err() == nil }

// Audit checks a loaded snapshot view against certificate c under the
// owner's verifier v, in one linear pass per certified row plus one fold
// per stored Merkle level. It never panics on adversarial certificates;
// every rejection is typed (see the Err* classes). The returned report
// always carries per-method verdicts for whatever could be checked.
func Audit(view View, c *Certificate, v SigVerifier) *Report {
	r := &Report{}
	if c == nil || v == nil {
		r.Global = fmt.Errorf("%w: nil certificate or verifier", ErrEncoding)
		return r
	}
	r.Epoch = c.Epoch
	if !c.Alg.Valid() || len(c.CoreDigest) != c.Alg.Size() {
		r.Global = fmt.Errorf("%w: bad algorithm or core digest size", ErrEncoding)
		return r
	}
	seen := map[string]bool{}
	for i := range c.Methods {
		if seen[c.Methods[i].Method] {
			r.Global = fmt.Errorf("%w: duplicate method slice %q", ErrEncoding, c.Methods[i].Method)
			return r
		}
		seen[c.Methods[i].Method] = true
	}
	for _, m := range view.AuditMethods() {
		if !seen[m] {
			r.Uncovered = append(r.Uncovered, m)
		}
	}
	if got, want := view.AuditEpoch(), c.Epoch; got != want {
		r.Global = fmt.Errorf("%w: snapshot epoch %d, certificate epoch %d", ErrEpochMismatch, got, want)
		return r
	}
	names := c.MethodNames()
	cd, err := view.AuditCoreDigest(c.Alg, names)
	if err != nil {
		r.Global = err
		return r
	}
	if !bytes.Equal(cd, c.CoreDigest) {
		r.Global = fmt.Errorf("%w: core sections (config/graph/ordering) differ from certificate", ErrRowDigest)
		return r
	}
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for i := range c.Methods {
		mc := &c.Methods[i]
		r.Methods = append(r.Methods, MethodResult{
			Method: mc.Method,
			Err:    view.AuditMethod(mc, v, s),
		})
	}
	// Certificate signature, last (see Report.SigErr).
	msg := append(append([]byte(nil), SigContext...), c.SigningBytes()...)
	if err := v.Verify(msg, c.Sig); err != nil {
		r.SigErr = fmt.Errorf("%w: certificate signature: %v", ErrSignature, err)
	}
	return r
}
