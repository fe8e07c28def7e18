package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	spv "github.com/authhints/spv"
)

// verifyWire decodes and client-verifies one binary proof, and checks the
// distance header against the proof's own claim.
func verifyWire(v *spv.Verifier, m spv.Method, vs, vt spv.NodeID, wire []byte, distHdr string) error {
	p, n, err := spv.DecodeProof(m, wire)
	if err != nil {
		return fmt.Errorf("decode %s(%d,%d): %w", m, vs, vt, err)
	}
	if n != len(wire) {
		return fmt.Errorf("decode %s(%d,%d): %d trailing bytes", m, vs, vt, len(wire)-n)
	}
	if err := spv.VerifyProof(v, m, vs, vt, p); err != nil {
		return fmt.Errorf("verify %s(%d,%d): %w", m, vs, vt, err)
	}
	_, d := p.Result()
	if hd, err := strconv.ParseFloat(distHdr, 64); err != nil || hd != d {
		return fmt.Errorf("%s(%d,%d): header distance %q, proof claims %v", m, vs, vt, distHdr, d)
	}
	return nil
}

// response is one retained read answer: a binary proof for a single
// query, or the JSON body of a /batch.
type response struct {
	Body []byte
	Dist string // X-Spv-Dist of a single answer
}

// checker verifies retained answers after the window, off the clock.
// Identical bytes for the same request verify once and share the verdict.
type checker struct {
	v     *spv.Verifier
	truth map[[2]spv.NodeID]float64 // nil: no ground-truth check
	// first wire hash per key, for the byte-identity check
	first   map[spv.ServeQuery][32]byte
	verdict map[[32]byte]error

	Verified int      // answers checked
	Rejected int      // answers that failed a check
	Errs     []string // first few rejection messages
	// VerifyNs holds, per method, the decode+verify time of the first
	// proof seen for each key (batch items amortised). Timing keys rather
	// than distinct proofs keeps the hot keys an update re-proves many
	// times from dominating the figure.
	VerifyNs   map[spv.Method][]float64
	timed      map[spv.ServeQuery]bool
	ProofBytes []float64 // wire bytes per answered query (batch blobs amortised)
}

func newChecker(v *spv.Verifier, s spec, in *inputs) *checker {
	c := &checker{v: v, verdict: make(map[[32]byte]error), first: make(map[spv.ServeQuery][32]byte),
		VerifyNs: make(map[spv.Method][]float64), timed: make(map[spv.ServeQuery]bool)}
	if s.CheckTruth {
		c.truth = make(map[[2]spv.NodeID]float64, len(in.Pairs))
		for _, p := range in.Pairs {
			c.truth[[2]spv.NodeID{p.S, p.T}] = p.Dist
		}
	}
	return c
}

// verifyMs is the mix-weighted mean of the per-method median verify
// times, in ms. Per-method medians shrug off the checker's own GC pauses;
// weighting by the mix keeps the figure off the boundary between methods
// whose costs differ by 2×, where a plain median would jump.
func (c *checker) verifyMs() float64 {
	var sum, w float64
	for _, ms := range mix {
		if xs := c.VerifyNs[ms.M]; len(xs) > 0 {
			sum += float64(ms.W) * median(xs)
			w += float64(ms.W)
		}
	}
	return sum / w / 1e6
}

func (c *checker) reject(err error) {
	c.Rejected++
	if len(c.Errs) < 5 {
		c.Errs = append(c.Errs, err.Error())
	}
}

// check verifies one answered request; sample says whether to record its
// bytes and timings toward the metrics.
func (c *checker) check(r request, resp response, sample bool) {
	c.Verified++
	var err error
	if r.batch() {
		err = c.checkBatch(r, resp.Body, sample)
	} else {
		err = c.checkSingle(r[0], resp, sample)
	}
	if err != nil {
		c.reject(err)
	}
}

func (c *checker) checkSingle(q spv.ServeQuery, resp response, sample bool) error {
	if sample {
		c.ProofBytes = append(c.ProofBytes, float64(len(resp.Body)))
	}
	h := sha256.Sum256(append(resp.Body, resp.Dist...))
	err, seen := c.verdict[h]
	if !seen {
		start := time.Now()
		err = verifyWire(c.v, q.Method, q.VS, q.VT, resp.Body, resp.Dist)
		if sample && !c.timed[q] {
			c.timed[q] = true
			c.VerifyNs[q.Method] = append(c.VerifyNs[q.Method], float64(time.Since(start)))
		}
		if err == nil {
			err = c.checkTruth(q, resp.Body)
		}
		c.verdict[h] = err
	}
	if err != nil {
		return err
	}
	return c.checkIdentity(q, sha256.Sum256(resp.Body))
}

// checkTruth compares the proof's verified distance with the pool's
// ground truth (relative 1e-9: methods sum path weights in different
// orders).
func (c *checker) checkTruth(q spv.ServeQuery, wire []byte) error {
	if c.truth == nil {
		return nil
	}
	p, _, err := spv.DecodeProof(q.Method, wire)
	if err != nil {
		return err
	}
	_, d := p.Result()
	want, ok := c.truth[[2]spv.NodeID{q.VS, q.VT}]
	if !ok || math.Abs(d-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("%s(%d,%d): verified distance %v, ground truth %v", q.Method, q.VS, q.VT, d, want)
	}
	return nil
}

// checkIdentity requires every answer for a key to be byte-identical to
// the first (only meaningful while no update changes the network).
func (c *checker) checkIdentity(q spv.ServeQuery, h [32]byte) error {
	if c.truth == nil {
		return nil
	}
	if f, ok := c.first[q]; !ok {
		c.first[q] = h
	} else if f != h {
		return fmt.Errorf("%s(%d,%d): repeated key returned different proof bytes", q.Method, q.VS, q.VT)
	}
	return nil
}

// batchReply is the /batch JSON with "encoding":"shared".
type batchReply struct {
	Answers []struct {
		Method spv.Method `json:"method"`
		VS     spv.NodeID `json:"vs"`
		VT     spv.NodeID `json:"vt"`
		Dist   float64    `json:"dist"`
		Error  string     `json:"error"`
	} `json:"answers"`
	Batches []struct {
		Method spv.Method `json:"method"`
		Items  []int      `json:"items"`
		Batch  []byte     `json:"batch"`
	} `json:"proof_batches"`
}

func (c *checker) checkBatch(r request, body []byte, sample bool) error {
	var rep batchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("batch reply: %w", err)
	}
	if len(rep.Answers) != len(r) {
		return fmt.Errorf("batch of %d got %d answers", len(r), len(rep.Answers))
	}
	covered := make([]bool, len(r))
	for _, b := range rep.Batches {
		h := sha256.Sum256(b.Batch)
		err, seen := c.verdict[h]
		if !seen {
			start := time.Now()
			err = c.verifyBlob(r, b.Method, b.Items, b.Batch, rep)
			if sample && len(b.Items) > 0 {
				per := float64(time.Since(start)) / float64(len(b.Items))
				for _, i := range b.Items {
					if i >= 0 && i < len(r) && !c.timed[r[i]] {
						c.timed[r[i]] = true
						c.VerifyNs[b.Method] = append(c.VerifyNs[b.Method], per)
					}
				}
			}
			c.verdict[h] = err
		}
		if err != nil {
			return err
		}
		for _, i := range b.Items {
			covered[i] = true
			if sample {
				c.ProofBytes = append(c.ProofBytes, float64(len(b.Batch))/float64(len(b.Items)))
			}
		}
	}
	for i, a := range rep.Answers {
		if a.Error != "" || !covered[i] {
			return fmt.Errorf("batch item %d (%s %d→%d): unanswered: %s", i, a.Method, a.VS, a.VT, a.Error)
		}
	}
	return nil
}

// verifyBlob decodes one shared-encoding blob and batch-verifies it,
// checking every item against the query that asked for it.
func (c *checker) verifyBlob(r request, m spv.Method, idx []int, blob []byte, rep batchReply) error {
	pb, n, err := spv.DecodeProofBatch(blob)
	if err != nil || n != len(blob) {
		return fmt.Errorf("decode %s batch blob: %v (%d of %d bytes)", m, err, n, len(blob))
	}
	items := pb.Items()
	if pb.Method != m || len(items) != len(idx) {
		return fmt.Errorf("%s blob holds %d %s items for %d answers", m, len(items), pb.Method, len(idx))
	}
	for k, it := range items {
		i := idx[k]
		if i < 0 || i >= len(r) {
			return fmt.Errorf("%s blob names answer %d of %d", m, i, len(r))
		}
		q := r[i]
		if q.Method != m || it.VS != q.VS || it.VT != q.VT {
			return fmt.Errorf("%s blob item %d answers %d→%d, asked %s %d→%d", m, k, it.VS, it.VT, q.Method, q.VS, q.VT)
		}
		if _, d := it.Proof.Result(); d != rep.Answers[i].Dist {
			return fmt.Errorf("%s(%d,%d): answer distance %v, proof claims %v", m, q.VS, q.VT, rep.Answers[i].Dist, d)
		}
	}
	for k, verr := range spv.VerifyBatch(c.v, m, items) {
		if verr != nil {
			return fmt.Errorf("batch-verify %s(%d,%d): %w", m, items[k].VS, items[k].VT, verr)
		}
	}
	if c.truth == nil {
		return nil
	}
	for k, it := range items {
		q := r[idx[k]]
		wire := it.Proof.AppendBinary(nil)
		if err := c.checkTruth(q, wire); err != nil {
			return err
		}
		if err := c.checkIdentity(q, sha256.Sum256(wire)); err != nil {
			return err
		}
	}
	return nil
}
