package core

import (
	"fmt"
	"testing"

	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/workload"
)

// Per-layer benchmarks for client verification: wire decode plus verify of
// one proof ("single", cycling eight proofs) and of one eight-item shared
// batch ("batch8", decode plus VerifyBatch), per method:
//
//	go test ./internal/core -run '^$' -bench 'ClientVerify' -benchmem
//
// DIJ, LDM and HYP proofs come from the 3000-node benchmark world with 16
// HiTi cells and carry at least minBenchTuples tuples each, the size of a
// cold long-range answer. FULL proofs carry only the path's tuples, so
// FULL runs on a 400-node world (its outsourcing is quadratic).

const minBenchTuples = 500

// verifyBenchSet is one method's eight encoded proofs and their batch.
type verifyBenchSet struct {
	m      Method
	v      SigVerifier
	items  []BatchItem
	wires  [][]byte
	batch  []byte
	tuples int // mean tuples per proof
}

func benchVerifySets(b *testing.B) []verifyBenchSet {
	b.Helper()
	g, err := netgen.Synthesize(3000, 3600, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cells = 16
	owner, err := NewOwner(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(g, 96, 16000, 11)
	if err != nil {
		b.Fatal(err)
	}
	small, err := netgen.Synthesize(400, 480, 7)
	if err != nil {
		b.Fatal(err)
	}
	smallOwner, err := NewOwner(small, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	smallQs, err := workload.Generate(small, 8, 2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	var sets []verifyBenchSet
	for _, m := range []Method{DIJ, LDM, HYP, FULL} {
		o, pool, need := owner, qs, minBenchTuples
		if m == FULL {
			o, pool, need = smallOwner, smallQs, 0
		}
		p, err := o.Outsource(m)
		if err != nil {
			b.Fatal(err)
		}
		set := verifyBenchSet{m: m, v: o.Verifier()}
		for _, q := range pool {
			if len(set.items) == 8 {
				break
			}
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				b.Fatal(err)
			}
			n := pr.Stats().SItems
			if m == FULL {
				n = pr.Stats().TItems
			}
			if n < need {
				continue
			}
			set.tuples += n
			set.items = append(set.items, BatchItem{VS: q.S, VT: q.T, Proof: pr})
			set.wires = append(set.wires, pr.AppendBinary(nil))
		}
		if len(set.items) < 8 {
			b.Fatalf("%s: only %d proofs with ≥%d tuples", m, len(set.items), need)
		}
		set.tuples /= len(set.items)
		if set.batch, err = AppendProofBatch(nil, m, set.items); err != nil {
			b.Fatal(err)
		}
		sets = append(sets, set)
	}
	return sets
}

func BenchmarkClientVerify(b *testing.B) {
	for _, s := range benchVerifySets(b) {
		s := s
		b.Run(fmt.Sprintf("%s/single", s.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(s.wires)
				pr, _, err := DecodeProof(s.m, s.wires[k])
				if err != nil {
					b.Fatal(err)
				}
				if err := VerifyProof(s.v, s.m, s.items[k].VS, s.items[k].VT, pr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.tuples), "tuples/proof")
		})
		b.Run(fmt.Sprintf("%s/batch8", s.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pb, _, err := DecodeProofBatch(s.batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, err := range VerifyBatch(s.v, s.m, pb.Items()) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(s.tuples), "tuples/proof")
		})
	}
}
