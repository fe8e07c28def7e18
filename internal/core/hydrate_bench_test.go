package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/workload"
)

// Per-layer benchmarks for replica cold start and HYP outsourcing, so a
// profile (-cpuprofile) can target one layer:
//
//	go test ./internal/core -run '^$' -bench 'Hydrate|OutsourceHYP' -benchmem

// benchOwner builds the benchmark world: a 3000-node synthetic network
// under the default configuration (100 HiTi cells).
func benchOwner(b *testing.B) *Owner {
	b.Helper()
	g, err := netgen.Synthesize(3000, 3600, 7)
	if err != nil {
		b.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return owner
}

// BenchmarkHydrate times one method's replica cold start: a lazy open of
// a DIJ+LDM+HYP snapshot plus the first QueryProof, which hydrates that
// method's section and nothing else.
func BenchmarkHydrate(b *testing.B) {
	owner := benchOwner(b)
	dij, err := owner.OutsourceDIJ()
	if err != nil {
		b.Fatal(err)
	}
	ldm, err := owner.OutsourceLDM()
	if err != nil {
		b.Fatal(err)
	}
	hyp, err := owner.OutsourceHYP()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, ldm, hyp); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "world.spv")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(owner.Graph(), 1, 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	q := qs[0]
	for _, m := range []Method{DIJ, LDM, HYP} {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := OpenProviderSetLazy(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := set.Provider(m).QueryProof(q.S, q.T); err != nil {
					b.Fatal(err)
				}
				set.Close()
			}
		})
	}
}

// BenchmarkOutsourceHYP times the owner-side HYP build: HiTi partition,
// one Dijkstra per border, the hyper-edge Merkle B-tree, the annotated
// network tree and both signatures.
func BenchmarkOutsourceHYP(b *testing.B) {
	owner := benchOwner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.OutsourceHYP(); err != nil {
			b.Fatal(err)
		}
	}
}
