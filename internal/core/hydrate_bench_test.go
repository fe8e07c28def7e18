package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/workload"
)

// Per-layer benchmarks for replica cold start, snapshot persistence and
// HYP outsourcing, so a profile (-cpuprofile) can target one layer:
//
//	go test ./internal/core -run '^$' -bench 'Hydrate|Snapshot|OutsourceHYP' -benchmem

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

// BenchmarkSnapshot times the snapshot path on the standard world (DE at
// scale 0.05, DIJ+LDM+HYP — spvserve's default served set): save streams
// the deployment to a file, eager-load reads, CRC-checks and decodes
// every section, and lazy-open reads only the index and core sections.
func BenchmarkSnapshot(b *testing.B) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var provs []Provider
	for _, m := range []Method{DIJ, LDM, HYP} {
		p, err := owner.Outsource(m)
		if err != nil {
			b.Fatal(err)
		}
		provs = append(provs, p)
	}
	path := filepath.Join(b.TempDir(), "world.spv")
	save := func(b *testing.B) {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := owner.WriteSnapshot(f, provs...); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	save(b)
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			save(b)
		}
	})
	b.Run("eager-load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := OpenProviderSet(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy-open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set, err := OpenProviderSetLazy(path)
			if err != nil {
				b.Fatal(err)
			}
			set.Close()
		}
	})
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
