package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	spv "github.com/authhints/spv"
)

// checkPass verifies every retained answer of p off the clock with ck
// and books attempts, failures and the cache-bypass guard into res.
// measured says whether p's window feeds proof_kb and verify_ms.
func (e *env) checkPass(ck *checker, p *pass, res *result, measured bool) {
	fails, rejected := 0, ck.Rejected
	for i, o := range p.Outs {
		res.Attempted++
		if !o.OK {
			fails++
			continue
		}
		ck.check(p.Reqs[i], p.Resps[i], measured && i >= p.Measured)
	}
	for _, r := range p.Ladder {
		for i, o := range r.Outs {
			if o.OK && r.Resps[i].Body != nil {
				res.Attempted++
				ck.check(r.Reqs[i], r.Resps[i], false)
			}
		}
	}
	res.Attempted += p.Owner.Attempts
	rejected = ck.Rejected - rejected
	res.Failed += fails + rejected + p.Owner.Failures
	if rejected > 0 {
		res.fail(fmt.Sprintf("%d answers failed verification: %s", rejected, strings.Join(ck.Errs, "; ")))
	}
	if len(p.Owner.Errs) > 0 {
		res.note("owner errors", strings.Join(p.Owner.Errs, "; "))
	}

	keys := distinctKeys(p.Reqs[p.Measured:])
	hit := hitRate(p.Stats0, p.Stats1)
	res.note("cache", fmt.Sprintf("distinct keys offered %d, hit rate %.3f (ceiling %.2f)", keys, hit, e.s.HitCeiling))
	if e.s.HitCeiling > 0 && hit > e.s.HitCeiling {
		res.fail(fmt.Sprintf("cache-bypass guard: hit rate %.3f above ceiling %.2f", hit, e.s.HitCeiling))
	}
	res.note("checked", fmt.Sprintf("%d answers verified so far, %d rejected; window failures %d of %d; owner failures %d of %d",
		ck.Verified, rejected, fails, len(p.Outs), p.Owner.Failures, p.Owner.Attempts))
	res.note("generator", fmt.Sprintf("lateness p50 %.3f ms p99 %.3f ms, conn wait p99 %.3f ms, backlog max %d, grows %v",
		p.Loop.LatenessP50/1e6, p.Loop.LatenessP99/1e6, p.Loop.ConnWaitP99/1e6, p.Loop.BacklogMax, p.Loop.BacklogGrows))
}

func hitRate(a, b spv.ServeStats) float64 {
	q := b.Queries - a.Queries
	if q <= 0 {
		return math.NaN()
	}
	return float64(b.Hits-a.Hits) / float64(q)
}

// latencies returns the measured window's due-to-done latencies in ns,
// split into single queries and batches; failures read +Inf.
func (p *pass) latencies() (single, batch []float64) {
	for i := p.Measured; i < len(p.Outs); i++ {
		if p.Reqs[i].batch() {
			batch = append(batch, p.Outs[i].Latency())
		} else {
			single = append(single, p.Outs[i].Latency())
		}
	}
	return single, batch
}

// acrossRounds is the median over rounds of f(round): each round is a
// fresh server process, so the median damps process-level variation
// (GC pacing, scheduling) that a single longer window would keep.
func acrossRounds(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// latencyQ is the q-quantile of a round's single-query (batch=false) or
// batch latencies.
func latencyQ(batch bool, q float64) func(*pass) float64 {
	return func(p *pass) float64 {
		single, batches := p.latencies()
		if batch {
			return quantile(batches, q)
		}
		return quantile(single, q)
	}
}

// ms converts a latency in ns to ms; a failure (+Inf) reports as the
// request timeout, which exceeds every latency limit.
func ms(ns float64) float64 {
	if math.IsInf(ns, 1) {
		return float64(requestTimeout) / 1e6
	}
	return ns / 1e6
}

// measuredOps returns the owner operations due inside the measured window.
func (p *pass) measuredOps(ops []ownerOp) []ownerOp {
	var out []ownerOp
	for _, op := range ops {
		if op.Due >= warmup && op.Due < warmup+p.Window {
			out = append(out, op)
		}
	}
	return out
}

// opLatencies returns due-to-done latencies in ns.
func opLatencies(ops []ownerOp) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = float64(op.Done - op.Due)
	}
	return out
}

// endToEndCatalogue lists the untraced run's metrics; BENCHMARK.json's
// end_to_end list mirrors it (checked by catalogue_test.go).
var endToEndCatalogue = []layerMetric{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"batch_p50_ms", "ms", "lower"},
	{"proof_kb", "KiB", "lower"},
	{"verify_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// endToEnd computes the end-to-end metrics over the rounds (setup_s is
// added by the caller). The owner-side figures and the failure fraction
// are printed as notes: they are not defined on every workload, or are
// zero on a healthy run, so they cannot be bounded metrics.
func (e *env) endToEnd(ps []*pass, ck *checker) map[string]metric {
	return map[string]metric{
		"query_p50_ms": {ms(acrossRounds(ps, latencyQ(false, 0.50))), "ms"},
		"query_p99_ms": {ms(acrossRounds(ps, latencyQ(false, 0.99))), "ms"},
		"batch_p50_ms": {ms(acrossRounds(ps, latencyQ(true, 0.50))), "ms"},
		"proof_kb":     {mean(ck.ProofBytes) / 1024, "KiB"},
		"verify_ms":    {ck.verifyMs(), "ms"},
		"peak_rss_mb":  {acrossRounds(ps, func(p *pass) float64 { return p.RSSMB }), "MB"},
	}
}

// roundNotes prints every round's steal and quantiles, marking with *
// the rounds the metrics were taken over.
func roundNotes(all, measured []*pass, res *result) {
	for i, p := range all {
		mark := " "
		if slices.Contains(measured, p) {
			mark = "*"
		}
		res.note(fmt.Sprintf("round %d%s", i, mark), fmt.Sprintf("steal %.3f  query p50 %.3f p99 %.2f  batch p50 %.2f p75 %.2f ms",
			p.Steal, ms(latencyQ(false, 0.5)(p)), ms(latencyQ(false, 0.99)(p)), ms(latencyQ(true, 0.5)(p)), ms(latencyQ(true, 0.75)(p))))
	}
}

// ownerNotes prints the owner stream's end-to-end figures, pooled over
// the rounds.
func (e *env) ownerNotes(ps []*pass, res *result) {
	if !e.s.owner() {
		return
	}
	var ups, saves []float64
	for _, p := range ps {
		ups = append(ups, opLatencies(p.measuredOps(p.Owner.Updates))...)
		saves = append(saves, opLatencies(p.measuredOps(p.Owner.Saves))...)
	}
	res.note("owner stream", fmt.Sprintf("updates %d: p50 %.2f ms p99 %.2f ms; saves %d: p50 %.2f ms",
		len(ups), ms(quantile(ups, 0.5)), ms(quantile(ups, 0.99)), len(saves), ms(quantile(saves, 0.5))))
}

// failedNote prints failed_frac.
func failedNote(res *result) {
	res.note("failed_frac", fmt.Sprintf("%d/%d = %.6f", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1))))
}
