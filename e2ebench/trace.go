package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	spv "github.com/authhints/spv"
)

// layerMetric is one entry of the per-layer catalogue; BENCHMARK.json's
// per_layer list mirrors it (checked by catalogue_test.go).
type layerMetric struct {
	Name, Unit, Better string
}

// perLayer is the catalogue of traced-run metrics, in report order. A
// metric a workload cannot exercise (updates on the read-only replica,
// outsourcing where the snapshot is prebuilt) reads 0.
var perLayer = func() []layerMetric {
	var out []layerMetric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, better})
		}
	}
	perMethod := func(prefix string) []string {
		var ns []string
		for _, m := range methods {
			ns = append(ns, prefix+"."+string(m))
		}
		return ns
	}
	add("1/s", "higher", "load.capacity_qps")
	add("ms", "lower", "driver.lateness_p99_ms", "driver.conn_wait_p99_ms")
	add("count", "lower", "driver.backlog_max")
	add("ms", "lower", "http.query_rtt_p50_ms", "http.query_rtt_p99_ms", "http.update_rtt_p50_ms", "http.outside_engine_p99_ms")
	add("ratio", "higher", "serve.hit_rate", "serve.dedup_rate")
	add("us", "lower", perMethod("serve.engine_p50_us")...)
	add("us", "lower", perMethod("serve.engine_p99_us")...)
	add("us", "lower", "serve.cold_us_mean")
	add("count", "lower", "serve.invalidated_per_update", "serve.leaves_patched_per_update", "serve.shed")
	add("ms", "lower", "serve.swap_ms")
	add("us", "lower", "server.cpu_us_per_req")
	add("ms", "lower", "server.gc_pause_ms")
	add("1/s", "lower", "server.gc_per_s")
	add("MB", "lower", "server.heap_peak_mb")
	add("us", "lower", perMethod("core.prove_us")...)
	add("us", "lower", perMethod("core.encode_us")...)
	add("KiB", "lower", "core.proof_s_kb", "core.proof_t_kb")
	add("us", "lower", "core.decode_us")
	add("us", "lower", perMethod("core.verify_us")...)
	add("us", "lower", "core.verify_batch_us_per_item")
	add("ms", "lower", "core.probe_ms")
	add("ms", "lower", perMethod("core.patch_ms")...)
	add("count", "lower", "core.rows_recomputed_per_update", "core.affected_sources_per_update")
	add("MB", "lower", "core.alloc_mb_per_update")
	add("ms", "lower", perMethod("core.outsource_ms")...)
	add("ms", "lower", "netgen.world_ms", "sig.sign_ms")
	add("count", "lower", "sig.signs_per_update")
	add("us", "lower", "sig.verify_us")
	add("MB", "lower", "snapshot.file_mb")
	add("ms", "lower", "snapshot.open_ms")
	add("ms", "lower", perMethod("snapshot.hydrate_ms")...)
	add("ms", "lower", "snapshot.save_ms", "cert.issue_ms")
	add("ms", "lower", "owner.update_p50_ms", "owner.update_p99_ms", "owner.save_p50_ms")
	add("%", "lower", "trace.overhead_query_p50_pct", "trace.overhead_query_p99_pct")
	add("ratio", "higher", "trace.query_p50_named_share", "trace.update_p50_replay_share")
	return out
}()

// tracedRun replays the untraced run's first round (same workload, seed
// and draws, over half of --seconds) twice on fresh servers — once
// untraced as the reference, followed by the capacity search, and once
// traced (client spans, /stats polling, gctrace) — then runs the
// in-process replays, and reports the per-layer catalogue.
func (e *env) tracedRun() (*result, error) {
	res := newResult(e)
	srv, _, v, err := e.boot(false)
	if err != nil {
		return nil, err
	}
	ref, err := e.runPass(srv, 0, e.total/2, true, false)
	srv.stop()
	if err != nil {
		return nil, err
	}
	srv, _, _, err = e.boot(true)
	if err != nil {
		return nil, err
	}
	tp, err := e.runPass(srv, 0, e.total/2, false, true)
	srv.stop()
	if err != nil {
		return nil, err
	}
	gcs := srv.log.gcEvents(tp.Start, tp.End)
	ck := newChecker(v, e.s, e.ins[0])
	e.checkPass(ck, ref, res, true)
	e.checkPass(ck, tp, res, true)
	failedNote(res)

	L := map[string]float64{"load.capacity_qps": ref.Capacity}
	res.note("capacity ladder", ladderString(ref.Ladder))
	e.clientLayers(L, ref, tp)
	e.serverLayers(L, tp, gcs)
	if err := e.replays(L, tp, v); err != nil {
		return nil, fmt.Errorf("replays: %w", err)
	}
	e.shares(L, tp)
	path, err := e.writeSpans(tp)
	if err != nil {
		return nil, err
	}
	res.note("spans", path)
	for _, lm := range perLayer {
		val, ok := L[lm.Name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		res.Metrics[lm.Name] = metric{val, lm.Unit}
	}
	return res, nil
}

// clientLayers fills the load-generator (driver.*), http, owner and
// tracing-overhead metrics from the client's own spans.
func (e *env) clientLayers(L map[string]float64, ref, tp *pass) {
	L["driver.lateness_p99_ms"] = tp.Loop.LatenessP99 / 1e6
	L["driver.conn_wait_p99_ms"] = tp.Loop.ConnWaitP99 / 1e6
	L["driver.backlog_max"] = float64(tp.Loop.BacklogMax)
	var rtt []float64
	for i := tp.Measured; i < len(tp.Outs); i++ {
		if o := tp.Outs[i]; o.OK && !tp.Reqs[i].batch() {
			rtt = append(rtt, float64(o.Done-o.Sent))
		}
	}
	L["http.query_rtt_p50_ms"] = quantile(rtt, 0.5) / 1e6
	L["http.query_rtt_p99_ms"] = quantile(rtt, 0.99) / 1e6
	ups := tp.measuredOps(tp.Owner.Updates)
	var urtt []float64
	for _, op := range ups {
		urtt = append(urtt, float64(op.Done-op.Sent))
	}
	L["http.update_rtt_p50_ms"] = quantile(urtt, 0.5) / 1e6
	L["owner.update_p50_ms"] = quantile(opLatencies(ups), 0.5) / 1e6
	L["owner.update_p99_ms"] = quantile(opLatencies(ups), 0.99) / 1e6
	L["owner.save_p50_ms"] = quantile(opLatencies(tp.measuredOps(tp.Owner.Saves)), 0.5) / 1e6

	for _, q := range []struct {
		name string
		q    float64
	}{{"trace.overhead_query_p50_pct", 0.5}, {"trace.overhead_query_p99_pct", 0.99}} {
		a, b := latencyQ(false, q.q)(ref), latencyQ(false, q.q)(tp)
		L[q.name] = 100 * (b - a) / a
	}
}

// serverLayers fills the serve and server-process metrics from /stats
// deltas, /proc and gctrace.
func (e *env) serverLayers(L map[string]float64, tp *pass, gcs []gcEvent) {
	a, b := tp.Stats0, tp.Stats1
	q := float64(b.Queries - a.Queries)
	L["serve.hit_rate"] = float64(b.Hits-a.Hits) / q
	L["serve.dedup_rate"] = float64(b.Deduped-a.Deduped) / q
	if miss := b.Misses - a.Misses; miss > 0 {
		L["serve.cold_us_mean"] = float64(b.ColdTime-a.ColdTime) / float64(miss) / 1e3
	}
	// The histograms are lifetime; the traced server booted fresh, so they
	// cover the set-up probes, the warm-up and the window.
	for _, m := range methods {
		if s, ok := b.Latency[m]; ok {
			L["serve.engine_p50_us."+string(m)] = float64(s.P50) / 1e3
			L["serve.engine_p99_us."+string(m)] = float64(s.P99) / 1e3
		}
	}
	if n := float64(b.Epoch - a.Epoch); n > 0 {
		L["serve.invalidated_per_update"] = float64(b.CacheInvalidated-a.CacheInvalidated) / n
		L["serve.leaves_patched_per_update"] = float64(b.LeavesPatched-a.LeavesPatched) / n
	}
	if a.Pipeline != nil && b.Pipeline != nil {
		L["serve.shed"] = float64(b.Pipeline.Shed - a.Pipeline.Shed)
	}
	reqs := len(tp.Outs) + tp.Owner.Attempts
	L["server.cpu_us_per_req"] = float64(tp.CPU) / 1e3 / float64(reqs)
	win := tp.End.Sub(tp.Start).Seconds()
	pause, heap := 0.0, 0.0
	for _, ev := range gcs {
		pause += ev.PauseMs
		heap = math.Max(heap, ev.HeapMB)
	}
	L["server.gc_pause_ms"] = pause
	L["server.gc_per_s"] = float64(len(gcs)) / win
	L["server.heap_peak_mb"] = heap

	var mixP99, mixW float64
	for _, ms := range mix {
		if s, ok := b.Latency[ms.M]; ok {
			mixP99 += float64(ms.W) * float64(s.P99)
			mixW += float64(ms.W)
		}
	}
	L["http.outside_engine_p99_ms"] = (L["http.query_rtt_p99_ms"]*1e6 - mixP99/mixW) / 1e6
}

// replayKeys returns up to perMethod distinct keys per method from the
// traced window, in order of first appearance.
func replayKeys(p *pass, perMethod int) map[spv.Method][]spv.ServeQuery {
	out := make(map[spv.Method][]spv.ServeQuery)
	seen := make(map[spv.ServeQuery]bool)
	for _, r := range p.Reqs[p.Measured:] {
		for _, q := range r {
			if !seen[q] && len(out[q.Method]) < perMethod {
				seen[q] = true
				out[q.Method] = append(out[q.Method], q)
			}
		}
	}
	return out
}

// replays times calls into the library's public functions in process:
// world, outsource, certify, save, lazy open and hydrate, then cold
// prove/encode/decode/verify on the window's keys, then the window's
// exact update sequence decomposed into probe → patch → swap.
func (e *env) replays(L map[string]float64, tp *pass, v *spv.Verifier) error {
	pem, err := os.ReadFile(e.key)
	if err != nil {
		return err
	}
	signer, err := spv.ParseSignerPEM(pem)
	if err != nil {
		return err
	}
	start := time.Now()
	g, err := e.s.World.graph()
	if err != nil {
		return err
	}
	L["netgen.world_ms"] = msSince(start)

	probe := tp.In.Pairs[0]
	provs := make(map[spv.Method]spv.Provider)
	var owner *spv.Owner
	snapPath := e.snap
	if e.s.owner() {
		if owner, err = spv.NewOwnerWithSigner(g, spv.DefaultConfig(), signer); err != nil {
			return err
		}
		var list []spv.Provider
		for _, m := range methods {
			start = time.Now()
			p, err := owner.Outsource(m)
			if err != nil {
				return err
			}
			L["core.outsource_ms."+string(m)] = msSince(start)
			provs[m] = p
			list = append(list, p)
		}
		start = time.Now()
		if _, err := spv.Certify(owner, list...); err != nil {
			return err
		}
		L["cert.issue_ms"] = msSince(start)
		if snapPath, err = e.replaySave(L, signer); err != nil {
			return err
		}
		defer os.Remove(snapPath)
	}
	if fi, err := os.Stat(snapPath); err == nil {
		L["snapshot.file_mb"] = float64(fi.Size()) / (1 << 20)
	}
	start = time.Now()
	set, err := spv.LoadProviderSetLazy(snapPath)
	if err != nil {
		return err
	}
	defer set.Close()
	L["snapshot.open_ms"] = msSince(start)
	for _, m := range methods {
		p := set.Provider(m)
		start = time.Now()
		if _, err := p.QueryProof(probe.S, probe.T); err != nil {
			return err
		}
		first := time.Since(start)
		start = time.Now()
		if _, err := p.QueryProof(probe.S, probe.T); err != nil {
			return err
		}
		L["snapshot.hydrate_ms."+string(m)] = float64(first-time.Since(start)) / 1e6
		if owner == nil {
			provs[m] = p
		}
	}

	keys := replayKeys(tp, 30)
	if err := replayProofs(L, provs, keys, v); err != nil {
		return err
	}
	msg := []byte("e2ebench root digest placeholder")
	var signMs, verUs []float64
	var sigBytes []byte
	for i := 0; i < 20; i++ {
		start = time.Now()
		if sigBytes, err = signer.Sign(msg); err != nil {
			return err
		}
		signMs = append(signMs, msSince(start))
	}
	for i := 0; i < 200; i++ {
		start = time.Now()
		if err := v.Verify(msg, sigBytes); err != nil {
			return err
		}
		verUs = append(verUs, float64(time.Since(start))/1e3)
	}
	L["sig.sign_ms"], L["sig.verify_us"] = median(signMs), median(verUs)
	if owner != nil {
		return e.replayUpdates(L, tp, owner, provs, keys)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// replaySave times Deployment certify + save on a second owner over the
// same world and key — what the daemon does at start-up and on each
// POST /snapshot — and returns the written file.
func (e *env) replaySave(L map[string]float64, signer *spv.Signer) (string, error) {
	g, err := e.s.World.graph()
	if err != nil {
		return "", err
	}
	o, err := spv.NewOwnerWithSigner(g, spv.DefaultConfig(), signer)
	if err != nil {
		return "", err
	}
	dep, err := spv.NewDeployment(o, spv.ServeOptions{}, methods...)
	if err != nil {
		return "", err
	}
	defer dep.Engine().Close()
	if _, err := dep.Certify(); err != nil {
		return "", err
	}
	path := filepath.Join(e.cache, "replay-"+e.s.Name+".spv")
	start := time.Now()
	if _, err := spv.SaveSnapshot(path, dep); err != nil {
		return "", err
	}
	L["snapshot.save_ms"] = msSince(start)
	return path, nil
}

// replayProofs times cold prove, encode, decode, verify and batch verify
// per method on the window's keys.
func replayProofs(L map[string]float64, provs map[spv.Method]spv.Provider, keys map[spv.Method][]spv.ServeQuery, v *spv.Verifier) error {
	var decode, sKB, tKB []float64
	var batchNs, batchItems float64
	for _, m := range methods {
		var prove, encode, verify []float64
		var items []spv.BatchItem
		for _, q := range keys[m] {
			start := time.Now()
			pr, err := provs[m].QueryProof(q.VS, q.VT)
			if err != nil {
				return err
			}
			prove = append(prove, float64(time.Since(start))/1e3)
			start = time.Now()
			wire := pr.AppendBinary(nil)
			encode = append(encode, float64(time.Since(start))/1e3)
			st := pr.Stats()
			sKB, tKB = append(sKB, float64(st.SBytes)/1024), append(tKB, float64(st.TBytes)/1024)
			start = time.Now()
			dec, _, err := spv.DecodeProof(m, wire)
			if err != nil {
				return err
			}
			decode = append(decode, float64(time.Since(start))/1e3)
			start = time.Now()
			if err := spv.VerifyProof(v, m, q.VS, q.VT, dec); err != nil {
				return fmt.Errorf("replayed %s(%d,%d): %w", m, q.VS, q.VT, err)
			}
			verify = append(verify, float64(time.Since(start))/1e3)
			items = append(items, spv.BatchItem{VS: q.VS, VT: q.VT, Proof: dec})
		}
		L["core.prove_us."+string(m)] = median(prove)
		L["core.encode_us."+string(m)] = median(encode)
		L["core.verify_us."+string(m)] = median(verify)
		start := time.Now()
		for _, err := range spv.VerifyBatch(v, m, items) {
			if err != nil {
				return fmt.Errorf("replayed %s batch: %w", m, err)
			}
		}
		batchNs += float64(time.Since(start))
		batchItems += float64(len(items))
	}
	L["core.decode_us"] = median(decode)
	L["core.proof_s_kb"], L["core.proof_t_kb"] = mean(sKB), mean(tKB)
	L["core.verify_batch_us_per_item"] = batchNs / batchItems / 1e3
	return nil
}

// replayUpdates re-applies the update batches the traced window sent, in
// order, to an in-process owner: probe (Owner.ApplyUpdates), per-method
// patch (UpdateBatch.Patch) and hot-swap into an engine whose cache holds
// the window's keys (QueryEngine.Swap).
func (e *env) replayUpdates(L map[string]float64, tp *pass, owner *spv.Owner,
	provs map[spv.Method]spv.Provider, keys map[spv.Method][]spv.ServeQuery) error {
	eng := spv.NewRawEngine(spv.ServeOptions{})
	defer eng.Close()
	for _, m := range methods {
		eng.Register(provs[m])
		for _, q := range keys[m] {
			if _, err := eng.Query(q); err != nil {
				return err
			}
		}
	}
	ops := tp.measuredOps(tp.Owner.Updates)
	if len(ops) > 40 {
		ops = ops[:40]
	}
	if len(ops) == 0 {
		return nil
	}
	probe, swap, rows, srcs, signs, alloc := []float64{}, []float64{}, 0.0, 0.0, 0.0, 0.0
	patch := make(map[spv.Method][]float64)
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	for _, op := range ops {
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		start := time.Now()
		b, err := owner.ApplyUpdates(tp.In.Updates[op.Batch])
		if err != nil {
			return err
		}
		probe = append(probe, msSince(start))
		srcs += float64(b.AffectedSources())
		sw := 0.0
		for _, m := range methods {
			start = time.Now()
			np, st, err := b.Patch(provs[m])
			if err != nil {
				return err
			}
			patch[m] = append(patch[m], msSince(start))
			rows += float64(st.RowsRecomputed)
			if st.LeavesPatched > 0 {
				signs++
			}
			if st.DistLeavesPatched > 0 {
				signs++ // HYP's distance B-tree root is signed separately
			}
			start = time.Now()
			if err := eng.Swap(np, st); err != nil {
				return err
			}
			sw += msSince(start)
			provs[m] = np
		}
		swap = append(swap, sw)
		metrics.Read(sample)
		alloc += float64(sample[0].Value.Uint64() - before)
	}
	n := float64(len(ops))
	L["core.probe_ms"] = median(probe)
	for _, m := range methods {
		L["core.patch_ms."+string(m)] = median(patch[m])
	}
	L["serve.swap_ms"] = median(swap)
	L["core.rows_recomputed_per_update"] = rows / n
	L["core.affected_sources_per_update"] = srcs / n
	L["sig.signs_per_update"] = signs / n
	L["core.alloc_mb_per_update"] = alloc / n / (1 << 20)
	return nil
}

// shares reports which part of query_p50 the named client spans plus the
// server's engine time account for, and which part of the owner's update
// p50 the replayed probe + patch + swap account for.
func (e *env) shares(L map[string]float64, tp *pass) {
	var late, wait []float64
	for _, o := range tp.Outs[tp.Measured:] {
		if !o.Sentinel {
			late = append(late, float64(o.Dispatch-o.Due))
			wait = append(wait, float64(o.Sent-o.Dispatch))
		}
	}
	var eng, w float64
	for _, ms := range mix {
		eng += float64(ms.W) * L["serve.engine_p50_us."+string(ms.M)] * 1e3
		w += float64(ms.W)
	}
	L["trace.query_p50_named_share"] = (median(late) + median(wait) + eng/w) / latencyQ(false, 0.5)(tp)
	if up := L["owner.update_p50_ms"]; up > 0 {
		named := L["core.probe_ms"] + L["serve.swap_ms"]
		for _, m := range methods {
			named += L["core.patch_ms."+string(m)]
		}
		L["trace.update_p50_replay_share"] = named / up
	}
}

// span is one traced interval; children point at their request's span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the traced window's spans, then its /stats polls,
// as JSON lines into the cache directory and returns the path.
func (e *env) writeSpans(tp *pass) (string, error) {
	path := filepath.Join(e.cache, fmt.Sprintf("spans-%s-%d.jsonl", e.s.Name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	emit := func(parent int, name string, a, b time.Duration) int {
		id++
		_ = enc.Encode(span{id, parent, name, int64(a), int64(b)}) // a bufio.Writer error resurfaces at Flush
		return id
	}
	for i, o := range tp.Outs {
		if o.Sentinel {
			continue
		}
		name := "query"
		if tp.Reqs[i].batch() {
			name = "batch"
		}
		root := emit(0, name, o.Due, o.Done)
		emit(root, "generator_lateness", o.Due, o.Dispatch)
		emit(root, "conn_wait", o.Dispatch, o.Sent)
		h := emit(root, "http", o.Sent, o.Done)
		if tp.Wrote[i] > 0 && tp.FirstByte[i] > 0 {
			emit(h, "http.write", o.Sent, tp.Wrote[i])
			emit(h, "http.server", tp.Wrote[i], tp.FirstByte[i])
			emit(h, "http.read", tp.FirstByte[i], o.Done)
		}
	}
	for _, op := range tp.Owner.Updates {
		emit(0, "update", op.Due, op.Done)
	}
	for _, op := range tp.Owner.Saves {
		emit(0, "save", op.Due, op.Done)
	}
	for _, pl := range tp.Polls {
		_ = enc.Encode(struct {
			At    int64          `json:"stats_at_ns"`
			Stats spv.ServeStats `json:"stats"`
		}{int64(pl.At), pl.Stats})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
