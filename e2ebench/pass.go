package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	spv "github.com/authhints/spv"
)

// warmup is the unmeasured head of every window: same schedule, same
// checks, excluded from the latency metrics.
const warmup = 500 * time.Millisecond

// latencyLimit is the capacity search's limit on single-query median
// latency. Tail limits proved unsteady on a shared 2-vCPU host: update
// stalls and host CPU steal alone move p90/p99 across any useful limit,
// so the search finds where the server stops keeping up — the backlog
// grows or the median leaves the limit — rather than where the tail does.
const latencyLimit = 20 * time.Millisecond

// pass is one server process driven through the nominal window (and, in
// an untraced run, the capacity ladder).
type pass struct {
	Reqs     []request
	Outs     []outcome
	Resps    []response
	In       *inputs       // the round's pool and update sample
	Window   time.Duration // measured length, after the warm-up
	Measured int           // first arrival due after the warm-up
	Loop     loopStats
	Owner    ownerLog
	Stats0   spv.ServeStats // before the window
	Stats1   spv.ServeStats // after the window, before any capacity search
	CPU      time.Duration  // server utime+stime over the window
	RSSMB    float64        // server VmHWM after the window
	Steal    float64        // share of the machine's CPU time the hypervisor took during the window
	Start    time.Time      // wall time of the window's start
	End      time.Time
	Ladder   []rung
	Capacity float64
	// traced passes only
	Wrote, FirstByte []time.Duration // per arrival, offsets like outcome's
	Polls            []statsPoll
}

type statsPoll struct {
	At    time.Duration
	Stats spv.ServeStats
}

// rung is one capacity probe.
type rung struct {
	Rate  float64
	P50   float64 // ns, singles
	Fails int
	Grows bool
	Pass  bool
	Reqs  []request
	Outs  []outcome
	Resps []response // every 4th arrival retained for checking
}

// ownerLog records the owner stream: /update and /snapshot calls.
type ownerLog struct {
	mu       sync.Mutex
	Updates  []ownerOp
	Saves    []ownerOp
	Attempts int
	Failures int
	Errs     []string
}

type ownerOp struct {
	Due, Sent, Done time.Duration // offsets from the window's start
	Batch           int           // index into inputs.Updates
}

// runPass drives srv through one round's window and, when ladder is set,
// the capacity search; traced adds client spans and /stats polling. Each
// round draws its own requests, determined by the seed and the round.
func (e *env) runPass(srv *server, round int, window time.Duration, ladder, traced bool) (*pass, error) {
	ctl := newClient(1)
	defer ctl.CloseIdleConnections()
	p := &pass{In: e.ins[round], Window: window}
	var err error
	if p.Stats0, err = fetchStats(ctl, srv.base); err != nil {
		return nil, err
	}
	ctl.CloseIdleConnections() // the control connection is not held during load

	conns := e.nconn
	var owner *http.Client
	if e.s.owner() {
		conns-- // the owner stream takes one of the nproc connections
		owner = newClient(1)
		defer owner.CloseIdleConnections()
	}
	reads := newClient(conns)
	defer reads.CloseIdleConnections()

	d := newDrawer(e.s, p.In, e.seed*rounds+int64(round))
	dues := uniformDues(0, e.s.Rate, warmup+window)
	p.Reqs = d.requests(len(dues))
	p.Resps = make([]response, len(dues))
	p.Measured = len(uniformDues(0, e.s.Rate, warmup))
	if traced {
		p.Wrote = make([]time.Duration, len(dues))
		p.FirstByte = make([]time.Duration, len(dues))
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}

	ctx, stopOwner := context.WithCancel(context.Background())
	defer stopOwner()
	var ownerDone sync.WaitGroup
	p.Start = time.Now()
	if owner != nil {
		ownerDone.Add(1)
		go func() {
			defer ownerDone.Done()
			e.ownerStream(ctx, owner, srv.base, p.Start, window, p.In.Updates, &p.Owner)
		}()
	}
	var pollDone sync.WaitGroup
	pollCtx, stopPoll := context.WithCancel(context.Background())
	if traced {
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			p.Polls = pollStats(pollCtx, srv.base, p.Start)
		}()
	}
	loop := openLoop{conns: conns, maxOutstanding: 4096, grace: 5 * time.Second,
		send: e.sender(reads, srv.base, p.Reqs, p.Resps, func(int) bool { return true }, p.Start, p.Wrote, p.FirstByte)}
	p.Outs = loop.run(context.Background(), dues)
	p.End = time.Now()
	stopPoll()
	pollDone.Wait()
	p.Loop = summarize(p.Outs, e.s.Rate)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p.CPU = cpu1 - cpu0
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	p.Steal = float64(steal1-steal0) / float64(max(1, total1-total0))
	if p.RSSMB, err = srv.procStatusMB("VmHWM"); err != nil {
		return nil, err
	}
	if p.Stats1, err = fetchStats(ctl, srv.base); err != nil {
		return nil, err
	}
	ctl.CloseIdleConnections()
	if ladder {
		single, _ := p.latencies()
		ok := !p.Loop.BacklogGrows && quantile(single, 0.5) <= float64(latencyLimit)
		for _, o := range p.Outs {
			ok = ok && o.OK
		}
		p.Capacity, p.Ladder = e.capacity(reads, srv.base, d, conns, ok)
	}
	stopOwner()
	ownerDone.Wait()
	return p, nil
}

// sender builds the loop's send function over reads. retain says which
// arrivals keep their body for checking; wrote/first, when non-nil,
// receive httptrace timings (traced runs only).
func (e *env) sender(c *http.Client, base string, reqs []request, resps []response,
	retain func(int) bool, start time.Time, wrote, first []time.Duration) sendFunc {
	return func(ctx context.Context, i int) (bool, bool) {
		if wrote != nil {
			ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
				WroteRequest:         func(httptrace.WroteRequestInfo) { wrote[i] = time.Since(start) },
				GotFirstResponseByte: func() { first[i] = time.Since(start) },
			})
		}
		var (
			body []byte
			dist string
			err  error
		)
		if r := reqs[i]; r.batch() {
			body, err = postJSON(ctx, c, base+"/batch", struct {
				Queries  []spv.ServeQuery `json:"queries"`
				Encoding string           `json:"encoding"`
			}{r, "shared"})
		} else {
			body, dist, err = getProof(ctx, c, base, r[0])
		}
		if err != nil {
			var se *statusError
			return false, errors.As(err, &se) && se.code == http.StatusServiceUnavailable
		}
		if retain(i) {
			resps[i] = response{Body: body, Dist: dist}
		}
		return true, false
	}
}

// postJSON posts v and returns the 200 reply body.
func postJSON(ctx context.Context, c *http.Client, url string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if v != nil {
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode, string(bytes.TrimSpace(body))}
	}
	return body, nil
}

// ownerStream is the owner's single connection: /update batches cycling
// the round's perturb/restore list — open loop every
// UpdEvery, or back to back when Churn — and /snapshot saves every
// SaveEvery (once mid-window when zero). It runs until ctx ends.
func (e *env) ownerStream(ctx context.Context, c *http.Client, base string, start time.Time,
	window time.Duration, updates [][]spv.EdgeUpdate, log *ownerLog) {
	nextUpd := time.Duration(0)
	nextSave := warmup + window/2
	if e.s.SaveEvery > 0 {
		nextSave = e.s.SaveEvery
	}
	for k := 0; ctx.Err() == nil; {
		now := time.Since(start)
		var op ownerOp
		var path string
		var body any
		switch {
		case nextSave <= now:
			op, path = ownerOp{Due: nextSave, Batch: -1}, "/snapshot"
			if nextSave = math.MaxInt64; e.s.SaveEvery > 0 {
				nextSave = op.Due + e.s.SaveEvery
			}
		case e.s.Churn || nextUpd <= now:
			b := k % len(updates)
			op, path = ownerOp{Due: now, Batch: b}, "/update"
			body = struct {
				Updates []spv.EdgeUpdate `json:"updates"`
			}{updates[b]}
			if !e.s.Churn {
				op.Due = nextUpd
				nextUpd += e.s.UpdEvery
			}
			k++
		default:
			wait := min(nextUpd, nextSave) - now
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			continue
		}
		op.Sent = time.Since(start)
		_, err := postJSON(ctx, c, base+path, body)
		op.Done = time.Since(start)
		if ctx.Err() != nil {
			return // cut by the end of the run, not a failure
		}
		log.mu.Lock()
		log.Attempts++
		if err != nil {
			log.Failures++
			if len(log.Errs) < 5 {
				log.Errs = append(log.Errs, fmt.Sprintf("%s: %v", path, err))
			}
		} else if path == "/update" {
			log.Updates = append(log.Updates, op)
		} else {
			log.Saves = append(log.Saves, op)
		}
		log.mu.Unlock()
	}
}

// pollStats samples /stats every 250 ms on its own connection (traced
// runs only) until ctx ends.
func pollStats(ctx context.Context, base string, start time.Time) []statsPoll {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var out []statsPoll
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-t.C:
		}
		if st, err := fetchStats(c, base); err == nil {
			out = append(out, statsPoll{At: time.Since(start), Stats: st})
		}
	}
}

// capacity searches for the highest rate at which single-query p50 stays
// within latencyLimit, nothing fails and the backlog does not grow:
// doubling from the nominal rate (halving if it already fails), then
// four bisections in log space, so the answer resolves to 2^(1/16) ≈ 4%.
func (e *env) capacity(c *http.Client, base string, d *drawer, conns int, nominalOK bool) (float64, []rung) {
	const probeDur = 2 * time.Second
	var rungs []rung
	try := func(rate float64) bool {
		dues := uniformDues(0, rate, probeDur)
		r := rung{Rate: rate, Reqs: d.requests(len(dues)), Resps: make([]response, len(dues))}
		loop := openLoop{conns: conns, maxOutstanding: 4096, grace: time.Second,
			send: e.sender(c, base, r.Reqs, r.Resps, func(i int) bool { return i%4 == 0 }, time.Time{}, nil, nil)}
		r.Outs = loop.run(context.Background(), dues)
		var lat []float64
		for i, o := range r.Outs {
			if !o.OK {
				r.Fails++
			}
			if !r.Reqs[i].batch() {
				lat = append(lat, o.Latency())
			}
		}
		st := summarize(r.Outs, rate)
		r.P50, r.Grows = quantile(lat, 0.50), st.BacklogGrows
		r.Pass = r.Fails == 0 && !r.Grows && r.P50 <= float64(latencyLimit)
		rungs = append(rungs, r)
		return r.Pass
	}
	lo, hi := 0.0, 0.0
	rate := e.s.Rate
	// The round just measured at the nominal rate stands as its probe.
	if nominalOK || try(rate) {
		lo = rate
		for k := 0; k < 6 && hi == 0; k++ {
			if rate *= 2; try(rate) {
				lo = rate
			} else {
				hi = rate
			}
		}
	} else {
		hi = rate
		for rate > 10 && lo == 0 {
			if rate /= 2; try(rate) {
				lo = rate
			} else {
				hi = rate
			}
		}
	}
	for k := 0; k < 4 && lo > 0 && hi > 0; k++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return interpolate(rungs, lo, hi), rungs
}

// interpolate refines the search's bracket [lo, hi]: when hi failed on
// latency alone, the capacity is where log p50 crosses the limit on the
// line through the two probes (log-log in rate).
func interpolate(rungs []rung, lo, hi float64) float64 {
	var a, b *rung
	for i := range rungs {
		switch rungs[i].Rate {
		case lo:
			a = &rungs[i]
		case hi:
			b = &rungs[i]
		}
	}
	if a == nil || b == nil || b.Fails > 0 || b.Grows || a.P50 <= 0 || b.P50 <= a.P50 {
		return lo
	}
	f := math.Log(float64(latencyLimit)/a.P50) / math.Log(b.P50/a.P50)
	return lo * math.Pow(hi/lo, math.Max(0, math.Min(1, f)))
}
