package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stub is an HTTP server with a known service time. Requests numbered in
// [stallFrom, stallFrom+stallN) stall; every 50 requests one is shed (503)
// and one fails (500). It records the most connections ever open at once.
type stub struct {
	*httptest.Server
	n                 atomic.Int64
	mu                sync.Mutex
	open, maxOpen     int
	service, stall    time.Duration
	stallFrom, stallN int64
	shedEvery         int64
}

func newStub(t *testing.T, service, stall time.Duration, stallFrom, stallN int64, faults bool) *stub {
	s := &stub{service: service, stall: stall, stallFrom: stallFrom, stallN: stallN}
	if faults {
		s.shedEvery = 50
	}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := s.n.Add(1)
		switch {
		case s.shedEvery > 0 && i%s.shedEvery == 7:
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		case s.shedEvery > 0 && i%s.shedEvery == 13:
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		case i >= s.stallFrom && i < s.stallFrom+s.stallN:
			time.Sleep(s.stall)
		default:
			time.Sleep(s.service)
		}
		w.Write([]byte("ok"))
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch st {
		case http.StateNew:
			s.open++
			s.maxOpen = max(s.maxOpen, s.open)
		case http.StateClosed, http.StateHijacked:
			s.open--
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func stubSend(c *http.Client, url string) sendFunc {
	return func(ctx context.Context, _ int) (bool, bool) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return false, false
		}
		resp, err := c.Do(req)
		if err != nil {
			return false, false
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusServiceUnavailable
	}
}

// TestOpenLoopCountsFromDueTime drives the stub at 200/s with one stall
// that occupies every connection for 150 ms. Measured from the due time,
// the requests queued behind the stall carry its wait into p99; measured
// from the send, only the stalled requests would.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	conns := runtime.NumCPU()
	const stall = 150 * time.Millisecond
	s := newStub(t, time.Millisecond, stall, 100, int64(conns), false)
	c := newClient(conns)
	defer c.CloseIdleConnections()
	dues := uniformDues(0, 200, 2*time.Second)
	outs := openLoop{conns: conns, maxOutstanding: 4096, grace: 2 * time.Second, send: stubSend(c, s.URL)}.run(context.Background(), dues)

	var fromDue, fromSend []float64
	for _, o := range outs {
		if !o.OK {
			t.Fatalf("unexpected failure: %+v", o)
		}
		fromDue = append(fromDue, o.Latency())
		fromSend = append(fromSend, float64(o.Done-o.Sent))
	}
	if p99 := quantile(fromDue, 0.99); p99 < float64(stall)/2 {
		t.Errorf("due-time p99 %.1f ms hides the %v stall", p99/1e6, stall)
	}
	slowDue, slowSend := 0, 0
	for i := range fromDue {
		if fromDue[i] > float64(stall)/4 {
			slowDue++
		}
		if fromSend[i] > float64(stall)/4 {
			slowSend++
		}
	}
	if slowDue <= slowSend {
		t.Errorf("the stall delayed %d requests from their due time but %d from their send: queued arrivals are not charged", slowDue, slowSend)
	}
	st := summarize(outs, 200)
	if st.BacklogMax < 10 {
		t.Errorf("backlog max %d: a %v stall at 200/s must queue ~%d arrivals", st.BacklogMax, stall, int(stall.Seconds()*200))
	}
	if st.BacklogGrows {
		t.Error("a recovered stall reported as a growing backlog")
	}
	if math.IsNaN(st.LatenessP99) || st.LatenessP99 > float64(50*time.Millisecond) {
		t.Errorf("generator lateness p99 %.2f ms: the generator must not wait for the stall", st.LatenessP99/1e6)
	}
	if s.maxOpen > conns {
		t.Errorf("%d connections open at once, budget %d", s.maxOpen, conns)
	}
}

// TestOpenLoopFailuresMissEveryLimit checks that sheds and failures are
// counted and read as +Inf latency, so 4% failures push p99 to +Inf.
func TestOpenLoopFailuresMissEveryLimit(t *testing.T) {
	conns := runtime.NumCPU()
	s := newStub(t, time.Millisecond, 0, 0, 0, true)
	c := newClient(conns)
	defer c.CloseIdleConnections()
	outs := openLoop{conns: conns, maxOutstanding: 4096, grace: 2 * time.Second, send: stubSend(c, s.URL)}.run(context.Background(), uniformDues(0, 200, time.Second))
	var lat []float64
	sheds, fails := 0, 0
	for _, o := range outs {
		lat = append(lat, o.Latency())
		if o.Shed {
			sheds++
		} else if !o.OK {
			fails++
		}
	}
	if sheds != 4 || fails != 4 {
		t.Errorf("counted %d sheds and %d failures of %d, want 4 and 4", sheds, fails, len(outs))
	}
	if p99 := quantile(lat, 0.99); !math.IsInf(p99, 1) {
		t.Errorf("p99 %.2f ms with 4%% failures: failures must miss every limit", p99/1e6)
	}
	if p50 := quantile(lat, 0.5); math.IsInf(p50, 1) {
		t.Error("p50 is +Inf with 4% failures")
	}
	if s.maxOpen > conns {
		t.Errorf("%d connections open at once, budget %d", s.maxOpen, conns)
	}
}

// TestOpenLoopOverloadGrowsBacklog offers twice the stub's capacity: the
// due-but-unsent backlog must be reported as growing, and cut arrivals
// must count as failures.
func TestOpenLoopOverloadGrowsBacklog(t *testing.T) {
	const conns = 1
	s := newStub(t, 10*time.Millisecond, 0, 0, 0, false)
	c := newClient(conns)
	defer c.CloseIdleConnections()
	dues := uniformDues(0, 200, time.Second) // capacity is 100/s
	outs := openLoop{conns: conns, maxOutstanding: 4096, grace: 100 * time.Millisecond, send: stubSend(c, s.URL)}.run(context.Background(), dues)
	st := summarize(outs, 200)
	if !st.BacklogGrows {
		t.Errorf("backlog max %d at twice capacity not reported as growing", st.BacklogMax)
	}
	cut := 0
	for _, o := range outs {
		if o.Sentinel {
			cut++
			if o.OK || !math.IsInf(o.Latency(), 1) {
				t.Fatal("an arrival never sent reads as answered")
			}
		}
	}
	if cut == 0 {
		t.Error("no arrival was cut at the grace deadline")
	}
	if s.maxOpen > conns {
		t.Errorf("%d connections open at once, budget %d", s.maxOpen, conns)
	}
}
