package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one open-loop arrival's timeline, every field an offset from
// the loop's start. Latency runs from Due, so a stall that delays later
// sends shows in their latency (no coordinated omission).
type outcome struct {
	Due      time.Duration // when the schedule said to send
	Dispatch time.Duration // when the generator got to it (lateness = Dispatch-Due)
	Sent     time.Duration // when a connection slot was free (conn wait = Sent-Dispatch)
	Done     time.Duration // response fully read
	OK       bool          // answered with a well-formed 2xx
	Shed     bool          // refused by admission control (503)
	Sentinel bool          // never sent: dropped, or cut at the window's end
}

// Latency is the due-to-done time; failures, sheds and drops miss every
// latency limit, so they read as +Inf.
func (o outcome) Latency() float64 {
	if !o.OK {
		return math.Inf(1)
	}
	return float64(o.Done - o.Due)
}

// sendFunc performs arrival i over one connection slot. ok reports a
// well-formed answer; shed a 503 refusal. It must honour ctx.
type sendFunc func(ctx context.Context, i int) (ok, shed bool)

// openLoop sends arrivals on a fixed schedule regardless of completions,
// over at most conns concurrent connections. An arrival that finds every
// slot busy waits for one; that wait is the due-but-unsent backlog.
type openLoop struct {
	conns          int
	maxOutstanding int           // arrivals in flight or waiting before new ones drop
	grace          time.Duration // how long stragglers may finish after the last due time
	send           sendFunc
}

// run drives the schedule dues (offsets from now, ascending) and returns
// one outcome per arrival. Arrivals still waiting for a slot grace after
// the last due time are cancelled and reported as not OK.
func (l openLoop) run(ctx context.Context, dues []time.Duration) []outcome {
	out := make([]outcome, len(dues))
	slots := make(chan struct{}, l.conns)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	start := time.Now()
	func() {
		// A locked thread sleeping in nanosleep wakes within ~0.1 ms; the
		// runtime's timers have millisecond granularity, which would add
		// up to a millisecond of generator lateness to every request.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, due := range dues {
			out[i].Due = due
			if d := due - time.Since(start); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
			}
			now := time.Since(start)
			out[i].Dispatch = now
			if ctx.Err() != nil || int(outstanding.Load()) >= l.maxOutstanding {
				out[i].Sentinel = true
				continue
			}
			outstanding.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer outstanding.Add(-1)
				select {
				case slots <- struct{}{}:
				case <-rctx.Done():
					out[i].Sentinel = true
					return
				}
				out[i].Sent = time.Since(start)
				out[i].OK, out[i].Shed = l.send(rctx, i)
				out[i].Done = time.Since(start)
				<-slots
			}(i)
		}
	}()
	stop := time.AfterFunc(l.grace, cancel)
	wg.Wait()
	stop.Stop()
	return out
}

// loopStats summarizes one run of the loop for the validity guards and
// the capacity search.
type loopStats struct {
	LatenessP50  float64 // ns
	LatenessP99  float64 // ns
	ConnWaitP99  float64 // ns
	BacklogMax   int
	BacklogGrows bool
}

// summarize computes the generator lateness, connection wait and the
// due-but-unsent backlog of outs. The backlog at time t is the number of
// arrivals due by t that had not been sent by t; it "grows" when its mean
// over the last quarter of the schedule exceeds the first quarter's by
// more than max(2, 20 ms of arrivals) — a backlog that large already
// misses the capacity search's latency limit.
func summarize(outs []outcome, rate float64) loopStats {
	var st loopStats
	if len(outs) == 0 {
		return st
	}
	late := make([]float64, 0, len(outs))
	wait := make([]float64, 0, len(outs))
	due := make([]time.Duration, 0, len(outs))
	sent := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		late = append(late, float64(o.Dispatch-o.Due))
		due = append(due, o.Due)
		if o.Sentinel {
			sent = append(sent, math.MaxInt64)
			continue
		}
		wait = append(wait, float64(o.Sent-o.Dispatch))
		sent = append(sent, o.Sent)
	}
	st.LatenessP50 = quantile(late, 0.50)
	st.LatenessP99 = quantile(late, 0.99)
	st.ConnWaitP99 = quantile(wait, 0.99)
	sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
	span := outs[len(outs)-1].Due
	const steps = 200
	series := make([]int, steps)
	for k := range series {
		t := span * time.Duration(k+1) / steps
		nd := sort.Search(len(due), func(i int) bool { return due[i] > t })
		ns := sort.Search(len(sent), func(i int) bool { return sent[i] > t })
		if b := nd - ns; b > 0 {
			series[k] = b
		}
		if series[k] > st.BacklogMax {
			st.BacklogMax = series[k]
		}
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(series[:steps/4]), mean(series[steps*3/4:])
	st.BacklogGrows = last-first > math.Max(2, rate*0.020)
	return st
}

// quantile is the nearest-rank q-quantile of xs (which it sorts); NaN when
// xs is empty. +Inf entries sort last, so failures raise high quantiles.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// uniformDues lays n arrivals at a fixed rate starting at offset from.
func uniformDues(from time.Duration, rate float64, window time.Duration) []time.Duration {
	n := int(rate * window.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = from + time.Duration(float64(i)*float64(time.Second)/rate)
	}
	return dues
}
