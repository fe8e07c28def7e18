// Command e2ebench is the repository's end-to-end benchmark: it drives the
// shipped spvserve binary over loopback with one of three workloads,
// checks every answer, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer breakdown. See README.md.
//
//	bash e2ebench/run.sh --workload mixed-hot --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	spv "github.com/authhints/spv"
)

// env is one invocation's resolved configuration and prepared inputs.
type env struct {
	s     spec
	seed  int64
	total time.Duration // --seconds: measured time over all rounds
	bin   string        // spvserve binary
	cache string        // prepared inputs, key and snapshots
	nconn int           // connection budget: nproc
	g     *spv.Graph
	ins   []*inputs // per round; one shared pool unless the spec has RoundPools
	key   string    // owner key PEM
	snap  string    // large-world snapshot (replica workloads)
	save  string    // owner daemon's -save target
}

// setupBoots is how many set-up samples a run takes for setup_s's
// median; the rounds' own boots are among them.
const setupBoots = 5

// rounds is how many fresh server processes an untraced run measures,
// each for --seconds/rounds; latency metrics are medians over them.
const rounds = 4

// A round is calm when the hypervisor took at most calmSteal of the
// machine's CPU time during its window. While fewer than rounds are calm,
// up to maxRounds are run and the calmest rounds are measured: on a
// shared host, steal bursts of 10–40% doubled every latency for minutes
// at a time, which says nothing about the program.
const (
	calmSteal = 0.05
	maxRounds = rounds + 2
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: mixed-hot, cold-replica or owner-churn")
		seed     = flag.Int64("seed", 1, "workload seed: pairs, mix draws and update samples")
		seconds  = flag.Int("seconds", 10, "measured window length in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin      = flag.String("server", ".bench_build/spvserve", "spvserve binary")
		cache    = flag.String("cache", ".bench_build/e2ebench", "directory for prepared inputs")
	)
	flag.Parse()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()
	res, err := run(*workload, *seed, *seconds, *trace == 1, *bin, *cache)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func run(workload string, seed int64, seconds int, traced bool, bin, cache string) (*result, error) {
	s, err := lookupSpec(workload)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d must be positive", seconds)
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	e := &env{s: s, seed: seed, total: time.Duration(seconds) * time.Second,
		bin: bin, cache: cache, nconn: runtime.NumCPU()}
	if err := e.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if traced {
		return e.tracedRun()
	}
	return e.untracedRun()
}

// prepare makes everything outside the timers: the owner key (once per
// cache), the world, the seeded inputs and, for replicas, the snapshot.
func (e *env) prepare() error {
	var err error
	if e.key, err = ensureKey(e.cache); err != nil {
		return err
	}
	if e.g, err = e.s.World.graph(); err != nil {
		return err
	}
	for r := 0; r < maxRounds; r++ {
		if r > 0 && !e.s.RoundPools {
			e.ins = append(e.ins, e.ins[0])
			continue
		}
		in, err := loadInputs(e.cache, e.s, e.g, e.seed, r)
		if err != nil {
			return err
		}
		e.ins = append(e.ins, in)
	}
	e.save = filepath.Join(e.cache, "owner-"+e.s.Name+".spv")
	if e.s.Replica {
		e.snap, err = ensureSnapshot(e.cache, e.bin, e.key, e.s.World)
	}
	return err
}

// ensureKey returns the path of the cached owner key, generating it on
// first use so RSA prime search never lands inside setup_s.
func ensureKey(dir string) (string, error) {
	path := filepath.Join(dir, "owner.pem")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	k, err := spv.GenerateOwnerKey(1024) // spvserve's default modulus
	if err != nil {
		return "", err
	}
	// A new key invalidates every snapshot signed with the old one.
	old, _ := filepath.Glob(filepath.Join(dir, "*.spv"))
	for _, f := range old {
		os.Remove(f)
	}
	if err := os.WriteFile(path+".tmp", k.MarshalPEM(), 0o600); err != nil {
		return "", err
	}
	return path, os.Rename(path+".tmp", path)
}

// ensureSnapshot builds the world's DIJ+LDM+HYP snapshot once with the
// shipped binary (-save writes it before serving), then stops it.
func ensureSnapshot(dir, bin, key string, w world) (string, error) {
	path := filepath.Join(dir, "replica-"+w.Name+".spv")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".build"
	os.Remove(tmp)
	srv, err := startServer(bin, append(w.serverArgs(), "-key", key, "-save", tmp), false)
	if err != nil {
		return "", err
	}
	defer srv.stop()
	c := newClient(1)
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		if resp, err := c.Get(srv.base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		select {
		case <-srv.exited:
			return "", fmt.Errorf("snapshot build exited; log:\n%s", srv.log)
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return "", errors.New("snapshot build timed out")
		}
	}
	return path, os.Rename(tmp, path)
}

// serverArgs is the daemon's command line: shipped defaults except the
// world, the role and the fixed owner key.
func (e *env) serverArgs() []string {
	if e.s.Replica {
		return []string{"-snapshot", e.snap}
	}
	return append(e.s.World.serverArgs(), "-key", e.key, "-updates", "-save", e.save)
}

// boot launches the server and waits until it is ready, returning the
// set-up time as a setup_s sample.
func (e *env) boot(gctrace bool) (*server, float64, *spv.Verifier, error) {
	srv, d, v, err := bootReady(e.bin, e.serverArgs(), gctrace, e.ins[0].Pairs[0])
	return srv, d.Seconds(), v, err
}

// untracedRun boots setupBoots-rounds servers for set-up samples only,
// then measures rounds fresh servers, and checks every answer afterwards.
func (e *env) untracedRun() (*result, error) {
	var setup []float64
	for i := 0; i < setupBoots-rounds; i++ {
		srv, d, _, err := e.boot(false)
		if err != nil {
			return nil, err
		}
		srv.stop()
		setup = append(setup, d)
	}
	var (
		ps []*pass
		v  *spv.Verifier
	)
	for r := 0; r < maxRounds; r++ {
		calm := 0
		for _, p := range ps {
			if p.Steal <= calmSteal {
				calm++
			}
		}
		if r >= rounds && calm >= rounds {
			break
		}
		srv, d, vr, err := e.boot(false)
		if err != nil {
			return nil, err
		}
		v = vr
		setup = append(setup, d)
		p, err := e.runPass(srv, r, e.total/rounds, false, false)
		srv.stop()
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	res := newResult(e)
	ck := newChecker(v, e.s, e.ins[0])
	measured := calmest(ps)
	for _, p := range ps {
		e.checkPass(ck, p, res, slices.Contains(measured, p))
	}
	res.Metrics = e.endToEnd(measured, ck)
	roundNotes(ps, measured, res)
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	e.ownerNotes(measured, res)
	failedNote(res)
	res.note("setup_s samples", fmt.Sprint(setup))
	return res, nil
}

// calmest returns the rounds passes with the least steal, in run order.
func calmest(ps []*pass) []*pass {
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ps[idx[a]].Steal < ps[idx[b]].Steal })
	if len(idx) > rounds {
		idx = idx[:rounds]
	}
	sort.Ints(idx)
	out := make([]*pass, len(idx))
	for i, k := range idx {
		out[i] = ps[k]
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     [][2]string
	invalid   []string
}

func newResult(e *env) *result {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	r.note("workload", fmt.Sprintf("%s seed=%d seconds=%v world=%s pairs=%d", e.s.Name, e.seed, e.total, e.s.World.Name, len(e.ins[0].Pairs)))
	return r
}

func (r *result) note(k, v string) { r.notes = append(r.notes, [2]string{k, v}) }

// fail marks the run incorrect with a reason.
func (r *result) fail(reason string) {
	r.Correct = false
	r.invalid = append(r.invalid, reason)
}

// print writes the human-readable report, then the JSON verdict as the
// last line.
func (r *result) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %-22s %s\n", n[0], n[1])
	}
	for _, why := range r.invalid {
		fmt.Fprintf(w, "# INVALID: %s\n", why)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "%-36s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN/Inf: a metric a run could not measure reads 0.
			r.Metrics[k] = metric{0, m.Unit}
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(b))
}

func ladderString(rs []rung) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%.0f/s:p50=%.1fms,fails=%d,grows=%v,pass=%v  ", r.Rate, r.P50/1e6, r.Fails, r.Grows, r.Pass)
	}
	return s
}
