package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/authhints/spv/internal/loadgen"
)

// runCompare implements `benchjson compare <baseline.json> <current.json>`:
// print per-lane deltas and exit non-zero when any lane regresses beyond
// the threshold. This is the primitive the CI bench gate runs.
//
// The gate's honesty rules:
//
//   - A synthetic report (made with -assume-cpus on a host with another
//     CPU budget) gates nothing real: the comparison runs, under a
//     visible "synthetic baseline" warning.
//   - Different CPU counts make the files incomparable (a 4-core baseline
//     vs a 1-core fallback runner would "regress" by parallelism the
//     runner never had): the gate prints a visible warning and exits 0.
//   - Worker-sweep lanes are skipped on single-CPU hosts for the same
//     reason benchjson withholds their speedups.
//   - Load lanes gate on p99 latency (up is bad) and achieved QPS (down
//     is bad); any errors, drops or sheds in the current run fail
//     outright — a server that refuses load can otherwise post excellent
//     percentiles.
//   - Lanes present on only one side are reported (NEW LANE / GONE), not
//     silently skipped: a candidate-only lane passing in silence is how a
//     renamed benchmark loses its gate forever.
//   - Percentile and QPS gates require enough arrivals to be stable: a
//     p99 over 50 samples is within noise of the max, so phases below
//     the floor only gate on errors/drops.
//
// Sample floors for the statistical gates: below these arrival counts
// the metric is noise, not signal — a p99 over 50 samples is effectively
// the max, and a QPS ratio over a handful of updates says nothing.
const (
	minP99Samples = 200
	minQPSSamples = 50
)

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.30, "max allowed fractional regression per lane (0.30 = 30%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchjson compare [-threshold 0.30] <baseline.json> <current.json>")
	}
	base, err := readReport(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readReport(fs.Arg(1))
	if err != nil {
		return err
	}
	for i, r := range []*Report{base, cur} {
		if r.Synthetic {
			fmt.Printf("WARNING: synthetic baseline — %s was generated with -assume-cpus %d, not measured on a %d-CPU runner; replace it with a real run.\n",
				fs.Arg(i), r.CPUs, r.CPUs)
		}
	}
	if base.CPUs != cur.CPUs {
		fmt.Printf("GATE SKIPPED: baseline measured on %d CPUs, current on %d — incomparable.\n", base.CPUs, cur.CPUs)
		fmt.Printf("Commit a baseline for this CPU count (BENCH_BASELINE_%dcpu.json) to arm the gate.\n", cur.CPUs)
		return nil
	}

	var regressions []string
	note := func(bad bool, format string, a ...any) {
		line := fmt.Sprintf(format, a...)
		if bad {
			regressions = append(regressions, line)
			fmt.Printf("REGRESS  %s\n", line)
		} else {
			fmt.Printf("ok       %s\n", line)
		}
	}

	// Lanes present on only one side are visible, never silently passed: a
	// candidate-only lane has no baseline to gate against (report it so a
	// rename or addition can't hide a regression forever), and a
	// baseline-only lane means coverage was lost.
	lanes := make([]string, 0, len(cur.Results))
	var newLanes, goneLanes []string
	for name := range cur.Results {
		if _, ok := base.Results[name]; ok {
			lanes = append(lanes, name)
		} else {
			newLanes = append(newLanes, name)
		}
	}
	for name := range base.Results {
		if _, ok := cur.Results[name]; !ok {
			goneLanes = append(goneLanes, name)
		}
	}
	sort.Strings(lanes)
	sort.Strings(newLanes)
	sort.Strings(goneLanes)
	for _, name := range newLanes {
		fmt.Printf("NEW LANE %-32s no baseline — ungated; refresh the baseline to gate it\n", name)
	}
	for _, name := range goneLanes {
		fmt.Printf("GONE     %-32s in baseline but not in current run — coverage lost?\n", name)
	}
	for _, name := range lanes {
		b, c := base.Results[name], cur.Results[name]
		if b.NsPerOp <= 0 {
			continue
		}
		if isWorkerSweep(name) && cur.CPUs == 1 {
			fmt.Printf("skip     %-32s single-CPU host: sweep measures fan-out overhead, not parallelism\n", name)
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		note(ratio > 1+*threshold, "%-32s %12.0f → %12.0f ns/op  (%+.1f%%)",
			name, b.NsPerOp, c.NsPerOp, 100*(ratio-1))
	}

	locs := make([]string, 0, len(cur.Load))
	for loc := range cur.Load {
		if base.Load[loc] != nil {
			locs = append(locs, loc)
		} else {
			fmt.Printf("NEW LANE load/%s: no baseline — ungated; refresh the baseline to gate it\n", loc)
		}
	}
	for loc := range base.Load {
		if cur.Load[loc] == nil {
			fmt.Printf("GONE     load/%s: in baseline but not in current run — coverage lost?\n", loc)
		}
	}
	sort.Strings(locs)
	for _, loc := range locs {
		gateLoad(note, "load/"+loc, base.Load[loc], cur.Load[loc], *threshold)
	}

	if len(regressions) > 0 {
		fmt.Printf("\nFAIL: %d lane(s) regressed beyond %.0f%% (cpus=%d)\n", len(regressions), *threshold*100, cur.CPUs)
		os.Exit(1)
	}
	fmt.Printf("\nPASS: no lane regressed beyond %.0f%% (cpus=%d, %d bench lanes, %d load sections)\n",
		*threshold*100, cur.CPUs, len(lanes), len(locs))
	return nil
}

// gateLoad compares one load run against its baseline phase by phase
// under the shared honesty rules: errors/drops/sheds in the current run
// fail outright (a server that refuses load posts flattering
// percentiles), p99 and QPS gate only over enough arrivals to be signal,
// phases on only one side are reported rather than silently passed, and
// mismatched offered rate/duration makes the runs incomparable.
func gateLoad(note func(bad bool, format string, a ...any), prefix string, bl, cl *loadgen.Report, threshold float64) {
	if bl.Rate != cl.Rate || bl.Duration != cl.Duration {
		fmt.Printf("skip     %s: offered rate/duration differ (%g qps/%v vs %g qps/%v) — not comparable\n",
			prefix, bl.Rate, bl.Duration, cl.Rate, cl.Duration)
		return
	}
	phases := make([]string, 0, len(cl.Phases))
	for ph := range cl.Phases {
		if bl.Phases[ph] != nil {
			phases = append(phases, string(ph))
		} else {
			fmt.Printf("NEW LANE %s/%s: no baseline — ungated; refresh the baseline to gate it\n", prefix, ph)
		}
	}
	for ph := range bl.Phases {
		if cl.Phases[ph] == nil {
			fmt.Printf("GONE     %s/%s: in baseline but not in current run — coverage lost?\n", prefix, ph)
		}
	}
	sort.Strings(phases)
	for _, phName := range phases {
		ph := loadgen.Phase(phName)
		bp, cp := bl.Phases[ph], cl.Phases[ph]
		lane := prefix + "/" + phName
		// Sheds fail like errors and drops: the gate's lanes run without a
		// deadline, so any shed means the server refused offered load —
		// and refused load posts flattering percentiles.
		if bad := cp.Errors > 0 || cp.Dropped > 0 || cp.Shed > 0; bad {
			note(true, "%-32s %d errors, %d drops, %d shed in current run", lane, cp.Errors, cp.Dropped, cp.Shed)
		}
		if bp.P99 > 0 && bp.Offered >= minP99Samples {
			ratio := float64(cp.P99) / float64(bp.P99)
			note(ratio > 1+threshold, "%-32s p99 %12v → %12v  (%+.1f%%)",
				lane, bp.P99.Round(time.Microsecond), cp.P99.Round(time.Microsecond), 100*(ratio-1))
		} else if bp.P99 > 0 {
			fmt.Printf("skip     %-32s %d arrivals: too few for a stable p99 gate\n", lane, bp.Offered)
		}
		// QPS gates only phases with enough arrivals for the ratio to
		// mean anything (update/snapshot phases offer a handful).
		if bp.AchievedQPS > 0 && bp.Offered >= minQPSSamples {
			ratio := cp.AchievedQPS / bp.AchievedQPS
			note(ratio < 1-threshold, "%-32s qps %12.1f → %12.1f  (%+.1f%%)",
				lane, bp.AchievedQPS, cp.AchievedQPS, 100*(ratio-1))
		}
	}
}

// runLoadGate implements `benchjson loadgate <baseline.json> <current.json>`
// over two raw spvload reports (spv-load/v1) — the CI `load-gated` step's
// primitive. It applies the same honesty rules as the bench gate: a
// cross-CPU-count comparison is refused with a visible skip (client-side
// latency on a 1-core runner measures driver/server contention a 4-core
// baseline never saw), and errors, drops or sheds in the current run fail
// outright.
func runLoadGate(args []string) error {
	fs := flag.NewFlagSet("loadgate", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.30, "max allowed fractional regression per lane (0.30 = 30%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchjson loadgate [-threshold 0.30] <baseline.json> <current.json>")
	}
	base, err := readLoadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readLoadReport(fs.Arg(1))
	if err != nil {
		return err
	}
	if base.CPUs != cur.CPUs {
		fmt.Printf("GATE SKIPPED: baseline measured on %d CPUs, current on %d — incomparable.\n", base.CPUs, cur.CPUs)
		fmt.Printf("Commit a load baseline for this CPU count (LOAD_BASELINE_%dcpu.json) to arm the gate.\n", cur.CPUs)
		return nil
	}
	var regressions []string
	note := func(bad bool, format string, a ...any) {
		line := fmt.Sprintf(format, a...)
		if bad {
			regressions = append(regressions, line)
			fmt.Printf("REGRESS  %s\n", line)
		} else {
			fmt.Printf("ok       %s\n", line)
		}
	}
	gateLoad(note, "load", base, cur, *threshold)
	if len(regressions) > 0 {
		fmt.Printf("\nFAIL: %d load lane(s) regressed beyond %.0f%% (cpus=%d)\n", len(regressions), *threshold*100, cur.CPUs)
		os.Exit(1)
	}
	fmt.Printf("\nPASS: no load lane regressed beyond %.0f%% (cpus=%d)\n", *threshold*100, cur.CPUs)
	return nil
}

func readLoadReport(path string) (*loadgen.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r loadgen.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Schema != loadgen.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %s", path, r.Schema, loadgen.Schema)
	}
	return &r, nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Schema != "spv-bench/v1" {
		return nil, fmt.Errorf("%s: schema %q, want spv-bench/v1", path, r.Schema)
	}
	return &r, nil
}
