// Command perfbench is the repository's serving benchmark. It drives four
// open-loop workloads through the public serving APIs (fleet.Serve,
// fleet.ServeEnsemble, cran.Serve) and reports end-to-end metrics on two
// clocks — the host clock the simulator spends and the simulated clock
// the device model charges — or, with -trace 1, per-layer metrics from a
// pass whose layer calls are timed from outside.
//
//	perfbench -workload uplink-16qam -seed 1 -seconds 20 -trace 0
//	perfbench -workload city-monitored -trace 1 -out records.json
//	perfbench -compare base.json change.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and metrics. The exit code is non-zero when any
// answer is invalid or the passes disagree.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Run shape. Every run is one process with at most two busy goroutines.
const (
	workers      = 2  // fleet workers, or C-RAN shard workers over 1-worker shards
	setupReps    = 3  // set-ups per run; setup_s is their median
	warmupFrames = 64 // untimed warm-up prefix, part of each set-up
	minPasses    = 2  // timed passes per run, at least
	minServed    = 1000
)

// metricDef is one reported metric. exact metrics are deterministic for a
// seed at any worker count, so any change is a behaviour change.
type metricDef struct {
	name, unit, better string
	exact              bool
	// listed metrics are the ones BENCHMARK.json declares and the final
	// line reports; the others are recorded for -compare and humans.
	listed bool
}

var endToEnd = []metricDef{
	{"host_fps", "frames/s", "higher", false, true},
	{"cpu_ms_per_frame", "ms", "lower", false, true},
	{"allocs_per_frame", "count", "lower", false, true},
	{"peak_rss_mb", "MB", "lower", false, true},
	{"setup_s", "s", "lower", false, true},
	{"deadline_hit_rate", "ratio", "higher", true, true},
	// Deterministic per seed but too seed-sensitive (or, for p50 on
	// ensemble-coded, seed-invariant) for a bound across seeds: recorded,
	// and compared exactly per seed by -compare.
	{"sim_p50_latency_us", "us", "lower", true, false},
	{"sim_p99_latency_us", "us", "lower", true, false},
	{"sim_fps", "frames/sim_s", "higher", true, false},
	{"shed_rate", "ratio", "lower", true, false},
	{"ground_state_rate", "ratio", "higher", true, false},
	{"ber", "ratio", "lower", true, false},
	{"error_rate", "ratio", "lower", true, false},
}

var perLayer = []metricDef{
	{"annealer.reads", "count", "lower", true, true},
	{"annealer.kernel_us_per_read", "us", "lower", false, true},
	{"annealer.kernel_share", "ratio", "lower", false, true},
	{"annealer.compiles", "count", "lower", true, true},
	{"annealer.compile_us_per_problem", "us", "lower", false, true},
	{"annealer.prep_hit_rate", "ratio", "higher", true, true},
	{"core.topk_share", "ratio", "lower", false, true},
	{"core.quantum_answer_share", "ratio", "higher", true, true},
	{"qubo.candidate_us_per_frame", "us", "lower", false, true},
	{"mimo.reduce_us_per_frame", "us", "lower", false, true},
	{"mimo.decode_us_per_frame", "us", "lower", false, true},
	{"qubo.classical_reads", "count", "lower", true, true},
	{"qubo.classical_share", "ratio", "lower", false, true},
	{"mimo.fuse_share", "ratio", "lower", false, true},
	{"coding.viterbi_share", "ratio", "lower", false, true},
	{"fleet.sched_us_per_frame", "us", "lower", false, true},
	{"fleet.batches", "count", "lower", true, true},
	{"fleet.mean_batch_size", "count", "higher", true, true},
	{"fleet.queue_p99_us", "us", "lower", true, true},
	{"fleet.device_utilization", "ratio", "higher", true, true},
	{"fleet.retries", "count", "lower", true, true},
	{"fleet.classical_frame_share", "ratio", "higher", true, true},
	{"fleet.route_fallbacks", "count", "lower", true, true},
	{"cran.router_shed", "count", "lower", true, true},
	{"cran.failovers", "count", "lower", true, true},
	{"cran.shard_imbalance", "ratio", "lower", true, true},
	{"telemetry.records", "count", "lower", true, true},
	{"telemetry.serve_overhead_share", "ratio", "lower", false, true},
	{"telemetry.jsonl_share", "ratio", "lower", false, true},
	{"telemetry.jsonl_bytes", "B", "lower", true, true},
	{"slo.finish_share", "ratio", "lower", false, true},
	{"slo.dashboard_share", "ratio", "lower", false, true},
	{"slo.retained_mb", "MB", "lower", false, true},
	{"bench.trace_overhead", "ratio", "lower", false, true},
	{"bench.layer_coverage", "ratio", "higher", false, true},
	{"bench.replay_ratio", "ratio", "lower", false, true},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "root of every input draw")
	seconds := fs.Int("seconds", 20, "timed-pass budget in seconds (at least two passes run)")
	trace := fs.Int("trace", 0, "1: one untraced and one traced pass, reporting per-layer metrics (ignores -seconds)")
	out := fs.String("out", "", "append this run's record to a JSON records file")
	compare := fs.Bool("compare", false, "compare two records files: -compare A.json B.json")
	bench := fs.String("benchmark", "BENCHMARK.json", "bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two records files")
			return 2
		}
		return runCompare(*bench, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	info, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec, err := measure(info, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec.Host = hostFingerprint()
	rec.GitRevision = gitRevision(".")
	rec.RecordedAt = time.Now().UTC().Format(time.RFC3339)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	writeSummary(stdout, rec)
	line, _ := json.Marshal(finalLine(rec))
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed:", rec.Problems)
		return 1
	}
	return 0
}

// metricValue is one measured metric as the final line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStat is one timed pass's host-clock cost.
type passStat struct {
	WallS          float64 `json:"wall_s"`
	CPUMsPerFrame  float64 `json:"cpu_ms_per_frame"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	HostFPS        float64 `json:"host_fps"`
	Digest         string  `json:"digest"`
}

// record is one run, stamped for like-for-like comparison.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       bool                   `json:"trace"`
	Host        fingerprint            `json:"host"`
	GitRevision string                 `json:"git_revision"`
	RecordedAt  string                 `json:"recorded_at"`
	Frames      int                    `json:"frames"`
	SetupS      []float64              `json:"setup_s"`
	Passes      []passStat             `json:"passes"`
	Correct     bool                   `json:"correct"`
	Problems    []string               `json:"problems,omitempty"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Detail holds per-unit layer costs behind the traced run's shares.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// finalLine is the one-line result: the listed metrics of the run's mode.
func finalLine(rec *record) any {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	m := map[string]metricValue{}
	for _, d := range defs {
		if d.listed {
			m[d.name] = rec.Metrics[d.name]
		}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, m}
}

// measure runs one workload: set-ups with warm-up, then either the timed
// untraced passes or one untraced and one traced pass with replays.
func measure(info workloadInfo, seed uint64, budget time.Duration, trace, small bool, log io.Writer) (*record, error) {
	rec := &record{Workload: info.name, Seed: seed, Trace: trace, Metrics: map[string]metricValue{}}
	var w workload
	for r := 0; r < setupReps; r++ {
		// Each set-up and pass starts from a collected heap, so one's
		// garbage is not charged to the next.
		runtime.GC()
		start := time.Now()
		w = info.build(small)
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if _, err := w.pass(min(warmupFrames, w.size()), workers, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
	}
	n := w.size()
	rec.Frames = n

	var first *passOut
	start := time.Now()
	for {
		runtime.GC()
		s := readHost()
		out, err := w.pass(n, workers, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(rec.Passes)+1, err)
		}
		c := since(s)
		rec.Passes = append(rec.Passes, stat(c, n, out.digest()))
		fmt.Fprintf(log, "pass %d: %.2f s wall, %.3f ms CPU/frame, %.0f allocs/frame\n",
			len(rec.Passes), c.Wall.Seconds(), rec.Passes[len(rec.Passes)-1].CPUMsPerFrame,
			rec.Passes[len(rec.Passes)-1].AllocsPerFrame)
		if first == nil {
			first = out
		}
		if trace {
			break
		}
		// Stop once the next pass, at the mean pass length, would overrun
		// the budget.
		elapsed := time.Since(start)
		if len(rec.Passes) >= minPasses && elapsed+elapsed/time.Duration(len(rec.Passes)) > budget {
			break
		}
	}
	if trace {
		if err := tracedRun(w, n, rec, log); err != nil {
			return nil, err
		}
	}

	failed := gate(rec, first, small)
	rec.Attempted = n * len(rec.Passes)
	rec.Failed = failed * len(rec.Passes)
	if !trace {
		for name, v := range simMetrics(first, failed) {
			rec.Metrics[name] = v
		}
		host := func(f func(passStat) float64) float64 {
			xs := make([]float64, len(rec.Passes))
			for i, p := range rec.Passes {
				xs[i] = f(p)
			}
			return median(xs)
		}
		rec.set(endToEnd, "host_fps", host(func(p passStat) float64 { return p.HostFPS }))
		rec.set(endToEnd, "cpu_ms_per_frame", host(func(p passStat) float64 { return p.CPUMsPerFrame }))
		rec.set(endToEnd, "allocs_per_frame", host(func(p passStat) float64 { return p.AllocsPerFrame }))
		rec.set(endToEnd, "peak_rss_mb", peakRSSMB())
		rec.set(endToEnd, "setup_s", median(rec.SetupS))
	}
	return rec, nil
}

func stat(c hostCost, n int, digest string) passStat {
	return passStat{
		WallS:          c.Wall.Seconds(),
		CPUMsPerFrame:  float64(c.CPU) / float64(time.Millisecond) / float64(n),
		AllocsPerFrame: float64(c.Allocs) / float64(n),
		HostFPS:        float64(n) / c.Wall.Seconds(),
		Digest:         digest,
	}
}

func (rec *record) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			rec.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// tracedRun serves one more pass with one busy goroutine and every layer
// call timed, replays the device work inside its serve, and records the
// per-layer metrics.
func tracedRun(w workload, n int, rec *record, log io.Writer) error {
	lg := newLedger()
	runtime.GC()
	s := readHost()
	out, err := w.pass(n, 1, lg)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	tp := tracedPass{out: out, cost: since(s), lg: lg, rl: newLedger(), untracedCPUMS: rec.Passes[0].CPUMsPerFrame}
	rec.Passes = append(rec.Passes, stat(tp.cost, n, out.digest()))
	fmt.Fprintf(log, "traced pass: %.2f s wall, %.3f ms CPU/frame\n", tp.cost.Wall.Seconds(), rec.Passes[1].CPUMsPerFrame)

	jobs, fuses := out.replay()
	tp.fuses = len(fuses)
	if tp.rs, err = replay(jobs, fuses, tp.rl); err != nil {
		return err
	}
	if out.serveAgain != nil {
		if err := tp.rl.time(layerBareServe, out.serveAgain); err != nil {
			return fmt.Errorf("bare serve: %w", err)
		}
	}
	if tp.rs.mismatches > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d replayed jobs did not reproduce the served answer", tp.rs.mismatches))
	}
	metrics, detail := layerMetrics(tp)
	for name, v := range metrics {
		rec.set(perLayer, name, v)
	}
	rec.Detail = detail
	return nil
}

// gate applies the correctness checks and returns the number of frames
// without a valid answer; every failed check lands in rec.Problems and
// clears rec.Correct.
func gate(rec *record, out *passOut, small bool) int {
	failed := 0
	for i, f := range out.frames {
		if why := invalidAnswer(f, out.problems[i]); why != "" {
			if failed < 5 {
				rec.Problems = append(rec.Problems, fmt.Sprintf("frame (%d, %d): %s", f.stream, f.seq, why))
			}
			failed++
		}
	}
	if failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d frames without a valid answer", failed))
	}
	for i, p := range rec.Passes[1:] {
		if p.Digest != rec.Passes[0].Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("pass %d outcome digest %s differs from pass 1's %s", i+2, p.Digest, rec.Passes[0].Digest))
		}
	}
	served := 0
	for _, f := range out.frames {
		if !f.shed {
			served++
		}
	}
	if out.dashboardServed >= 0 && out.dashboardServed != served {
		rec.Problems = append(rec.Problems, fmt.Sprintf("dashboard reports %d served frames, outcomes %d", out.dashboardServed, served))
	}
	if !small && served < minServed {
		rec.Problems = append(rec.Problems, fmt.Sprintf("only %d frames served (want ≥ %d)", served, minServed))
	}
	rec.Correct = len(rec.Problems) == 0
	return failed
}

// simMetrics computes the simulated-clock and quality metrics from raw
// outcomes (never from a serving layer's report). Shed and invalid frames
// miss their deadline.
func simMetrics(out *passOut, failed int) map[string]metricValue {
	n := float64(len(out.frames))
	var lat []float64
	hits, shed, ground := 0, 0, 0
	makespan := 0.0
	for i, f := range out.frames {
		makespan = max(makespan, f.finish)
		if f.shed {
			shed++
		} else {
			lat = append(lat, f.finish-f.arrival)
			if f.finish <= f.arrival+f.deadline && invalidAnswer(f, out.problems[i]) == "" {
				hits++
			}
		}
		if f.best.Energy <= f.ground+1e-9*math.Max(1, math.Abs(f.ground)) {
			ground++
		}
	}
	sort.Float64s(lat)
	vals := map[string]float64{
		"sim_p50_latency_us": nearestRank(lat, 0.50),
		"sim_p99_latency_us": nearestRank(lat, 0.99),
		"sim_fps":            float64(len(lat)) / (makespan / 1e6),
		"deadline_hit_rate":  float64(hits) / n,
		"shed_rate":          float64(shed) / n,
		"ground_state_rate":  float64(ground) / n,
		"ber":                float64(out.bitErrs) / float64(out.bits),
		"error_rate":         float64(failed) / n,
	}
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		if v, ok := vals[d.name]; ok {
			m[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return m
}

// writeSummary prints the run for humans, one metric per line.
func writeSummary(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  frames %d  passes %d  rev %s\n", rec.Workload, rec.Seed, rec.Frames, len(rec.Passes), rec.GitRevision)
	fmt.Fprintf(w, "host %s  nproc %d  GOMAXPROCS %d  %s/%s\n", rec.Host.CPUModel, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GOARCH)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	keys := make([]string, 0, len(rec.Detail))
	for k := range rec.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  detail %-27s %14.6g\n", k, rec.Detail[k])
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

// appendRecord adds rec to the JSON array in path (creating it).
func appendRecord(path string, rec *record) error {
	var recs []record
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("records %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	recs = append(recs, *rec)
	data, err = json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
