package fleet

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/telemetry"
)

var (
	problemOnce sync.Once
	problemPool []*qubo.Ising
)

// testProblems returns a small pool of detection Isings (6 spins each),
// synthesized once — fleet tests exercise scheduling, not anneal quality.
func testProblems(t testing.TB) []*qubo.Ising {
	t.Helper()
	problemOnce.Do(func() {
		for seed := uint64(1); seed <= 4; seed++ {
			in, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			problemPool = append(problemPool, in.Reduction.Ising)
		}
	})
	return problemPool
}

// uniformRequests lays out perStream frames on each of streams streams,
// arriving interval μs apart per stream.
func uniformRequests(t testing.TB, streams, perStream int, interval, deadline float64) []Request {
	t.Helper()
	probs := testProblems(t)
	var reqs []Request
	for s := 0; s < streams; s++ {
		for q := 0; q < perStream; q++ {
			p := probs[(s*perStream+q)%len(probs)]
			init := make([]int8, p.N)
			for i := range init {
				init[i] = 1
			}
			reqs = append(reqs, Request{
				Stream: s, Seq: q,
				Arrival:      float64(q) * interval,
				Deadline:     deadline,
				Problem:      p,
				InitialState: init,
			})
		}
	}
	return reqs
}

func logicalDevices(n int) []Device {
	devs := make([]Device, n)
	for i := range devs {
		devs[i].SweepsPerMicrosecond = 30
	}
	return devs
}

func TestServeBasic(t *testing.T) {
	reqs := uniformRequests(t, 3, 4, 50, 0)
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(2), NumReads: 4, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), len(reqs))
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if i > 0 {
			prev := &res.Outcomes[i-1]
			if o.Stream < prev.Stream || (o.Stream == prev.Stream && o.Seq <= prev.Seq) {
				t.Fatalf("outcomes not ordered by (stream, seq) at %d", i)
			}
		}
		if o.Shed {
			t.Fatalf("frame (%d,%d) shed (%s) in an underloaded fleet", o.Stream, o.Seq, o.ShedReason)
		}
		if o.Device < 0 || o.Batch < 0 || o.Attempts != 1 {
			t.Fatalf("frame (%d,%d): bad placement %+v", o.Stream, o.Seq, o)
		}
		if o.Start < o.Arrival || o.Finish <= o.Start {
			t.Fatalf("frame (%d,%d): bad timing arrival=%g start=%g finish=%g", o.Stream, o.Seq, o.Arrival, o.Start, o.Finish)
		}
		if len(o.Best.Spins) == 0 {
			t.Fatalf("frame (%d,%d): empty answer", o.Stream, o.Seq)
		}
	}
	rep := res.Report
	if rep.Frames != len(reqs) || rep.Served != len(reqs) || rep.Shed != 0 {
		t.Fatalf("report totals inconsistent: %+v", rep)
	}
	if rep.ThroughputPerSecond <= 0 || rep.P99LatencyMicros < rep.P50LatencyMicros {
		t.Fatalf("report stats inconsistent: %+v", rep)
	}
	var sb strings.Builder
	if err := rep.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "least-loaded") {
		t.Fatalf("report table missing policy:\n%s", sb.String())
	}
}

func TestShedStreamQueueFull(t *testing.T) {
	reqs := uniformRequests(t, 1, 4, 0, 0) // all arrive at t=0
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(1), NumReads: 4, BatchMax: 1, StreamQueueBound: 1, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, o := range res.Outcomes {
		if o.Shed {
			shed++
			if o.ShedReason != ShedStreamQueueFull {
				t.Fatalf("frame (%d,%d): reason %q, want %q", o.Stream, o.Seq, o.ShedReason, ShedStreamQueueFull)
			}
			if o.Source != core.AnswerClassicalFallback {
				t.Fatalf("shed frame answered from %v", o.Source)
			}
		}
	}
	if shed != 2 { // seq 0 dispatches, seq 1 queues, seqs 2–3 shed
		t.Fatalf("shed %d frames, want 2", shed)
	}
}

// TestStreamMeanLatencyOverServedFrames: a stream's mean latency counts
// only its served frames, like the report's mean, so the served-weighted
// mean of the stream means is the report mean.
func TestStreamMeanLatencyOverServedFrames(t *testing.T) {
	reqs := uniformRequests(t, 3, 6, 0, 0) // all arrive at t=0
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(1), NumReads: 4, BatchMax: 1, StreamQueueBound: 2, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Shed == 0 || rep.Served == 0 {
		t.Fatalf("scenario must both serve and shed: %+v", rep)
	}
	sum := map[int]float64{}
	for _, o := range res.Outcomes {
		if !o.Shed {
			sum[o.Stream] += o.Finish - o.Arrival
		}
	}
	var weighted float64
	for _, ss := range rep.Streams {
		if ss.Shed == 0 {
			t.Fatalf("stream %d shed nothing; the test needs shedding on every stream", ss.Stream)
		}
		want := 0.0
		if ss.Served > 0 {
			want = sum[ss.Stream] / float64(ss.Served)
		}
		if math.Abs(ss.MeanLatency-want) > 1e-9*math.Max(1, want) {
			t.Errorf("stream %d: mean latency %v, served-only mean %v", ss.Stream, ss.MeanLatency, want)
		}
		weighted += ss.MeanLatency * float64(ss.Served)
	}
	weighted /= float64(rep.Served)
	if math.Abs(weighted-rep.MeanLatencyMicros) > 1e-9*rep.MeanLatencyMicros {
		t.Fatalf("served-weighted stream mean %v, report mean %v", weighted, rep.MeanLatencyMicros)
	}
}

func TestShedDeadlineExpired(t *testing.T) {
	reqs := uniformRequests(t, 1, 2, 0, 10) // 10 μs budget, service ≫ 10 μs
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(1), NumReads: 50, BatchMax: 1, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Outcomes[0], res.Outcomes[1]
	if first.Shed || !first.DeadlineMissed {
		t.Fatalf("first frame: want served-but-missed, got %+v", first)
	}
	if !second.Shed || second.ShedReason != ShedDeadlineExpired {
		t.Fatalf("second frame: want %q shed, got %+v", ShedDeadlineExpired, second)
	}
}

func TestRetriesExhausted(t *testing.T) {
	devs := logicalDevices(1)
	devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 1}
	reg := telemetry.NewRegistry()
	reqs := uniformRequests(t, 2, 2, 0, 0)
	res, err := Serve(context.Background(), Config{
		Devices: devs, NumReads: 4, Seed: 1, Metrics: reg,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Shed || o.ShedReason != ShedRetriesExhausted {
			t.Fatalf("frame (%d,%d): want %q shed, got %+v", o.Stream, o.Seq, ShedRetriesExhausted, o)
		}
		if o.Attempts != 2 {
			t.Fatalf("frame (%d,%d): %d attempts, want 2", o.Stream, o.Seq, o.Attempts)
		}
	}
	if res.Report.Retries == 0 {
		t.Fatal("report shows no retries")
	}
	if reg.Counter("fleet_retries_total").Value() != float64(res.Report.Retries) {
		t.Fatal("retry counter disagrees with report")
	}
}

func TestDeviceFailAt(t *testing.T) {
	// Device 1 dies before the first arrival; everything must run on
	// device 0.
	devs := logicalDevices(2)
	devs[1].FailAt = 1e-9
	reqs := uniformRequests(t, 2, 3, 10, 0)
	for i := range reqs {
		reqs[i].Arrival += 1
	}
	res, err := Serve(context.Background(), Config{Devices: devs, NumReads: 4, Seed: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Shed || o.Device != 0 {
			t.Fatalf("frame (%d,%d) ran on device %d (shed=%v)", o.Stream, o.Seq, o.Device, o.Shed)
		}
	}

	// Whole fleet down before anything arrives: degradation ladder's
	// last rung answers every frame classically.
	devs = logicalDevices(1)
	devs[0].FailAt = 1
	late := uniformRequests(t, 1, 2, 5, 0)
	for i := range late {
		late[i].Arrival += 5
	}
	res, err = Serve(context.Background(), Config{Devices: devs, NumReads: 4, Seed: 1}, late)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Shed || o.ShedReason != ShedDeviceUnavailable {
			t.Fatalf("frame (%d,%d): want %q shed, got %+v", o.Stream, o.Seq, ShedDeviceUnavailable, o)
		}
	}
}

func TestBatchingRules(t *testing.T) {
	probs := testProblems(t)
	mk := func(stream, seq int, arrival, sp float64) Request {
		p := probs[0]
		init := make([]int8, p.N)
		for i := range init {
			init[i] = 1
		}
		return Request{Stream: stream, Seq: seq, Arrival: arrival, Problem: p, InitialState: init, Sp: sp}
	}

	// Occupy the one device with stream 9, queue three stream-0 frames
	// plus an incompatible-schedule frame; on completion the three
	// compatible frames must share one programming cycle (continuation
	// included), the odd schedule must not.
	reqs := []Request{
		mk(9, 0, 0, 0),
		mk(0, 0, 1, 0), mk(0, 1, 2, 0), mk(0, 2, 3, 0),
		mk(1, 0, 1, 0.6),
	}
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(1), NumReads: 8, BatchMax: 8, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]Outcome{}
	for _, o := range res.Outcomes {
		byKey[[2]int{o.Stream, o.Seq}] = o
	}
	b0 := byKey[[2]int{0, 0}].Batch
	if byKey[[2]int{0, 1}].Batch != b0 || byKey[[2]int{0, 2}].Batch != b0 {
		t.Fatalf("stream-0 frames split across batches: %v", byKey)
	}
	if byKey[[2]int{1, 0}].Batch == b0 {
		t.Fatal("incompatible schedule (sp=0.6) batched with sp-default frames")
	}
	for seq := 1; seq <= 2; seq++ {
		if byKey[[2]int{0, seq}].Finish <= byKey[[2]int{0, seq - 1}].Finish {
			t.Fatal("same-batch frames should finish staggered in FIFO order")
		}
	}
}

func TestRoundRobinSpreadsDevices(t *testing.T) {
	reqs := uniformRequests(t, 4, 2, 0, 0)
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(4), Policy: PolicyRoundRobin, NumReads: 4, BatchMax: 1, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, o := range res.Outcomes {
		used[o.Device] = true
	}
	if len(used) != 4 {
		t.Fatalf("round-robin used %d of 4 devices", len(used))
	}
}

func TestValidateRequests(t *testing.T) {
	p := testProblems(t)[0]
	good := func() Request {
		init := make([]int8, p.N)
		return Request{Stream: 0, Seq: 0, Problem: p, InitialState: init}
	}
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"nil problem", func(r *Request) { r.Problem = nil }},
		{"short candidate", func(r *Request) { r.InitialState = r.InitialState[:1] }},
		{"negative arrival", func(r *Request) { r.Arrival = -1 }},
		{"NaN arrival", func(r *Request) { r.Arrival = nan() }},
		{"inf arrival", func(r *Request) { r.Arrival = inf() }},
		{"negative deadline", func(r *Request) { r.Deadline = -5 }},
		{"NaN deadline", func(r *Request) { r.Deadline = nan() }},
		{"bad sp", func(r *Request) { r.Sp = 1.5 }},
		{"negative tp", func(r *Request) { r.Tp = -1 }},
		{"negative reads", func(r *Request) { r.NumReads = -1 }},
		{"huge reads", func(r *Request) { r.NumReads = annealer.MaxReads + 1 }},
		{"negative stream", func(r *Request) { r.Stream = -1 }},
		{"huge seq", func(r *Request) { r.Seq = 1 << 31 }},
	}
	for _, tc := range cases {
		r := good()
		tc.mutate(&r)
		if err := ValidateRequests([]Request{r}); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := ValidateRequests([]Request{good(), good()}); err == nil {
		t.Error("duplicate (stream, seq) passed")
	}
	a, b := good(), good()
	b.Seq, b.Arrival = 1, 0
	a.Arrival = 10 // seq 0 arrives after seq 1
	if err := ValidateRequests([]Request{a, b}); err == nil {
		t.Error("out-of-order per-stream arrivals passed")
	}
}

func TestConfigValidation(t *testing.T) {
	reqs := uniformRequests(t, 1, 1, 0, 0)
	bads := []Config{
		{},
		{Devices: logicalDevices(1), Policy: Policy(99)},
		{Devices: logicalDevices(1), BatchMax: -1},
		{Devices: logicalDevices(1), StreamQueueBound: -1},
		{Devices: logicalDevices(1), Workers: -1},
		{Devices: logicalDevices(1), Sp: 2},
		{Devices: logicalDevices(1), NumReads: -1},
		{Devices: []Device{{SweepsPerMicrosecond: -1}}},
		{Devices: []Device{{Faults: annealer.FaultModel{ReadTimeoutRate: 2}}}},
	}
	for i, cfg := range bads {
		if _, err := Serve(context.Background(), cfg, reqs); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyLeastLoaded, PolicyRoundRobin, PolicyEDF} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("unknown policy parsed")
	}
}

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }

// TestServeDefaultDevicesImprovesCandidates is the regression test for
// the frozen serve: 40 frames of 8-user 16-QAM, each reverse-annealed
// for 12 reads from its greedy candidate on DefaultDevices(2) (QPU
// leases: calibrated and stock profiles, ICE on device 1). Run on the
// clique-embedded problem, single-spin dynamics never flip a chain and
// every answer only echoes its candidate; on the logical problem the
// best read strictly beats the candidate on nearly every frame.
func TestServeDefaultDevicesImprovesCandidates(t *testing.T) {
	const frames = 40
	reqs := make([]Request, frames)
	for i := range reqs {
		in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0x6A1E + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		is := in.Reduction.Ising
		reqs[i] = Request{
			Stream: i % 4, Seq: i / 4, Arrival: float64(i) * 2000,
			Problem: is, InitialState: qubo.GreedySearchIsing(is, qubo.OrderDescending),
		}
	}
	res, err := Serve(context.Background(), Config{Devices: DefaultDevices(2), NumReads: 12, Seed: 3}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	gains := 0
	for _, o := range res.Outcomes {
		if o.Gain {
			gains++
		}
	}
	if gains < 3*frames/4 {
		t.Fatalf("%d of %d served answers beat their greedy candidate, want ≥ %d: the quantum half is not refining", gains, frames, 3*frames/4)
	}
	if want := float64(gains) / frames; res.Report.QuantumGainShare != want {
		t.Fatalf("report quantum-gain share %g, outcomes %g", res.Report.QuantumGainShare, want)
	}
}
