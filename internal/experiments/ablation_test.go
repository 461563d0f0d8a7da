package experiments

import (
	"strings"
	"testing"
)

// TestModuleAblationShape verifies the §5 hypothesis the paper states:
// stronger classical modules deliver better candidate quality than GS,
// and every module's hybrid solves at least as often as the random
// initializer's.
func TestModuleAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	res, err := RunModuleAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	rows := map[string]ModuleAblationRow{}
	for _, row := range res.Rows {
		rows[row.Module] = row
	}
	gs, ok1 := rows["gs"]
	kb, ok2 := rows["kbest"]
	rnd, ok3 := rows["random"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing rows")
	}
	// Tree search beats greedy on candidate quality (the paper's §5
	// expectation: application-specific solvers improve ΔE_IS%).
	if kb.MeanDeltaEIS > gs.MeanDeltaEIS+1e-9 {
		t.Fatalf("K-best candidates (%v) no better than greedy (%v)", kb.MeanDeltaEIS, gs.MeanDeltaEIS)
	}
	// Random initialization is the worst candidate by far.
	if rnd.MeanDeltaEIS < gs.MeanDeltaEIS {
		t.Fatalf("random candidates (%v) better than greedy (%v)?", rnd.MeanDeltaEIS, gs.MeanDeltaEIS)
	}
	// Solve rates are probabilities.
	for _, row := range res.Rows {
		if row.SolveRate < 0 || row.SolveRate > 1 || row.HybridPStar < 0 || row.HybridPStar > 1 {
			t.Fatalf("row %q out of range: %+v", row.Module, row)
		}
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "kbest") {
		t.Fatal("table render incomplete")
	}
}

// TestDeviceAblationShape verifies the calibration narrative: the
// calibrated simulator retains AND repairs; TF moves retain but do not
// repair; the embedded QPU breaks chains under FA; ICE noise degrades
// everything.
func TestDeviceAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	res, err := RunDeviceAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]DeviceAblationRow{}
	for _, row := range res.Rows {
		rows[row.Variant] = row
	}
	cal, ok := rows["calibrated"]
	if !ok {
		t.Fatal("missing calibrated row")
	}
	if cal.RetentionHighSp < 0.3 {
		t.Fatalf("calibrated retention %v too low", cal.RetentionHighSp)
	}
	if cal.RepairMidSp <= 0 {
		t.Fatal("calibrated simulator never repaired the imperfect candidate")
	}
	tf, ok := rows["svmc-tf"]
	if !ok {
		t.Fatal("missing svmc-tf row")
	}
	if tf.RetentionHighSp < cal.RetentionHighSp-0.2 {
		t.Fatalf("TF retention %v unexpectedly below calibrated %v", tf.RetentionHighSp, cal.RetentionHighSp)
	}
	emb, ok := rows["embedded"]
	if !ok {
		t.Fatal("missing embedded row")
	}
	if emb.BrokenChainRate <= 0 {
		t.Fatal("embedded runs reported no chain breakage")
	}
	ice, ok := rows["ice-noise"]
	if !ok {
		t.Fatal("missing ice row")
	}
	if ice.RetentionHighSp > cal.RetentionHighSp+0.1 {
		t.Fatalf("ICE noise improved retention (%v vs %v)", ice.RetentionHighSp, cal.RetentionHighSp)
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "calibrated") {
		t.Fatal("table render incomplete")
	}
}

// TestGreedyOrderAblation documents the §4.1 prose-ambiguity resolution:
// descending (greedy-descent-style) ordering is at least as good as the
// literal ascending prose on average.
func TestGreedyOrderAblation(t *testing.T) {
	cfg := tiny()
	res, err := RunGreedyOrderAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Fatal("no instances")
	}
	if res.MeanDeltaEISDescending > res.MeanDeltaEISAscending+1e-9 {
		t.Fatalf("descending order (%v) worse on average than ascending (%v)",
			res.MeanDeltaEISDescending, res.MeanDeltaEISAscending)
	}
	if res.DescendingWinsOrTiesCount*2 < res.Instances {
		t.Fatalf("descending wins/ties on only %d/%d instances",
			res.DescendingWinsOrTiesCount, res.Instances)
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "descending") {
		t.Fatal("table render incomplete")
	}
}

// TestBERShape: the intro's motivation — linear detection loses badly to
// (near-)ML on a correlated channel, BER falls with SNR, and the hybrid
// tracks the sphere decoder.
func TestBERShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	res, err := RunBER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for det, bers := range res.BER {
		for _, b := range bers {
			total[det] += b
		}
	}
	if total["zf"] <= total["sd"] {
		t.Fatalf("ZF (%v) not worse than exact ML (%v)", total["zf"], total["sd"])
	}
	if total["gs+ra"] > total["zf"] {
		t.Fatalf("hybrid (%v) worse than ZF (%v)", total["gs+ra"], total["zf"])
	}
	// BER decreases with SNR for the ML detector.
	sd := res.BER["sd"]
	if sd[0] < sd[len(sd)-1] {
		t.Fatalf("ML BER rose with SNR: %v", sd)
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "BER vs SNR") {
		t.Fatal("table render incomplete")
	}
}

// TestHardnessShape: well-conditioned channels are easy (high success,
// near-zero greedy defect); the hardest bucket is measurably worse.
func TestHardnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	res, err := RunHardness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows []HardnessRow
	for _, row := range res.Rows {
		if row.Instances > 0 {
			rows = append(rows, row)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("only %d condition-number buckets populated", len(rows))
	}
	// Success probabilities are the hardness signal. (Greedy ΔE%% is NOT
	// asserted: it is normalized by each instance's own energy scale, so
	// it is not comparable across channels of different conditioning.)
	first, last := rows[0], rows[len(rows)-1]
	if last.HybridPStar >= first.HybridPStar {
		t.Fatalf("hybrid success did not degrade with conditioning: %v vs %v",
			first.HybridPStar, last.HybridPStar)
	}
	if last.FAPStar >= first.FAPStar {
		t.Fatalf("FA success did not degrade with conditioning: %v vs %v",
			first.FAPStar, last.FAPStar)
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "condition number") {
		t.Fatal("table render incomplete")
	}
}

// TestQAOAShape: deeper QAOA improves success; all probabilities valid;
// on these sizes the ideal gate model beats random guessing massively.
func TestQAOAShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	cfg.Instances = 2
	res, err := RunQAOA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Layerwise training optimizes EXPECTED COST monotonically;
		// success probability mostly follows but may wobble — allow slack.
		if row.QAOAP3 < row.QAOAP1*0.5 {
			t.Fatalf("%du-%v: depth 3 (%v) collapsed vs depth 1 (%v)", row.Users, row.Scheme, row.QAOAP3, row.QAOAP1)
		}
		// The p=1 ORACLE must beat uniform random guessing on the small
		// workloads (the cost-optimized column legitimately may not:
		// minimizing ⟨H⟩ can concentrate amplitude on low-lying excited
		// states at the ground state's expense).
		random := 1.0 / float64(int(1)<<uint(row.Qubits))
		if row.Qubits <= 12 && row.QAOAP1Oracle < 2*random {
			t.Fatalf("%du-%v: QAOA p1 oracle %v at random-guess level %v", row.Users, row.Scheme, row.QAOAP1Oracle, random)
		}
		// The annealing path dominates low-depth QAOA at every size —
		// the observed (and literature-consistent) ordering.
		if row.QAOAP3 > row.RAPStar {
			t.Fatalf("%du-%v: depth-3 QAOA (%v) beat the annealer (%v)?", row.Users, row.Scheme, row.QAOAP3, row.RAPStar)
		}
		for _, p := range []float64{row.QAOAP1, row.QAOAP3, row.QAOAP1Oracle, row.FAPStar, row.RAPStar} {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %+v", row)
			}
		}
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "QAOA") {
		t.Fatal("table render incomplete")
	}
}

// TestCapacityShape: more QPUs monotonically reduce deadline misses and
// per-unit utilization; one QPU saturates under the chosen load.
func TestCapacityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	cfg := tiny()
	res, err := RunCapacity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0].DeadlineMissRate <= res.Rows[len(res.Rows)-1].DeadlineMissRate {
		t.Fatalf("adding QPUs did not reduce misses: %v -> %v",
			res.Rows[0].DeadlineMissRate, res.Rows[len(res.Rows)-1].DeadlineMissRate)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].DeadlineMissRate > res.Rows[i-1].DeadlineMissRate+1e-9 {
			t.Fatal("miss rate not monotone in pool size")
		}
		if res.Rows[i].MeanLatencyMicros > res.Rows[i-1].MeanLatencyMicros+1e-9 {
			t.Fatal("latency not monotone in pool size")
		}
	}
	// The single-QPU configuration is overloaded (service > arrival).
	if res.Rows[0].QPUUtilization < 0.8 {
		t.Fatalf("single QPU utilization %v — load too light for the study", res.Rows[0].QPUUtilization)
	}
	var b strings.Builder
	res.WriteTable(&b)
	if !strings.Contains(b.String(), "Capacity planning") {
		t.Fatal("table render incomplete")
	}
}
