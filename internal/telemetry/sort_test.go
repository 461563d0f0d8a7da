package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// oracleKey is the eager (T0, Name, marshaled attrs) key the record order
// was first written with: every comparison marshals both records' attrs
// as a map, whose keys encoding/json sorts. It is kept here as the
// executable specification of SortRecords.
func oracleKey(r telemetry.Record) (float64, string, string) {
	attrs, _ := json.Marshal(telemetrytest.MapAttrs(r.Attrs))
	return r.T0, r.Name, string(attrs)
}

func oracleLess(a, b telemetry.Record) bool {
	ta, na, aa := oracleKey(a)
	tb, nb, ab := oracleKey(b)
	if ta != tb {
		return ta < tb
	}
	if na != nb {
		return na < nb
	}
	return aa < ab
}

func oracleSort(recs []telemetry.Record) {
	sort.SliceStable(recs, func(i, j int) bool { return oracleLess(recs[i], recs[j]) })
}

func oracleInversions(recs []telemetry.Record) int {
	n := 0
	for i := 1; i < len(recs); i++ {
		if oracleLess(recs[i], recs[i-1]) {
			n++
		}
	}
	return n
}

// tiedRecords draws n records from a small (T0, Name, attrs) space so
// that full-key ties, (T0, Name) ties decided by attrs, and byte-identical
// duplicates are all common. Records equal under the key still differ in
// T1, so a stability slip shows in the output.
func tiedRecords(r *rand.Rand, n int) []telemetry.Record {
	names := []string{"fleet/frame", "fleet/batch", "fleet/answer", "qpu/anneal"}
	recs := make([]telemetry.Record, n)
	for i := range recs {
		rec := telemetry.Record{
			Type: "event",
			Name: names[r.Intn(len(names))],
			T0:   float64(r.Intn(6)) * 0.5,
		}
		if r.Intn(2) == 0 {
			rec.Type = "span"
			rec.T1 = rec.T0 + float64(i)
		}
		switch r.Intn(4) {
		case 0: // no attrs
		case 1:
			rec.Attrs = telemetry.Attrs{}
		case 2:
			rec.Attrs = telemetry.Attrs{telemetry.Int("seq", r.Intn(3))}
		default:
			rec.Attrs = telemetry.Attrs{
				telemetry.Int("seq", r.Intn(3)),
				telemetry.String("shard", []string{"s0", "s1", "s10"}[r.Intn(3)]),
				telemetry.Bool("shed", r.Intn(2) == 0),
			}
		}
		recs[i] = rec
	}
	return recs
}

func jsonLines(t *testing.T, recs []telemetry.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSortRecordsMatchesKeyOrder pins the lazy comparator to the eager
// key order on shuffled record sets with heavy ties: SortRecords, the
// tracer's export order, and slo.ParseTrace (its order and its
// out-of-order count) must all agree with the oracle.
func TestSortRecordsMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		recs := tiedRecords(r, 1+r.Intn(120))
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		want := append([]telemetry.Record(nil), recs...)
		oracleSort(want)
		got := append([]telemetry.Record(nil), recs...)
		telemetry.SortRecords(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SortRecords differs from the key order", trial)
		}
		// A NaN T0 (which no JSON trace can carry, but an emitter could)
		// is unordered against everything, under both comparators.
		n := min(len(recs), 40)
		pairs := append(recs[:n:n], telemetry.Record{Type: "event", Name: "fleet/answer", T0: math.NaN()})
		for i := range pairs {
			for j := range pairs {
				if telemetry.RecordLess(pairs[i], pairs[j]) != oracleLess(pairs[i], pairs[j]) {
					t.Fatalf("trial %d: RecordLess(%+v, %+v) disagrees with the key order", trial, pairs[i], pairs[j])
				}
			}
		}

		tr := telemetry.NewTracer()
		for _, rec := range recs {
			if rec.Type == "span" {
				tr.Span(rec.Name, rec.T0, rec.T1, rec.Attrs)
			} else {
				tr.Event(rec.Name, rec.T0, rec.Attrs)
			}
		}
		if !reflect.DeepEqual(tr.Records(), want) {
			t.Fatalf("trial %d: Tracer.Records differs from the key order", trial)
		}

		// ParseTrace sees the records as they come back from JSON (an
		// empty attrs list is omitted and returns as nil, every number
		// as a float), so the oracle judges the round-tripped records in
		// input order.
		lines := jsonLines(t, recs)
		dec := json.NewDecoder(bytes.NewReader(lines))
		input := make([]telemetry.Record, len(recs))
		for i := range input {
			if err := dec.Decode(&input[i]); err != nil {
				t.Fatal(err)
			}
		}
		parsed, stats, err := slo.ParseTrace(bytes.NewReader(lines), true)
		if err != nil {
			t.Fatal(err)
		}
		if inv := oracleInversions(input); stats.OutOfOrder != inv {
			t.Fatalf("trial %d: OutOfOrder %d, key order counts %d", trial, stats.OutOfOrder, inv)
		}
		oracleSort(input)
		if !reflect.DeepEqual(parsed, input) {
			t.Fatalf("trial %d: ParseTrace order differs from the key order", trial)
		}
	}
}

// TestSortRecordsDistinctT0Allocs keeps per-comparison marshaling out of
// the sort: with no (T0, Name) ties there is nothing to marshal, so a
// whole sort allocates at most one object.
func TestSortRecordsDistinctT0Allocs(t *testing.T) {
	const n = 4096
	src := make([]telemetry.Record, n)
	for i := range src {
		src[i] = telemetry.Record{Type: "event", Name: "fleet/answer", T0: float64(i), Attrs: telemetry.Attrs{telemetry.Int("seq", i)}}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { src[i], src[j] = src[j], src[i] })
	recs := make([]telemetry.Record, n)
	allocs := testing.AllocsPerRun(5, func() {
		copy(recs, src)
		telemetry.SortRecords(recs)
	})
	if allocs > 1 {
		t.Fatalf("SortRecords over %d distinct-T0 records: %.0f allocs, want ≤ 1", n, allocs)
	}
}
