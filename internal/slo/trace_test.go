package slo

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/annealer"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

const fixturePath = "testdata/trace_small.jsonl"

// fixtureTrace regenerates the committed fixture's byte content: a small
// deterministic fleet run with one drifting device. The fixture on disk
// is written by TestRegenerateFixture (run with SLO_REGEN=1).
func fixtureTrace(t testing.TB) []byte {
	t.Helper()
	devs := logicalDevices(2)
	devs[1].Faults = annealer.FaultModel{CalibrationDriftRate: 0.5, DriftSigma: 0.4}
	reqs := uniformRequests(t, 2, 5, 150, 0)
	tr := telemetry.NewTracer()
	if _, err := fleet.Serve(context.Background(), fleet.Config{
		Devices: devs, NumReads: 4, Seed: 23, Trace: tr,
	}, reqs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegenerateFixture rewrites testdata/trace_small.jsonl when
// SLO_REGEN=1 is set; otherwise it verifies the committed fixture still
// matches what the serving tier emits today, so the fixture cannot
// silently rot.
func TestRegenerateFixture(t *testing.T) {
	want := fixtureTrace(t)
	if os.Getenv("SLO_REGEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("%v (regenerate with SLO_REGEN=1 go test -run TestRegenerateFixture ./internal/slo/)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("committed fixture is stale; regenerate with SLO_REGEN=1")
	}
}

func TestParseTraceCleanRoundTrip(t *testing.T) {
	raw := fixtureTrace(t)
	recs, stats, err := ParseTrace(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Duplicates != 0 || stats.OutOfOrder != 0 {
		t.Fatalf("clean export parsed dirty: %+v", stats)
	}
	if stats.Records != stats.Lines || stats.Records == 0 {
		t.Fatalf("line/record mismatch: %+v", stats)
	}
	// The parsed record set analyzes without error and yields frames.
	snap, err := Analyze(recs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tier.Served == 0 {
		t.Fatalf("no served frames in fixture analysis: %+v", snap.Tier)
	}
}

func TestParseTraceShuffledLinesSortBack(t *testing.T) {
	raw := fixtureTrace(t)
	recs, _, err := ParseTrace(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	// Reverse the body (keep the manifest line wherever it lands — the
	// parser pulls it back to the front).
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	shuffled := bytes.Join(lines, []byte("\n"))
	recs2, stats, err := ParseTrace(bytes.NewReader(shuffled), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutOfOrder == 0 {
		t.Fatal("reversed input reported zero inversions")
	}
	if !reflect.DeepEqual(recs, recs2) {
		t.Fatal("shuffled trace did not sort back to canonical order")
	}
}

func TestParseTraceMalformedStrictVsLenient(t *testing.T) {
	raw := fixtureTrace(t)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	lines[2] = []byte(`{"type":"span","t0_us":`) // truncated mid-object
	dirty := bytes.Join(lines, []byte("\n"))

	_, _, err := ParseTrace(bytes.NewReader(dirty), true)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("strict mode error %v, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("ParseError line %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("error string %q lacks line number", pe.Error())
	}

	recs, stats, err := ParseTrace(bytes.NewReader(dirty), false)
	if err != nil {
		t.Fatalf("lenient mode errored: %v", err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("lenient skipped %d, want 1", stats.Skipped)
	}
	if len(recs) != stats.Records {
		t.Fatalf("returned %d records, stats say %d", len(recs), stats.Records)
	}
}

func TestParseTraceDuplicatedAndTruncated(t *testing.T) {
	raw := fixtureTrace(t)

	// Doubly-concatenated trace: every line is a duplicate the second
	// time around.
	doubled := append(append([]byte(nil), raw...), raw...)
	_, stats, err := ParseTrace(bytes.NewReader(doubled), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates != stats.Lines/2 {
		t.Fatalf("doubled trace: %d duplicates over %d lines", stats.Duplicates, stats.Lines)
	}

	// Truncated tail: cut mid-line. Lenient keeps the prefix.
	cut := raw[:len(raw)-20]
	recs, stats, err := ParseTrace(bytes.NewReader(cut), false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("truncated tail skipped %d, want 1", stats.Skipped)
	}
	if len(recs) == 0 {
		t.Fatal("truncated trace lost its prefix")
	}
	// Strict mode refuses the same input.
	if _, _, err := ParseTrace(bytes.NewReader(cut), true); err == nil {
		t.Fatal("strict mode accepted a truncated trace")
	}
}

func TestParseTraceEmptyAndBlank(t *testing.T) {
	recs, stats, err := ParseTrace(strings.NewReader("\n\n  \n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Lines != 0 {
		t.Fatalf("blank input produced %d records, %+v", len(recs), stats)
	}
}

// TestFixtureRoundTripsByteForByte reads the committed fixture back and
// re-exports it: typed attributes decoded from JSON (every number a
// float) must encode to the bytes they were read from.
func TestFixtureRoundTripsByteForByte(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ParseTrace(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer()
	for _, r := range recs {
		if r.Type == "span" {
			tr.Span(r.Name, r.T0, r.T1, r.Attrs)
		} else {
			tr.Event(r.Name, r.T0, r.Attrs)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("fixture did not round-trip byte for byte")
	}
}

// TestParseTraceRejectsUntypedAttrs pins the typed decode: an attribute
// that is neither a number, a string, a bool nor an array of numbers
// (or null) fails strict parsing and is skipped leniently.
func TestParseTraceRejectsUntypedAttrs(t *testing.T) {
	good := `{"type":"event","name":"x","t0_us":1,"attrs":{"e":[1,2.5],"n":null,"s":"v","b":true,"k":3}}`
	for _, bad := range []string{
		`{"type":"event","name":"x","t0_us":2,"attrs":{"k":{"deep":true}}}`,
		`{"type":"event","name":"x","t0_us":2,"attrs":{"k":["nested",1]}}`,
		`{"type":"event","name":"x","t0_us":2,"attrs":{"k":[[1]]}}`,
	} {
		data := good + "\n" + bad + "\n"
		_, _, err := ParseTrace(strings.NewReader(data), true)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 {
			t.Fatalf("%s: strict error %v, want a *ParseError on line 2", bad, err)
		}
		recs, stats, err := ParseTrace(strings.NewReader(data), false)
		if err != nil || stats.Skipped != 1 || len(recs) != 1 {
			t.Fatalf("%s: lenient parse %d records, %+v, %v", bad, len(recs), stats, err)
		}
	}
	recs, _, err := ParseTrace(strings.NewReader(good), true)
	if err != nil {
		t.Fatal(err)
	}
	as := recs[0].Attrs
	var keys []string
	for _, a := range as {
		keys = append(keys, a.Key)
	}
	if strings.Join(keys, ",") != "b,e,k,n,s" {
		t.Fatalf("decoded keys %v, want them sorted", keys)
	}
	if k, ok := as.Int("k"); !ok || k != 3 {
		t.Fatalf("k = %d, %v", k, ok)
	}
	if s, ok := as.Str("s"); !ok || s != "v" || !as.Bool("b") {
		t.Fatalf("s = %q, %v; b = %v", s, ok, as.Bool("b"))
	}
	if e, _ := as.Lookup("e"); !reflect.DeepEqual(e.Value(), []float64{1, 2.5}) {
		t.Fatalf("e = %#v", e.Value())
	}
	if n, _ := as.Lookup("n"); !reflect.DeepEqual(n.Value(), []float64(nil)) {
		t.Fatalf("n = %#v", n.Value())
	}
}
