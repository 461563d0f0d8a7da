// Package telemetrytest holds the reference a trace's JSONL encoding is
// checked against: encoding/json over the record with its attributes as
// a map[string]any, whose bytes the tracer's writer must reproduce.
package telemetrytest

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// MapAttrs returns the attributes as a map: nil for nil attrs, and the
// last value of a repeated key, as successive assignments leave it.
func MapAttrs(as telemetry.Attrs) map[string]any {
	if as == nil {
		return nil
	}
	m := make(map[string]any, len(as))
	for _, a := range as {
		m[a.Key] = a.Value()
	}
	return m
}

// mapRecord is telemetry.Record with map attributes.
type mapRecord struct {
	Type     string              `json:"type"`
	Name     string              `json:"name,omitempty"`
	T0       float64             `json:"t0_us"`
	T1       float64             `json:"t1_us,omitempty"`
	Attrs    map[string]any      `json:"attrs,omitempty"`
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
}

// Marshal returns the JSONL line (newline included) encoding/json's
// Encoder writes for r with its attributes as a map.
func Marshal(r telemetry.Record) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(mapRecord{
		Type: r.Type, Name: r.Name, T0: r.T0, T1: r.T1,
		Attrs: MapAttrs(r.Attrs), Manifest: r.Manifest,
	})
	return buf.Bytes(), err
}

// CheckTrace fails t unless every record tr holds has strictly
// increasing attribute keys and each line tr.WriteJSONL writes after the
// manifest equals Marshal of its record.
func CheckTrace(t testing.TB, tr *telemetry.Tracer) {
	t.Helper()
	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("telemetrytest: the tracer holds no records")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("telemetrytest: WriteJSONL: %v", err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	lines = lines[len(lines)-1-len(recs) : len(lines)-1]
	for i, r := range recs {
		for j := 1; j < len(r.Attrs); j++ {
			if r.Attrs[j-1].Key >= r.Attrs[j].Key {
				t.Fatalf("telemetrytest: %s record %d: attribute keys %q, %q out of order or repeated",
					r.Name, i, r.Attrs[j-1].Key, r.Attrs[j].Key)
			}
		}
		want, err := Marshal(r)
		if err != nil {
			t.Fatalf("telemetrytest: %s record %d: encoding/json: %v", r.Name, i, err)
		}
		if !bytes.Equal(lines[i], want) {
			t.Fatalf("telemetrytest: %s record %d:\n got %s\nwant %s", r.Name, i, lines[i], want)
		}
	}
}

// Reencode decodes a JSONL line as encoding/json does, attributes into a
// map (every number a float64), and encodes it again with Marshal's
// encoding: the line a record decoded back into a telemetry.Record must
// re-encode to. It equals the input when every number survives a trip
// through float64, which integers of magnitude up to 2^53 do.
func Reencode(line []byte) ([]byte, error) {
	var r mapRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}
