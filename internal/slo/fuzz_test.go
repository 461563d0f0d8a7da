package slo

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseTrace throws arbitrary bytes at the trace parser. The
// contract under fuzzing: never panic, lenient mode never returns an
// error, strict mode returns either nil or a typed *ParseError, and both
// modes agree on the record set whenever strict succeeds.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"type":"event","name":"fleet/answer","t0_us":10,"attrs":{"stream":1,"seq":0,"device":0,"source":"quantum"}}`))
	f.Add([]byte(`{"type":"span","name":"fleet/frame","t0_us":0,"t1_us":42.5,"attrs":{"stream":0,"seq":0,"queue_us":1.5}}`))
	f.Add([]byte(`{"type":"manifest","manifest":{}}` + "\n" + `{"type":"event","name":"x","t0_us":1}`))
	f.Add([]byte(`{"type":"span","t0_us":`))                                          // truncated object
	f.Add([]byte("not json at all\n{\"type\":\"event\"}"))                            // mixed garbage
	f.Add([]byte(`{"type":"event","t0_us":2}` + "\n" + `{"type":"event","t0_us":1}`)) // out of order
	f.Add([]byte(`{"type":"event","t0_us":1}` + "\n" + `{"type":"event","t0_us":1}`)) // duplicate
	f.Add([]byte(`{"type":"event","attrs":{"k":["nested",{"deep":true}]}}`))          // not a typed attribute: rejected

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, stats, err := ParseTrace(bytes.NewReader(data), false)
		if err != nil {
			t.Fatalf("lenient mode errored: %v", err)
		}
		if len(recs) != stats.Records {
			t.Fatalf("lenient: %d records returned, stats claim %d", len(recs), stats.Records)
		}
		if stats.Records+stats.Skipped != stats.Lines && stats.Skipped != stats.Lines-stats.Records+1 {
			// Normal accounting: every non-blank line is parsed or skipped.
			// A scanner-level failure (over-long line) adds one extra skip
			// beyond the line count.
			t.Fatalf("lenient accounting broken: %+v", stats)
		}

		strictRecs, _, strictErr := ParseTrace(bytes.NewReader(data), true)
		if strictErr != nil {
			var pe *ParseError
			if !errors.As(strictErr, &pe) {
				t.Fatalf("strict error not a *ParseError: %v", strictErr)
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError with line %d", pe.Line)
			}
			return
		}
		if stats.Skipped != 0 {
			t.Fatalf("strict succeeded but lenient skipped %d lines", stats.Skipped)
		}
		if len(strictRecs) != len(recs) {
			t.Fatalf("strict and lenient disagree: %d vs %d records", len(strictRecs), len(recs))
		}
		// Whatever parsed must be analyzable without panics.
		if _, err := Analyze(strictRecs, Config{}); err != nil {
			t.Fatalf("Analyze rejected parsed records: %v", err)
		}
	})
}
