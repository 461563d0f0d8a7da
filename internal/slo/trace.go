package slo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// ParseError is a typed per-line trace parse failure.
type ParseError struct {
	// Line is the 1-based JSONL line number.
	Line int
	// Err is the underlying JSON error.
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("slo: trace line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseStats summarizes one ParseTrace call — what the lenient mode
// tolerated is reported, never silently dropped.
type ParseStats struct {
	// Lines is the number of non-blank input lines.
	Lines int
	// Records is the number of parsed records (manifest line included).
	Records int
	// Skipped counts malformed lines dropped in lenient mode.
	Skipped int
	// Duplicates counts lines byte-identical to an earlier line. They are
	// kept (the analyzer sees them), but a nonzero count flags a
	// corrupted or doubly-concatenated trace.
	Duplicates int
	// OutOfOrder counts adjacent input pairs that violated the exporter's
	// deterministic telemetry.SortRecords order; ParseTrace restores the
	// order, so a nonzero count is informational.
	OutOfOrder int
}

// maxTraceLine bounds one JSONL line (16 MiB — far above any real record,
// small enough that a corrupt unterminated line fails fast).
const maxTraceLine = 16 << 20

// ParseTrace reads a JSONL trace. In strict mode the first malformed
// line aborts with a *ParseError; in lenient mode malformed lines are
// counted and skipped (a truncated tail parses to the records before the
// cut). Records are returned re-sorted into the exporter's deterministic
// order (telemetry.SortRecords), with the manifest record (if any)
// first, so downstream analysis is insensitive to line shuffling.
func ParseTrace(r io.Reader, strict bool) ([]telemetry.Record, ParseStats, error) {
	var (
		stats    ParseStats
		manifest []telemetry.Record
		records  []telemetry.Record
		seen     = make(map[string]struct{})
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxTraceLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		stats.Lines++
		if _, dup := seen[string(line)]; dup {
			stats.Duplicates++
		} else {
			seen[string(line)] = struct{}{}
		}
		var rec telemetry.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if strict {
				return nil, stats, &ParseError{Line: lineNo, Err: err}
			}
			stats.Skipped++
			continue
		}
		stats.Records++
		if rec.Type == "manifest" {
			manifest = append(manifest, rec)
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		if strict {
			return nil, stats, &ParseError{Line: lineNo + 1, Err: err}
		}
		// Lenient: an over-long or truncated tail loses everything after
		// the failure point but keeps what parsed.
		stats.Skipped++
	}
	stats.OutOfOrder = countInversions(records)
	telemetry.SortRecords(records)
	return append(manifest, records...), stats, nil
}

// countInversions counts adjacent pairs out of telemetry.RecordLess order.
func countInversions(recs []telemetry.Record) int {
	n := 0
	for i := 1; i < len(recs); i++ {
		if telemetry.RecordLess(recs[i], recs[i-1]) {
			n++
		}
	}
	return n
}
