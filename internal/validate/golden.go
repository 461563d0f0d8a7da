package validate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/metrics"
)

// GoldenSchema versions the golden-baseline JSON layout. Bump it when
// the file structure (not the measured values) changes; a mismatch asks
// for regeneration instead of misreading old files.
const GoldenSchema = 1

// Metric is one named summary statistic of a figure, with the interval
// the regression comparison operates on.
type Metric struct {
	Name string     `json:"name"`
	CI   metrics.CI `json:"ci"`
}

// Golden is one figure's committed baseline: the run's scale, the
// summary metrics, and the full structured result for archaeology.
type Golden struct {
	Schema    int             `json:"schema"`
	Figure    string          `json:"figure"`
	Seed      uint64          `json:"seed"`
	Instances int             `json:"instances"`
	Reads     int             `json:"reads"`
	Metrics   []Metric        `json:"metrics"`
	Result    json.RawMessage `json:"result"`
}

// goldenPath is the on-disk location of one figure's baseline.
func goldenPath(dir, figure string) string {
	return filepath.Join(dir, "figure"+figure+".golden.json")
}

// WriteGolden persists a baseline (indented, trailing newline — the file
// is committed and diffed).
func WriteGolden(dir string, g *Golden) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Figure), append(buf, '\n'), 0o644)
}

// LoadGolden reads and schema-checks one figure's baseline.
func LoadGolden(dir, figure string) (*Golden, error) {
	buf, err := os.ReadFile(goldenPath(dir, figure))
	if err != nil {
		return nil, err
	}
	return parseGolden(figure, buf)
}

// parseGolden decodes and schema-checks one figure's baseline bytes.
func parseGolden(figure string, buf []byte) (*Golden, error) {
	var g Golden
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("validate: golden %s: %w", figure, err)
	}
	if g.Schema != GoldenSchema {
		return nil, fmt.Errorf("validate: golden %s has schema %d, want %d — regenerate with -update-golden",
			figure, g.Schema, GoldenSchema)
	}
	return &g, nil
}

// Drift is one metric's old-vs-new comparison.
type Drift struct {
	Figure string     `json:"figure"`
	Metric string     `json:"metric"`
	Old    metrics.CI `json:"old"`
	New    metrics.CI `json:"new"`
	// Verdict is "ok" (intervals overlap), "drift" (they separated),
	// "missing" (baseline metric gone from the new run), or "new"
	// (unbaselined metric — commit it via -update-golden).
	Verdict string `json:"verdict"`
}

// DriftReport collects every figure's drifts for one comparison run.
type DriftReport struct {
	Schema int     `json:"schema"`
	Rows   []Drift `json:"rows"`
}

// Failures counts rows whose verdict is not "ok".
func (r *DriftReport) Failures() int {
	n := 0
	for _, d := range r.Rows {
		if d.Verdict != "ok" {
			n++
		}
	}
	return n
}

// WriteTable renders the drift report.
func (r *DriftReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "# Golden-baseline drift report (verdict by CI overlap)")
	fmt.Fprintf(w, "%-8s %-36s %28s %28s %s\n", "figure", "metric", "old [lo, hi]", "new [lo, hi]", "verdict")
	for _, d := range r.Rows {
		fmt.Fprintf(w, "%-8s %-36s %8.4f [%7.4f,%7.4f] %8.4f [%7.4f,%7.4f] %s\n",
			d.Figure, d.Metric, d.Old.Value, d.Old.Lo, d.Old.Hi,
			d.New.Value, d.New.Lo, d.New.Hi, d.Verdict)
	}
	fmt.Fprintf(w, "drift rows: %d of %d\n", r.Failures(), len(r.Rows))
}

// CompareGolden diffs a new run against a baseline by metric name:
// overlapping CIs are "ok", separated ones "drift", and set differences
// are "missing"/"new". Rows come back name-sorted for stable reports.
func CompareGolden(old, new *Golden) []Drift {
	oldBy := map[string]metrics.CI{}
	for _, m := range old.Metrics {
		oldBy[m.Name] = m.CI
	}
	var rows []Drift
	seen := map[string]bool{}
	for _, m := range new.Metrics {
		seen[m.Name] = true
		d := Drift{Figure: new.Figure, Metric: m.Name, New: m.CI}
		if o, ok := oldBy[m.Name]; ok {
			d.Old = o
			if o.Overlaps(m.CI) {
				d.Verdict = "ok"
			} else {
				d.Verdict = "drift"
			}
		} else {
			d.Verdict = "new"
		}
		rows = append(rows, d)
	}
	for name, o := range oldBy {
		if !seen[name] {
			rows = append(rows, Drift{Figure: new.Figure, Metric: name, Old: o, Verdict: "missing"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	return rows
}
