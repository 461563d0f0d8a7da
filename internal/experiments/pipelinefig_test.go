package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStagedFiguresMatchCommitted regenerates Figure 2 and the capacity
// study at Quick scale and compares them byte for byte with the committed
// results/ files, which cmd/experiments writes as the table plus a blank
// line.
func TestStagedFiguresMatchCommitted(t *testing.T) {
	for _, fig := range []struct {
		file string
		run  func(Config) (tabler, error)
	}{
		{"figure2.txt", func(cfg Config) (tabler, error) { return tableFor(PipelineFigure(cfg, 0)) }},
		{"figurecapacity.txt", func(cfg Config) (tabler, error) { return tableFor(RunCapacity(cfg)) }},
	} {
		res, err := fig.run(Quick())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		sb.WriteString("\n")
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("%s drifted from the committed table\n--- got ---\n%s--- want ---\n%s", fig.file, got, want)
		}
	}
}
