// Package cli holds the plumbing every command shares: a leveled stderr
// logger (replacing the four copy-pasted fatalf helpers) and the
// telemetry flag set (-trace-out, -metrics-out, -manifest-out, -pprof,
// -slo-report) with its lifecycle — register flags, start after
// flag.Parse, flush outputs at exit.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Level is a logger verbosity.
type Level int

// The verbosity ladder: Quiet suppresses Infof, Debug enables Debugf.
const (
	Quiet Level = iota - 1
	Info
	Debug
)

// Logger writes leveled diagnostics to stderr, prefixed with the tool
// name. Results belong on stdout and are not the logger's business.
type Logger struct {
	// Tool prefixes every line ("annealsim: ...").
	Tool string
	// Level gates output: Infof prints at Info and above, Debugf only at
	// Debug. Fatalf always prints.
	Level Level
	// Out overrides the destination (default os.Stderr).
	Out io.Writer
}

// New returns an Info-level logger for the named tool.
func New(tool string) *Logger { return &Logger{Tool: tool, Level: Info} }

// RegisterVerbosity adds -v (debug diagnostics) and -quiet to the global
// flag set, wired to l. Call before flag.Parse.
func (l *Logger) RegisterVerbosity() {
	flag.BoolFunc("v", "verbose diagnostics", func(string) error { l.Level = Debug; return nil })
	l.RegisterQuiet()
}

// RegisterQuiet adds only -quiet — for tools whose -v already means
// something else.
func (l *Logger) RegisterQuiet() {
	flag.BoolFunc("quiet", "suppress diagnostics (errors still print)", func(string) error { l.Level = Quiet; return nil })
}

// SetVerbose raises the level to Debug (for tools with a pre-existing
// verbose flag).
func (l *Logger) SetVerbose(on bool) {
	if on && l.Level < Debug {
		l.Level = Debug
	}
}

func (l *Logger) printf(format string, args ...any) {
	w := l.Out
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, l.Tool+": "+strings.TrimSuffix(format, "\n")+"\n", args...)
}

// Fatalf prints the message and exits 1. Never suppressed.
func (l *Logger) Fatalf(format string, args ...any) {
	l.printf(format, args...)
	os.Exit(1)
}

// Infof prints a diagnostic unless -quiet.
func (l *Logger) Infof(format string, args ...any) {
	if l.Level >= Info {
		l.printf(format, args...)
	}
}

// Debugf prints only with -v.
func (l *Logger) Debugf(format string, args ...any) {
	if l.Level >= Debug {
		l.printf(format, args...)
	}
}

// Telemetry bundles a command's observability outputs. Register flags
// before flag.Parse, Start after it, and defer Flush. With no telemetry
// flags given, Tracer and Registry stay nil — and every instrument in
// the tree is nil-safe, so the run pays nothing.
type Telemetry struct {
	traceOut    string
	metricsOut  string
	manifestOut string
	pprofAddr   string
	sloOut      string
	sloDeadline float64

	// Monitor is the live SLO tap, non-nil only when -slo-report was
	// given. It buffers the tracer's record stream without perturbing it;
	// Flush analyzes the buffer and writes the dashboard.
	Monitor *slo.Monitor

	// Tracer and Registry are non-nil only when their output was
	// requested; pass them to annealer.Params / fleet.Config /
	// core.AnnealConfig / experiments.Config.
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
	// Manifest is always built at Start (flags, git revision, wall time).
	Manifest *telemetry.Manifest
}

// RegisterTelemetry adds the telemetry flags to the global flag set.
func RegisterTelemetry() *Telemetry {
	t := &Telemetry{}
	flag.StringVar(&t.traceOut, "trace-out", "", "write a simulated-clock JSONL trace to this file")
	flag.StringVar(&t.metricsOut, "metrics-out", "", "write a metrics snapshot to this file (.json = JSON, else Prometheus text)")
	flag.StringVar(&t.manifestOut, "manifest-out", "", "write the run manifest (flags, git rev, wall time) to this JSON file")
	flag.StringVar(&t.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&t.sloOut, "slo-report", "", "write the SLO monitoring dashboard (SLIs, burn-rate alerts, device health, critical paths) to this file")
	flag.Float64Var(&t.sloDeadline, "slo-deadline-us", 50_000, "p99 frame-latency target for the -slo-report SLOs (simulated μs)")
	return t
}

// Start builds the manifest and allocates the requested sinks. Call after
// flag.Parse.
func (t *Telemetry) Start(tool string, log *Logger) error {
	t.Manifest = telemetry.NewManifest(tool)
	if t.traceOut != "" || t.sloOut != "" {
		t.Tracer = telemetry.NewTracer()
		t.Tracer.SetManifest(t.Manifest)
	}
	if t.sloOut != "" {
		t.Monitor = slo.NewMonitor(slo.Config{Specs: slo.DefaultSpecs(t.sloDeadline)})
		t.Tracer.AddSink(t.Monitor)
	}
	if t.metricsOut != "" {
		t.Registry = telemetry.NewRegistry()
	}
	if t.pprofAddr != "" {
		addr, err := telemetry.StartPprof(t.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		log.Infof("pprof listening on http://%s/debug/pprof/", addr)
	}
	return nil
}

// Flush writes every requested output file.
func (t *Telemetry) Flush(log *Logger) error {
	if t.traceOut != "" {
		f, err := os.Create(t.traceOut)
		if err != nil {
			return err
		}
		if err := t.Tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote trace (%d records) to %s", t.Tracer.Len(), t.traceOut)
	}
	if t.metricsOut != "" {
		f, err := os.Create(t.metricsOut)
		if err != nil {
			return err
		}
		if strings.EqualFold(filepath.Ext(t.metricsOut), ".json") {
			err = t.Registry.WriteJSON(f)
		} else {
			err = t.Registry.WritePrometheus(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		log.Infof("wrote metrics snapshot to %s", t.metricsOut)
	}
	if t.sloOut != "" {
		snap, err := t.Monitor.Finish()
		if err != nil {
			return err
		}
		f, err := os.Create(t.sloOut)
		if err != nil {
			return err
		}
		if err := snap.WriteDashboard(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote SLO report (%d records, %d alert transitions) to %s",
			t.Monitor.Len(), len(snap.Alerts), t.sloOut)
	}
	if t.manifestOut != "" {
		f, err := os.Create(t.manifestOut)
		if err != nil {
			return err
		}
		if err := t.Manifest.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote run manifest to %s", t.manifestOut)
	}
	return nil
}
