// Command slotool is the offline SLO analyzer: it reads a simulated-clock
// JSONL trace (written by any command's -trace-out flag), reconstructs the
// serving tier's service levels, burn-rate alert timeline, per-device
// health scores, and per-frame critical paths, and renders the text
// dashboard.
//
// Because the analysis runs over the trace sorted into the exporter's
// deterministic order, slotool's output over an exported trace is
// bit-identical to what a live slo.Monitor attached to the same run
// reports — the trace file IS the monitoring stream.
//
// Usage:
//
//	slotool -trace run.jsonl                       # dashboard to stdout
//	slotool -trace run.jsonl -p99 50000 -tick 5000 # tune SLOs and windows
//	slotool -trace run.jsonl -alerts alerts.jsonl  # export alert timeline
//	slotool -trace corrupt.jsonl -lenient          # tolerate damaged lines
//
// Exit status: 0 on success, 1 on unreadable input or (strict mode) a
// malformed trace line.
package main

import (
	"flag"
	"os"

	"repro/internal/cli"
	"repro/internal/slo"
)

func main() {
	log := cli.New("slotool")
	log.RegisterVerbosity()
	var (
		trace        = flag.String("trace", "", "JSONL trace file to analyze (required; - reads stdin)")
		tick         = flag.Float64("tick", 5000, "tumbling window width in simulated μs")
		slide        = flag.Int("slide", 4, "sliding window length in ticks")
		p99          = flag.Float64("p99", 50_000, "p99 frame-latency target in μs (0 disables the latency SLOs)")
		availability = flag.Float64("availability", 0.001, "availability error budget (0 disables the availability SLOs)")
		shed         = flag.Float64("shed", 0.01, "shed-rate error budget (0 disables the shed SLOs)")
		top          = flag.Int("top", 10, "slowest frames to detail with critical paths")
		alerts       = flag.String("alerts", "", "also write the alert transition timeline to this JSONL file")
		lenient      = flag.Bool("lenient", false, "skip malformed trace lines instead of aborting")
	)
	flag.Parse()
	if *trace == "" {
		log.Fatalf("-trace is required (see -h)")
	}
	if *top < 0 {
		log.Fatalf("-top %d: want a frame count ≥ 0", *top)
	}
	if *slide < 1 {
		log.Fatalf("-slide %d: want at least 1 tick", *slide)
	}
	if *tick <= 0 {
		log.Fatalf("-tick %g: want a positive width", *tick)
	}
	topSlow := *top
	if topSlow == 0 {
		topSlow = -1 // slo.Config reads 0 as its default, negative as none
	}

	in := os.Stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		if err != nil {
			log.Fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	records, stats, err := slo.ParseTrace(in, !*lenient)
	if err != nil {
		log.Fatalf("%v", err)
	}
	log.Debugf("parsed %d records from %d lines", stats.Records, stats.Lines)
	if stats.Skipped > 0 {
		log.Infof("skipped %d malformed line(s)", stats.Skipped)
	}
	if stats.Duplicates > 0 {
		log.Infof("input has %d duplicated line(s) — possibly a doubly-concatenated trace", stats.Duplicates)
	}
	if stats.OutOfOrder > 0 {
		log.Debugf("restored order across %d inversion(s)", stats.OutOfOrder)
	}

	var specs []slo.Spec
	for _, sp := range slo.DefaultSpecs(*p99) {
		switch sp.Kind {
		case slo.KindLatency:
			if *p99 <= 0 {
				continue
			}
		case slo.KindAvailability:
			if *availability <= 0 {
				continue
			}
			sp.Budget = *availability
		case slo.KindShed:
			if *shed <= 0 {
				continue
			}
			sp.Budget = *shed
		}
		specs = append(specs, sp)
	}

	snap, err := slo.Analyze(records, slo.Config{
		TickMicros: *tick,
		SlideTicks: *slide,
		Specs:      specs,
		TopSlow:    topSlow,
	})
	if err != nil {
		log.Fatalf("%v", err)
	}
	if err := snap.WriteDashboard(os.Stdout); err != nil {
		log.Fatalf("%v", err)
	}
	if *alerts != "" {
		f, err := os.Create(*alerts)
		if err != nil {
			log.Fatalf("%v", err)
		}
		if err := slo.WriteAlertsJSONL(f, snap.Alerts); err != nil {
			f.Close()
			log.Fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("%v", err)
		}
		log.Infof("wrote %d alert transition(s) to %s", len(snap.Alerts), *alerts)
	}
}
