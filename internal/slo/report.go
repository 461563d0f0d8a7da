package slo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteDashboard renders the snapshot as a plain-text operator view:
// run overview, per-shard SLI table, per-cell latency table, device
// utilization and health, the burn-rate alert timeline, and the top-K
// slowest frames with their critical-path attribution. Deterministic:
// same snapshot, same bytes.
func (s *Snapshot) WriteDashboard(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "SLO dashboard  window [%.0f, %.0f] us  tick %.0f us  slide %d ticks\n",
		s.StartMicros, s.EndMicros, s.Config.TickMicros, s.Config.SlideTicks)
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "== service levels ==")
	fmt.Fprintf(bw, "%-8s %7s %7s %6s %9s %9s %9s %9s %12s %9s\n",
		"scope", "served", "answers", "shed", "p50_us", "p99_us", "max_us", "q_p99_us", "availability", "shed_rate")
	writeScope := func(sli ScopeSLI) {
		scope := sli.Scope
		if scope == "" {
			scope = "tier"
		} else if scope != "router" {
			scope = "shard " + scope
		}
		fmt.Fprintf(bw, "%-8s %7d %7d %6d %9.1f %9.1f %9.1f %9.1f %12.5f %9.5f\n",
			scope, sli.Served, sli.Answers, sli.Shed,
			sli.LatencyP50, sli.LatencyP99, sli.LatencyMax, sli.QueueP99,
			sli.Availability, sli.ShedRate)
	}
	writeScope(s.Tier)
	for _, sli := range s.Shards {
		writeScope(sli)
	}
	fmt.Fprintln(bw)

	if len(s.Cells) > 1 {
		fmt.Fprintln(bw, "== per-cell latency ==")
		fmt.Fprintf(bw, "%-6s %7s %9s %9s\n", "cell", "served", "p50_us", "p99_us")
		for _, c := range s.Cells {
			fmt.Fprintf(bw, "%-6d %7d %9.1f %9.1f\n", c.Cell, c.Served, c.LatencyP50, c.LatencyP99)
		}
		fmt.Fprintln(bw)
	}

	if len(s.LatencySliding) > 0 {
		fmt.Fprintln(bw, "== sliding p99 latency (tier) ==")
		fmt.Fprintf(bw, "%-22s %7s %9s %9s\n", "window_us", "count", "p50_us", "p99_us")
		for _, b := range s.LatencySliding {
			fmt.Fprintf(bw, "[%9.0f,%9.0f) %7d %9.1f %9.1f\n", b.T0, b.T1, b.Count, b.P50, b.P99)
		}
		fmt.Fprintln(bw)
	}

	if len(s.Utilization) > 0 {
		fmt.Fprintln(bw, "== device utilization ==")
		fmt.Fprintf(bw, "%-14s %11s %6s %6s\n", "device", "busy_us", "util", "peak")
		for _, u := range s.Utilization {
			fmt.Fprintf(bw, "%-14s %11.1f %6.3f %6.3f\n", devName(u.Shard, u.Device), u.BusyMicros, u.Utilization, u.PeakUtilization)
		}
		fmt.Fprintln(bw)
	}

	if len(s.Devices) > 0 {
		fmt.Fprintln(bw, "== device health ==")
		fmt.Fprintf(bw, "%-14s %7s %12s %12s %8s %8s %7s %s\n",
			"device", "frames", "ewma_resid", "ewma_cbr", "z_resid", "z_cbr", "score", "status")
		for _, h := range s.Devices {
			status := "ok"
			if h.Suspect {
				status = "SUSPECT"
			}
			fmt.Fprintf(bw, "%-14s %7d %12.4f %12.4f %8.2f %8.2f %7.3f %s\n",
				devName(h.Shard, h.Device), h.Frames, h.EWMAResidual, h.EWMAChainBreak,
				clipZ(h.ZResidual), clipZ(h.ZChainBreak), h.Score, status)
		}
		fmt.Fprintln(bw)
	}

	fmt.Fprintln(bw, "== alerts ==")
	if len(s.Alerts) == 0 {
		fmt.Fprintln(bw, "(no transitions)")
	} else {
		for _, t := range s.Alerts {
			scope := t.Scope
			if scope == "" {
				scope = "tier"
			}
			fmt.Fprintf(bw, "%10.0f us  %-20s %-12s %-7s -> %-7s  fast=%.2fx slow=%.2fx (%d/%d bad in slow window)\n",
				t.AtMicros, t.SLO, scope, t.From, t.To, t.FastBurn, t.SlowBurn, t.BadSlow, t.TotalSlow)
		}
	}
	fmt.Fprintln(bw)

	if k := s.Config.TopSlow; k > 0 && len(s.Frames) > 0 {
		slow := append([]FramePath(nil), s.Frames...)
		sort.SliceStable(slow, func(a, b int) bool {
			if slow[a].Latency != slow[b].Latency {
				return slow[a].Latency > slow[b].Latency
			}
			if slow[a].Stream != slow[b].Stream {
				return slow[a].Stream < slow[b].Stream
			}
			return slow[a].Seq < slow[b].Seq
		})
		if len(slow) > k {
			slow = slow[:k]
		}
		fmt.Fprintf(bw, "== top %d slow frames (critical path) ==\n", len(slow))
		fmt.Fprintf(bw, "%-18s %10s %9s %9s %9s %9s %9s %5s %s\n",
			"frame", "latency_us", "queue", "program", "wait", "anneal", "readout", "retry", "dominant")
		for _, f := range slow {
			id := fmt.Sprintf("s%d/%d", f.Stream, f.Seq)
			if f.Shard != "" {
				id = "sh" + f.Shard + ":" + id
			}
			retry := ""
			if f.Retried {
				retry = "yes"
			}
			fmt.Fprintf(bw, "%-18s %10.1f %9.1f %9.1f %9.1f %9.1f %9.1f %5s %s\n",
				id, f.Latency, f.Queue, f.Program, f.BatchWait, f.Anneal, f.Readout, retry, f.Dominant)
		}
	}
	return bw.Flush()
}

// devName renders a (shard, device) pair compactly.
func devName(shard string, dev int) string {
	if shard == "" {
		return fmt.Sprintf("qpu%d", dev)
	}
	return fmt.Sprintf("sh%s:qpu%d", shard, dev)
}

// clipZ bounds the sentinel huge-z values to keep columns readable.
func clipZ(z float64) float64 {
	if z > 999 {
		return 999
	}
	if z < -999 {
		return -999
	}
	return z
}
