package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the host clock: wall time, process CPU
// (user + system, every thread), and the heap allocation count.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func readHost() hostSample {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// hostCost is the host-clock cost between two samples.
type hostCost struct {
	Wall   time.Duration
	CPU    time.Duration
	Allocs uint64
}

func since(a hostSample) hostCost {
	b := readHost()
	return hostCost{Wall: b.wall.Sub(a.wall), CPU: b.cpu - a.cpu, Allocs: b.mallocs - a.mallocs}
}

func (c *hostCost) add(o hostCost) {
	c.Wall += o.Wall
	c.CPU += o.CPU
	c.Allocs += o.Allocs
}

// peakRSSMB is the process's peak resident set size (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// nearestRank returns the p-quantile of sorted by the nearest-rank rule:
// the ⌈p·n⌉-th smallest value (rank clamped to [1, n]), 0 for no values.
// Every simulated-clock percentile the benchmark reports goes through
// here, so a change to a serving layer's own report convention cannot
// move a benchmark number.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps p·n that lands a rounding error above an integer
	// (0.07·100 = 7.000000000000001) on that integer's rank.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fingerprint identifies the host a record was measured on; records are
// compared only between equal fingerprints.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOOS + "/" + runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// gitRevision names the code under test: $BENCH_GIT_REV, else `git
// rev-parse HEAD`, else a SHA-256 over the Go sources below root (a
// checkout without git history still gets a stable, content-derived
// name — never "unknown").
func gitRevision(root string) string {
	if rev := strings.TrimSpace(os.Getenv("BENCH_GIT_REV")); rev != "" {
		return rev
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "tree-" + treeHash(root)
}

// treeHash digests every go.mod and .go file below root, skipping dot
// directories (VCS metadata, build output).
func treeHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
