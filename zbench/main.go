// Command zbench is the repository benchmark: one command that builds a
// workload's inputs from a seed, drives the program with only those inputs,
// checks every verdict against the answer known from construction, and
// prints end-to-end metrics (or, with -trace 1, per-layer metrics taken
// from spans around calls into each module).
//
// Run it through zbench/run.sh from the repository root; see
// zbench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run builds its inputs at least minSetupReps times, and keeps going
// (up to maxSetupReps) until set-up has taken minSetupSeconds in all;
// setup_s is the median. Work moved into set-up shows, and a set-up of a
// few milliseconds still gets enough repetitions that one stall does not
// decide the figure.
const (
	minSetupReps    = 5
	maxSetupReps    = 25
	minSetupSeconds = 1.0
)

// phases are the shares of --seconds in an untraced run: a is the
// one-caller closed loop (checks_*), b the nproc-caller closed loop
// (req_per_s) and c the open loop at the workload's fixed rate (req_ms_*).
// Without an open loop (c = 0), req_ms_* are the latencies of b.
type phases struct{ a, b, c float64 }

var (
	// inprocPhases serve the workloads that call into the program
	// directly: their callers wait for each result, so they are closed
	// loops.
	inprocPhases = phases{a: 0.5, b: 0.5}
	// servicePhases add the open loop of independent clients.
	servicePhases = phases{a: 0.36, b: 0.14, c: 0.50}
)

// In a traced run, shareU of the time measures the untraced loop that the
// tracing overhead is taken against; the rest runs traced.
const shareU = 0.3

// roundSeconds is the length of one round. The phases run interleaved, a
// slice of each per round, so a slow spell on a shared host lands on every
// metric of the run alike instead of on whichever phase it overlapped.
const roundSeconds = 2.5

// rounds splits a run of the given length into whole rounds.
func rounds(seconds float64) (n int, each float64) {
	n = int(math.Max(1, math.Round(seconds/roundSeconds)))
	return n, seconds / float64(n)
}

// minPercentileSamples is the smallest sample count a p99 is reported on;
// runPhases extends a run that falls short.
const minPercentileSamples = 1000

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark traffic mix. setup builds everything the timed
// phases need (inputs, solver runs, servers) under dir; the returned runner
// runs the phases and is closed before the next setup repetition.
type workload struct {
	name  string
	setup func(seed int64, dir string) (runner, error)
}

// runner is a set-up workload.
type runner interface {
	// untraced runs warm-up and the three timed phases and fills the
	// end-to-end metrics, in reference-host time.
	untraced(seconds float64, acct *accounting, host *hostProbe) (map[string]metric, error)
	// traced runs an untraced and a traced loop and fills the per-layer
	// metrics it measures.
	traced(seconds float64, acct *accounting, tr *tracer) (map[string]metric, error)
	close() error
}

var workloads = []workload{traceKernel, tracePaper, clausalWL, serviceWL}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: trace-kernel, trace-paper, clausal or service")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build", "directory for inputs, the store and spans")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceOn bool, workdir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runDir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(runDir)
		// Flush this run's writes and deletions (the service's store
		// reaches hundreds of MB) before exiting, so their writeback does
		// not slow the next run on the host.
		syscall.Sync()
	}()

	// Set up several times on fresh directories; keep the last.
	var d runner
	var dir string
	var setups []float64
	for total := 0.0; ; {
		dir = filepath.Join(runDir, fmt.Sprintf("setup-%d", len(setups)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		d, err = wl.setup(seed, dir)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s := time.Since(start).Seconds()
		setups = append(setups, s)
		total += s
		if len(setups) >= minSetupReps && (total >= minSetupSeconds || len(setups) >= maxSetupReps) {
			break
		}
		// Earlier repetitions only time set-up; free their inputs.
		if err := d.close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}

	prov := provenance(seed, dir)
	printJSONLine("provenance", prov)

	host, err := newHostProbe()
	if err != nil {
		return err
	}
	acct := &accounting{}
	metrics, err := measure(d, seconds, traceOn, acct, host, filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !traceOn {
		// Set-up is timed in reference-host time too, with the host
		// factor of the measurement that follows it.
		f := host.runFactor()
		metrics["setup_s"] = metric{median(setups) / f, "s"}
		fmt.Printf("setup_s: raw samples %v, host factor %.4f\n", setups, f)
	}

	res := result{
		Correct:   acct.failed.Load() == 0 && acct.attempted.Load() > 0,
		Attempted: acct.attempted.Load(),
		Failed:    acct.failed.Load(),
		Metrics:   metrics,
	}
	acct.printFailures()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs the timed phases of a set-up workload: untraced for the
// end-to-end metrics, or traced for the per-layer ones, whose spans are
// written to spansPath.
func measure(d runner, seconds float64, traceOn bool, acct *accounting, host *hostProbe, spansPath string) (map[string]metric, error) {
	if traceOn {
		tr := newTracer()
		metrics, err := d.traced(seconds, acct, tr)
		if err != nil {
			return nil, err
		}
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", tr.len(), spansPath)
		return metrics, completeLayerMetrics(metrics)
	}
	// Peak RSS counts the timed phases only: set-up garbage is returned to
	// the OS first, and each round resets the high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	metrics, err := d.untraced(seconds, acct, host)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(metrics["peak_rss_mb"].Value) {
		return nil, fmt.Errorf("no peak RSS reading (/proc/self/status unreadable)")
	}
	return metrics, nil
}

func printJSONLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return
	}
	fmt.Printf("%s: %s\n", tag, b)
}

// latencies summarizes one phase's per-operation times in milliseconds.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

// scaled returns the samples multiplied by k.
func (l *latencies) scaled(k float64) *latencies {
	out := &latencies{ms: make([]float64, len(l.ms))}
	for i, v := range l.ms {
		out.ms[i] = v * k
	}
	return out
}

// percentile returns the q-quantile (nearest rank) of the samples.
func (l *latencies) percentile(q float64) float64 {
	if len(l.ms) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (l *latencies) mean() float64 {
	if len(l.ms) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range l.ms {
		sum += v
	}
	return sum / float64(len(l.ms))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// clearRSSPeak resets VmHWM to the current RSS (Linux clear_refs value 5).
func clearRSSPeak() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
