package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// accounting counts operations and failures across every phase of a run.
type accounting struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
}

// record counts one operation; a non-empty reason marks it failed.
func (a *accounting) record(reason string) bool {
	a.attempted.Add(1)
	if reason == "" {
		return true
	}
	a.failed.Add(1)
	a.mu.Lock()
	if len(a.failures) < 20 {
		a.failures = append(a.failures, reason)
	}
	a.mu.Unlock()
	return false
}

func (a *accounting) printFailures() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.failures {
		fmt.Println("failed:", f)
	}
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	s := span{Name: name, Start: t.now(), End: -1, Parent: parent, Req: req}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// spanDuration returns span i's duration in nanoseconds.
func (t *tracer) spanDuration(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].End - t.spans[i].Start
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	selfMS := make(map[string]float64)
	for i, s := range t.spans {
		if s.End >= 0 {
			selfMS[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return selfMS
}

// byReq returns the duration in ms of each closed span with the given name,
// keyed by request ID.
func (t *tracer) byReq(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out[s.Req] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stage times one call into a module as a child span of parent and adds
// its heap allocation to allocKB[name]. The allocation counter is read
// outside the span so the span covers only the call.
func (t *tracer) stage(name string, parent int, req int64, allocKB map[string]float64, fn func()) {
	before := heapAllocBytes()
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
	if allocKB != nil {
		allocKB[name] += float64(heapAllocBytes()-before) / 1024
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the process's cumulative heap allocation. Single-caller
// traced loops make the delta around a call that call's allocation.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// layerMetric is one per-layer metric name with its unit. Every traced run
// prints all of them; a layer a workload does not run reads 0 there, which
// is what "this workload bypasses the layer" means.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"trace.read_ms", "ms"},
	{"trace.read_alloc_kb", "KiB"},
	{"tracecheck.export_ms", "ms"},
	{"tracecheck.export_alloc_kb", "KiB"},
	{"tracecheck.export_kb", "KiB"},
	{"tracecheck.parse_ms", "ms"},
	{"tracecheck.parse_alloc_kb", "KiB"},
	{"drat.annotate_ms", "ms"},
	{"drat.annotate_alloc_kb", "KiB"},
	{"kernelcheck.verify_ms", "ms"},
	{"kernelcheck.verify_alloc_kb", "KiB"},
	{"kernelcheck.residual_ms", "ms"},
	{"kernel.steps", "count"},
	{"checker.df_ms", "ms"},
	{"checker.bf_ms", "ms"},
	{"checker.hybrid_ms", "ms"},
	{"checker.parallel_ms", "ms"},
	{"checker.residual_ms", "ms"},
	{"checker.df_built_frac", "ratio"},
	{"checker.hybrid_built_frac", "ratio"},
	{"checker.df_peak_kwords", "kwords"},
	{"checker.bf_peak_kwords", "kwords"},
	{"checker.hybrid_peak_kwords", "kwords"},
	{"checker.steps", "count"},
	{"checker.df_alloc_kb", "KiB"},
	{"checker.bf_alloc_kb", "KiB"},
	{"checker.hybrid_alloc_kb", "KiB"},
	{"checker.parallel_alloc_kb", "KiB"},
	{"checker.parallel_speedup", "x"},
	{"drat.lrat_parse_ms", "ms"},
	{"drat.parse_ms", "ms"},
	{"drat.backward_ms", "ms"},
	{"ooc.check_ms", "ms"},
	{"ooc.windows", "count"},
	{"ooc.spilled_kb", "KiB"},
	{"certify.kernelpipe_ms", "ms"},
	{"certify.rupipe_ms", "ms"},
	{"certify.certify_ms", "ms"},
	{"certify.overlap", "ratio"},
	{"clausal.residual_ms", "ms"},
	{"client.late_ms_p99", "ms"},
	{"router.self_ms", "ms"},
	{"shard.handler_ms", "ms"},
	{"shard.check_ms", "ms"},
	{"shard.cache_hit_frac", "ratio"},
	{"store.dedup_frac", "ratio"},
	{"store.kb_written_per_req", "KiB"},
	{"router.failovers", "count"},
	{"shard.rejected_429", "count"},
	{"cluster.router_req_per_s", "1/s"},
	{"shard.bare_req_per_s", "1/s"},
	{"bench.tracing_overhead_ms", "ms"},
}

// completeLayerMetrics adds a zero for every per-layer metric the workload
// bypasses and rejects names outside the list, so a typo cannot silently
// drop a metric.
func completeLayerMetrics(m map[string]metric) error {
	known := make(map[string]string, len(layerMetrics))
	for _, lm := range layerMetrics {
		known[lm.name] = lm.unit
	}
	for name, v := range m {
		unit, ok := known[name]
		if !ok {
			return fmt.Errorf("per-layer metric %q is not in the metric list", name)
		}
		if v.Unit != unit {
			return fmt.Errorf("per-layer metric %q has unit %q, want %q", name, v.Unit, unit)
		}
	}
	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			m[lm.name] = metric{0, lm.unit}
		}
	}
	return nil
}

// provenance records what a run's figures depend on besides the code.
func provenance(seed int64, storeDir string) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	memLimit := os.Getenv("GOMEMLIMIT")
	if memLimit == "" {
		memLimit = "unset"
	}
	return map[string]any{
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"gogc":       gogc,
		"gomemlimit": memLimit,
		"store_fs":   fsType(storeDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("magic 0x%x", uint64(st.Type))
	}
}
