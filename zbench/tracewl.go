package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"satcheck"
	"satcheck/internal/checker"
	"satcheck/internal/drat"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/trace"
	"satcheck/internal/tracecheck"
)

// binaryEvery makes every binaryEvery-th trace file binary-encoded, counted
// over the valid files and then the mutants (a 25% binary share); the rest
// are ASCII.
const binaryEvery = 4

// fixedSeed seeds the generators of the larger rows of every draw. Those
// rows decide the tail latencies and most of the check time, so they are the
// same instances at every --seed; the seed varies the small rows and the
// faults only, and the cost of a run does not swing with it.
const fixedSeed = 1

// traceKernel checks native trace files through the trusted kernel
// (zverify -method kernel): the TraceCheck round trip and the forward
// annotation dominate, so lowering traces straight into the kernel shows
// here.
var traceKernel = workload{
	name:  "trace-kernel",
	setup: setupTraceKernel,
}

// tracePaper is the paper's Table 2 path: DF, BF, hybrid and parallel over
// native trace files. Trace reading and the checkers dominate and nothing
// is lowered, so it is the no-change case for the kernel lowering.
var tracePaper = workload{
	name:  "trace-paper",
	setup: setupTracePaper,
}

// seedOf draws a generator seed.
func seedOf(rng *rand.Rand) int64 { return rng.Int63n(1 << 30) }

// traceKernelDraw spans 0.8-18 KB of ASCII trace (more than 10x) over the
// Table 2 families. The seed draws five of the small rows; the rest, every
// mid-size and large row among them, are fixed instances.
func traceKernelDraw(rng *rand.Rand) []gen.Instance {
	return []gen.Instance{
		gen.Scheduling(16, 4, 12, seedOf(rng)),
		gen.Scheduling(16, 4, 12, seedOf(rng)),
		gen.FPGARouting(12, 4, 8, seedOf(rng)),
		gen.FPGARouting(12, 4, 8, seedOf(rng)),
		gen.TseitinCharge(12, seedOf(rng)),
		gen.BMCCounter(4, 10),
		gen.Pigeonhole(5),
		gen.Scheduling(20, 5, 20, fixedSeed),
		gen.FPGARouting(18, 5, 12, fixedSeed),
		gen.CECAdder(4),
		gen.BMCCounter(5, 14),
		gen.PipelineALU(3),
		gen.TseitinCharge(18, 3),
		gen.CECMultiplier(3),
	}
}

// traceKernelTopRow is the draw index of the row whose check is slowest.
const traceKernelTopRow = 11

// tracePaperDraw spans 1.4-260 KB of trace and includes rows whose
// depth-first Built% is at least 95% and rows at most 70% (checked at
// setup). The seed draws the smallest row; the rest are fixed instances.
func tracePaperDraw(rng *rand.Rand) []gen.Instance {
	return []gen.Instance{
		gen.Scheduling(16, 4, 12, seedOf(rng)),
		gen.Pigeonhole(5),
		gen.BMCCounter(5, 20),
		gen.TseitinCharge(18, 3),
		gen.Scheduling(24, 6, 30, fixedSeed),
		gen.FPGARouting(24, 6, 16, fixedSeed),
		gen.CECAdder(28),
		gen.PipelineALU(16),
	}
}

// traceFile is one native trace written for the program to read.
type traceFile struct {
	s    *solved
	path string
	want bool
	name string
}

// writeTraces solves the draw and writes each trace as a file under dir,
// plus one must-reject mutant of each draw row named in mutantRows. The
// rows are fixed mid-size instances and the seed picks the fault and its
// position, so the mutants' cost does not swing with the seed.
func writeTraces(draw []gen.Instance, mutantRows []int, rng *rand.Rand, dir string) ([]traceFile, error) {
	var files []traceFile
	for i, ins := range draw {
		s, err := solve(ins, false)
		if err != nil {
			return nil, err
		}
		b, err := encodeTrace(s.tr, binaryAt(len(files)))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s.trace", i, s.name))
		if err := writeFile(path, b); err != nil {
			return nil, err
		}
		files = append(files, traceFile{s: s, path: path, want: true, name: s.name})
	}
	for k, row := range mutantRows {
		base := files[row]
		mt, mut, err := mustRejectTrace(base.s.tr, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", base.name, err)
		}
		b, err := encodeTrace(mt, binaryAt(len(files)))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("mutant-%d-%s-%s.trace", k, base.name, mut))
		if err := writeFile(path, b); err != nil {
			return nil, err
		}
		files = append(files, traceFile{s: base.s, path: path, want: false, name: base.name + "/" + mut})
	}
	return files, nil
}

// binaryAt reports whether the i-th trace file written is binary.
func binaryAt(i int) bool { return i%binaryEvery == binaryEvery-1 }

func reportVerdict(rep *satcheck.CheckReport) verdict {
	v := verdict{accepted: rep.Valid}
	if rep.Valid && rep.Result != nil {
		v.core = coreKey(rep.Result.CoreClauses)
	}
	return v
}

func setupTraceKernel(seed int64, dir string) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	// 14 valid traces and 2 must-reject mutants (of sched-j20-s5 and
	// cec-adder-4), and 4 of the 16 files are binary. The mutants are of
	// mid-size rows, so where the seed puts the fault moves their cost
	// below the tail and not across it.
	files, err := writeTraces(traceKernelDraw(rng), []int{7, 9}, rng, dir)
	if err != nil {
		return nil, err
	}
	var ops []*op
	for i, tf := range files {
		tf := tf
		f := tf.s.f
		// The largest row (alu-miter-3) is visited once per pass and every
		// other file three times, so it is 1 in 46 checks and the slowest
		// 1% lies inside its own latencies, near their middle, instead of
		// in the tail of one check's latencies. The mutants are 6 in 46
		// (1 in 8).
		visits := 3
		if i == traceKernelTopRow {
			visits = 1
		}
		ops = append(ops, &op{
			name:   tf.name,
			kind:   "kernel",
			want:   tf.want,
			visits: visits,
			run: func(ctx context.Context) (verdict, error) {
				rep, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{
					Formula: f, Trace: trace.FileSource(tf.path), Method: satcheck.Kernel,
				})
				if err != nil {
					return verdict{}, err
				}
				return reportVerdict(rep), nil
			},
			replay: func(t *tracer, parent int, req int64, st *replayStats) (verdict, error) {
				return replayKernelTrace(t, parent, req, st, f, tf.path)
			},
		})
	}
	d := newInproc(ops, seed)
	d.layers = traceKernelLayers
	return d, nil
}

// replayKernelTrace runs kernelcheck.KernelCheckTrace's stages one by one:
// TraceCheck export (which reads the trace file itself), parse, forward
// annotation, kernel check. A separate trace.Load pass over the same file,
// before the export, times the read that the export contains; the layer
// metrics subtract it from the export.
func replayKernelTrace(t *tracer, parent int, req int64, st *replayStats, f *satcheck.Formula, path string) (verdict, error) {
	var err error
	t.stage("trace.read", parent, req, st.allocKB, func() { _, err = trace.Load(trace.FileSource(path)) })
	if err != nil {
		return verdict{}, nil // unreadable trace: the program rejects it too
	}
	var tc bytes.Buffer
	var es *tracecheck.ExportStats
	t.stage("tracecheck.export", parent, req, st.allocKB, func() { es, err = tracecheck.Export(f, trace.FileSource(path), &tc) })
	if err != nil {
		return verdict{}, nil
	}
	st.sums["export_kb"] += float64(es.Bytes) / 1024
	var clauses []tracecheck.Clause
	t.stage("tracecheck.parse", parent, req, st.allocKB, func() { clauses, err = tracecheck.Parse(&tc) })
	if err != nil {
		return verdict{}, nil
	}
	var lines []drat.LRATLine
	opts := checker.Options{}
	t.stage("drat.annotate", parent, req, st.allocKB, func() {
		_, lines, err = drat.AnnotateForward(f, proofFromClauses(clauses, len(f.Clauses)), opts)
	})
	if err != nil {
		if rejection(err) {
			return verdict{}, nil
		}
		return verdict{}, err
	}
	var res *checker.Result
	t.stage("kernelcheck.verify", parent, req, st.allocKB, func() {
		res, err = kernelcheck.CheckLRATProof(f, &drat.LRATProof{Lines: lines}, opts)
	})
	if err != nil {
		if rejection(err) {
			return verdict{}, nil
		}
		return verdict{}, err
	}
	st.sums["kernel_steps"] += float64(res.ResolutionSteps)
	return verdict{accepted: true, core: coreKey(hintClosure(lines, len(f.Clauses)))}, nil
}

// kernelStages are the program's stages in trace-kernel; trace.read is the
// part of the export that reads the trace.
var kernelStages = []string{"tracecheck.export", "tracecheck.parse", "drat.annotate", "kernelcheck.verify"}

func traceKernelLayers(t *tracer, st *replayStats, checkMS float64) map[string]metric {
	self := t.selfTimes()
	n := float64(st.ops)
	m := map[string]metric{}
	sum := 0.0
	for _, s := range kernelStages {
		v := self[s] / n
		sum += v
		m[s+"_ms"] = metric{v, "ms"}
		m[s+"_alloc_kb"] = metric{st.allocKB[s] / n, "KiB"}
	}
	read := metric{self["trace.read"] / n, "ms"}
	readAlloc := metric{st.allocKB["trace.read"] / n, "KiB"}
	m["trace.read_ms"], m["trace.read_alloc_kb"] = read, readAlloc
	m["tracecheck.export_ms"] = metric{m["tracecheck.export_ms"].Value - read.Value, "ms"}
	m["tracecheck.export_alloc_kb"] = metric{m["tracecheck.export_alloc_kb"].Value - readAlloc.Value, "KiB"}
	m["kernelcheck.residual_ms"] = metric{checkMS - sum, "ms"}
	m["tracecheck.export_kb"] = metric{st.sums["export_kb"] / n, "KiB"}
	m["kernel.steps"] = metric{st.sums["kernel_steps"] / n, "count"}
	return m
}

// paperMethods rotate through every trace in trace-paper.
var paperMethods = []struct {
	kind   string
	method satcheck.Method
	engine func(*satcheck.Formula, trace.Source, checker.Options) (*checker.Result, error)
}{
	{"df", satcheck.DepthFirst, checker.DepthFirst},
	{"bf", satcheck.BreadthFirst, checker.BreadthFirst},
	{"hybrid", satcheck.Hybrid, checker.Hybrid},
	{"parallel", satcheck.Parallel, checker.Parallel},
}

// paperOptions is what every trace-paper check runs with.
var paperOptions = checker.Options{Parallelism: 2}

func setupTracePaper(seed int64, dir string) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	files, err := writeTraces(tracePaperDraw(rng), nil, rng, dir)
	if err != nil {
		return nil, err
	}
	if err := checkBuiltSpread(files); err != nil {
		return nil, err
	}
	var ops []*op
	for _, tf := range files {
		for _, pm := range paperMethods {
			tf, pm := tf, pm
			f := tf.s.f
			ops = append(ops, &op{
				name: tf.name + "/" + pm.kind,
				kind: pm.kind,
				want: true,
				run: func(ctx context.Context) (verdict, error) {
					rep, err := satcheck.RunCheck(ctx, satcheck.CheckRequest{
						Formula: f, Trace: trace.FileSource(tf.path), Method: pm.method, Options: paperOptions,
					})
					if err != nil {
						return verdict{}, err
					}
					return reportVerdict(rep), nil
				},
				replay: func(t *tracer, parent int, req int64, st *replayStats) (verdict, error) {
					var mt *trace.MemoryTrace
					var err error
					t.stage("trace.read", parent, req, st.allocKB, func() { mt, err = readTrace(tf.path) })
					if err != nil {
						return verdict{}, err
					}
					var res *checker.Result
					name := "checker." + pm.kind
					t.stage(name, parent, req, st.allocKB, func() { res, err = pm.engine(f, mt, paperOptions) })
					if err != nil {
						if rejection(err) {
							return verdict{}, nil
						}
						return verdict{}, err
					}
					st.sums[pm.kind+"_built"] += res.BuiltFraction()
					st.sums[pm.kind+"_peak"] += float64(res.PeakMemWords)
					st.sums["steps"] += float64(res.ResolutionSteps)
					return verdict{accepted: true, core: coreKey(res.CoreClauses)}, nil
				},
			})
		}
	}
	d := newInproc(ops, seed)
	d.layers = tracePaperLayers
	return d, nil
}

// checkBuiltSpread confirms the draw has depth-first Built% rows at or
// above 95% and at or below 70%, the contrast the paper's Table 2 shows.
func checkBuiltSpread(files []traceFile) error {
	high, low := false, false
	for _, tf := range files {
		res, err := checker.DepthFirst(tf.s.f, tf.s.tr, checker.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", tf.name, err)
		}
		b := res.BuiltFraction()
		high = high || b >= 0.95
		low = low || b <= 0.70
	}
	if !high || !low {
		return fmt.Errorf("trace-paper draw lacks a DF Built%% row >= 95%% (%v) or <= 70%% (%v)", high, low)
	}
	return nil
}

func tracePaperLayers(t *tracer, st *replayStats, checkMS float64) map[string]metric {
	self := t.selfTimes()
	n := float64(st.ops)
	m := map[string]metric{}
	read := self["trace.read"] / n
	m["trace.read_ms"] = metric{read, "ms"}
	m["trace.read_alloc_kb"] = metric{st.allocKB["trace.read"] / n, "KiB"}
	engines := 0.0
	for _, pm := range paperMethods {
		name := "checker." + pm.kind
		k := float64(st.kinds[pm.kind])
		engines += self[name]
		m[name+"_ms"] = metric{self[name] / k, "ms"}
		m[name+"_alloc_kb"] = metric{st.allocKB[name] / k, "KiB"}
		if pm.kind != "parallel" {
			m[name+"_peak_kwords"] = metric{st.sums[pm.kind+"_peak"] / k / 1000, "kwords"}
		}
	}
	m["checker.residual_ms"] = metric{checkMS - read - engines/n, "ms"}
	m["checker.df_built_frac"] = metric{st.sums["df_built"] / float64(st.kinds["df"]), "ratio"}
	m["checker.hybrid_built_frac"] = metric{st.sums["hybrid_built"] / float64(st.kinds["hybrid"]), "ratio"}
	m["checker.steps"] = metric{st.sums["steps"] / n, "count"}
	m["checker.parallel_speedup"] = metric{m["checker.hybrid_ms"].Value / m["checker.parallel_ms"].Value, "x"}
	return m
}
