package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// verdict is what one check decided: accepted or rejected, plus a
// canonical rendering of the unsatisfiable core when the path reports one.
type verdict struct {
	accepted bool
	core     string
}

// op is one in-process operation: an end-to-end call into the program and
// a stage-by-stage replay of the same work through the modules' public
// functions, used only by traced runs.
type op struct {
	name string
	kind string // groups ops for per-kind stage means ("df", "lrat", ...)
	want bool   // expected acceptance, known from how the input was built
	// visits is how often a pass over the workload's ops checks this one
	// (0 counts as 1).
	visits int
	run    func(ctx context.Context) (verdict, error)
	// replay reproduces run's stages as child spans of parent and must
	// reach the same verdict and core.
	replay func(t *tracer, parent int, req int64, st *replayStats) (verdict, error)
	// core is the core seen at warm-up; every later check must repeat it.
	core string
}

// replayStats accumulates the traced loop's per-stage figures.
type replayStats struct {
	allocKB map[string]float64 // by stage span name
	sums    map[string]float64 // workload-specific counters
	kinds   map[string]int     // traced ops per kind
	ops     int
}

func newReplayStats() *replayStats {
	return &replayStats{allocKB: map[string]float64{}, sums: map[string]float64{}, kinds: map[string]int{}}
}

// judge returns why a check failed, or "" when it met its expectation.
func (o *op) judge(v verdict, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", o.name, err)
	case v.accepted != o.want:
		return fmt.Sprintf("%s: accepted=%v, want %v", o.name, v.accepted, o.want)
	case o.core != "" && v.core != o.core:
		return fmt.Sprintf("%s: core differs from the warm-up check's", o.name)
	}
	return ""
}

// inproc drives a workload whose operations are direct calls into the
// program (no network).
type inproc struct {
	ops    []*op
	order  []int // seeded visiting order over ops
	next   atomic.Int64
	layers func(t *tracer, st *replayStats, checkMS float64) map[string]metric
}

// newInproc visits each op visits times (at least once) per pass, in a
// seeded order.
func newInproc(ops []*op, seed int64) *inproc {
	var order []int
	for i, o := range ops {
		for k := 0; k < max(1, o.visits); k++ {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &inproc{ops: ops, order: order}
}

// nextOp returns the next op of the seeded sequence and its index.
func (d *inproc) nextOp() (*op, int64) {
	i := d.next.Add(1) - 1
	return d.ops[d.order[i%int64(len(d.order))]], i
}

// warmUp checks every op once, fixing the core later checks must repeat.
func (d *inproc) warmUp(acct *accounting) {
	for _, o := range d.ops {
		v, err := o.run(context.Background())
		if acct.record(o.judge(v, err)) && v.accepted {
			o.core = v.core
		}
	}
}

func (d *inproc) check(acct *accounting) bool {
	o, _ := d.nextOp()
	v, err := o.run(context.Background())
	return acct.record(o.judge(v, err))
}

func (d *inproc) untraced(seconds float64, acct *accounting, host *hostProbe) (map[string]metric, error) {
	d.warmUp(acct)
	return runPhases(seconds, inprocPhases, 0, 0, host, func() bool { return d.check(acct) }), nil
}

func (d *inproc) traced(seconds float64, acct *accounting, t *tracer) (map[string]metric, error) {
	d.warmUp(acct)
	st := newReplayStats()
	var checkMS, untracedMS latencies
	traced := func() bool {
		o, i := d.nextOp()
		root := t.begin("op", -1, i)
		c := t.begin("check", root, i)
		start := time.Now()
		v, err := o.run(context.Background())
		checkMS.add(time.Since(start))
		t.end(c)
		st.sums["check_ms:"+o.kind] += float64(t.spanDuration(c)) / 1e6
		r := t.begin("replay", root, i)
		rv, rerr := o.replay(t, r, i, st)
		t.end(r)
		t.end(root)
		st.ops++
		st.kinds[o.kind]++
		reason := o.judge(v, err)
		if reason == "" {
			reason = replayMismatch(o, v, rv, rerr)
		}
		return acct.record(reason)
	}
	n, each := rounds(seconds)
	for r := 0; r < n; r++ {
		_, lat := closedLoop(1, dur(each*shareU), func() bool { return d.check(acct) }, nil)
		untracedMS.ms = append(untracedMS.ms, lat.ms...)
		closedLoop(1, dur(each*(1-shareU)), traced, nil)
	}
	m := d.layers(t, st, checkMS.mean())
	m["bench.tracing_overhead_ms"] = metric{checkMS.mean() - untracedMS.mean(), "ms"}
	fmt.Printf("traced: %d ops; untraced mean %.4f ms, traced mean %.4f ms\n", st.ops, untracedMS.mean(), checkMS.mean())
	return m, nil
}

// replayMismatch reports a replay that drifted from the program: a
// different verdict, or a different core where both report one.
func replayMismatch(o *op, run, rep verdict, repErr error) string {
	if repErr != nil {
		return fmt.Sprintf("%s: replay: %v", o.name, repErr)
	}
	if run.accepted != rep.accepted {
		return fmt.Sprintf("%s: replay accepted=%v, program accepted=%v", o.name, rep.accepted, run.accepted)
	}
	if run.core != "" && rep.core != "" && run.core != rep.core {
		return fmt.Sprintf("%s: replay core differs from the program's", o.name)
	}
	return ""
}

func (d *inproc) close() error { return nil }

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runPhases measures the end-to-end metrics of one operation stream: the
// one-caller closed loop (checks_per_s, check_ms_*), the nproc-caller
// closed loop (req_per_s) and, when sh.c > 0, the open loop (req_ms_*),
// interleaved round by round. Each round's host factor comes from the
// probes its one-caller slice ran; every latency of the round is divided by
// it, and the open loop offers rate requests per reference-host second, so
// a slow spell neither inflates the figures nor pushes the open loop
// nearer saturation. A closed loop's rate is its callers over its mean
// latency (Little's law: the loop has no think time).
//
// Rates and p50s are medians over the rounds, so a spell that slows fewer
// than half of them does not move them. A p99 needs more samples than a
// round holds, so it pools the run: a loop whose p99 is reported runs on
// past the last round, in quarter slices, until it has
// minPercentileSamples samples, so a slow spell lengthens the run instead
// of thinning its p99.
func runPhases(seconds float64, sh phases, rate float64, seed int64, host *hostProbe, do func() bool) map[string]metric {
	callers := runtime.NumCPU()
	n, each := rounds(seconds)
	var latA, latB, latC, rawA, late latencies
	var slicesA, slicesB, slicesC []*latencies // one per full round
	var factors, rss []float64
	f := 1.0 // replaced by the first one-caller slice, which always probes
	runA := func(d time.Duration) *latencies {
		_, lat := closedLoop(1, d, do, host)
		f = host.take(f)
		factors = append(factors, f)
		rawA.ms = append(rawA.ms, lat.ms...)
		norm := lat.scaled(1 / f)
		latA.ms = append(latA.ms, norm.ms...)
		return norm
	}
	runB := func(d time.Duration) *latencies {
		_, lat := closedLoop(callers, d, do, nil)
		norm := lat.scaled(1 / f)
		latB.ms = append(latB.ms, norm.ms...)
		return norm
	}
	openRounds := int64(0)
	runC := func(d time.Duration) *latencies {
		lc, lt := openLoop(rate/f, callers, d, seed*1000+openRounds, do)
		openRounds++
		late.ms = append(late.ms, lt.ms...)
		norm := lc.scaled(1 / f)
		latC.ms = append(latC.ms, norm.ms...)
		return norm
	}
	for r := 0; r < n; r++ {
		// Each round starts from the live heap, so its peak is its own and
		// not memory the runtime kept from an earlier round.
		debug.FreeOSMemory()
		if !clearRSSPeak() && r == 0 {
			fmt.Println("warning: /proc/self/clear_refs not writable; peak_rss_mb includes set-up")
		}
		slicesA = append(slicesA, runA(dur(each*sh.a)))
		slicesB = append(slicesB, runB(dur(each*sh.b)))
		if sh.c > 0 {
			slicesC = append(slicesC, runC(dur(each*sh.c)))
		}
		if mb, err := peakRSSMB(); err == nil {
			rss = append(rss, mb-probeMB)
		}
	}
	for len(latA.ms) < minPercentileSamples {
		runA(dur(each * sh.a / 4))
	}
	reqLat, reqSlices := &latB, slicesB
	if sh.c > 0 {
		reqLat, reqSlices = &latC, slicesC
		for len(latC.ms) < minPercentileSamples {
			runC(dur(each * sh.c / 4))
		}
	} else {
		for len(latB.ms) < minPercentileSamples {
			runB(dur(each * sh.b / 4))
		}
	}
	perRound := func(slices []*latencies, stat func(*latencies) float64) float64 {
		var xs []float64
		for _, l := range slices {
			xs = append(xs, stat(l))
		}
		return median(xs)
	}
	p50 := func(l *latencies) float64 { return l.percentile(0.5) }
	// Peak RSS is taken per round and reported as the median round, so one
	// collection that happens to coincide with two large checks does not
	// decide the figure. The probe's table is resident throughout and is
	// not the program's, so it is left out.
	m := map[string]metric{
		"checks_per_s": {perRound(slicesA, func(l *latencies) float64 { return 1000 / l.mean() }), "1/s"},
		"req_per_s":    {perRound(slicesB, func(l *latencies) float64 { return float64(callers) * 1000 / l.mean() }), "1/s"},
		"check_ms_p50": {perRound(slicesA, p50), "ms"},
		"check_ms_p99": {latA.percentile(0.99), "ms"},
		"req_ms_p50":   {perRound(reqSlices, p50), "ms"},
		"req_ms_p99":   {reqLat.percentile(0.99), "ms"},
		"peak_rss_mb":  {median(rss), "MB"},
	}
	fmt.Printf("host factor: median %.4f, min %.4f, max %.4f over %d slices; raw checks_per_s %.2f, raw check_ms_p50 %.4f\n",
		median(factors), minOf(factors), maxOf(factors), len(factors), 1000/rawA.mean(), rawA.percentile(0.5))
	fmt.Printf("check_ms_p50 %.4f ms (median of %d rounds), check_ms_p99 %.4f ms (n=%d)\n",
		m["check_ms_p50"].Value, len(slicesA), m["check_ms_p99"].Value, len(latA.ms))
	fmt.Printf("req_ms_p50 %.4f ms (median of %d rounds), req_ms_p99 %.4f ms (n=%d)\n",
		m["req_ms_p50"].Value, len(reqSlices), m["req_ms_p99"].Value, len(reqLat.ms))
	fmt.Printf("closed loop: %d calls on 1 caller, %d on %d callers\n", len(latA.ms), len(latB.ms), callers)
	if sh.c > 0 {
		fmt.Printf("open loop: %.0f req/s offered per reference second, generator late p99 %.3f ms\n", rate, late.percentile(0.99))
	}
	return m
}

// closedLoop runs do from callers goroutines, each issuing its next call
// when the previous returns, until d has passed. It returns how many calls
// completed within d and the latency of every call, including those that
// end after d. With one caller and a probe, the caller runs the probe
// every probeEvery between calls, untimed.
func closedLoop(callers int, d time.Duration, do func() bool, host *hostProbe) (int64, *latencies) {
	var mu sync.Mutex
	lat := &latencies{}
	var done atomic.Int64
	deadline := time.Now().Add(d)
	probe := callers == 1 && host != nil
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local latencies
			lastProbe := time.Time{}
			for time.Now().Before(deadline) {
				if probe && time.Since(lastProbe) >= probeEvery {
					host.run()
					lastProbe = time.Now()
				}
				t0 := time.Now()
				do()
				t1 := time.Now()
				local.add(t1.Sub(t0))
				if !t1.After(deadline) {
					done.Add(1)
				}
			}
			mu.Lock()
			lat.ms = append(lat.ms, local.ms...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return done.Load(), lat
}

// openLoop issues requests on a seeded schedule at the given mean rate for
// d, on at most slots concurrent callers. Gaps between arrivals are drawn
// uniformly from [0.5, 1.5) of the mean gap: independent arrivals, but
// without the long bursts of a Poisson stream, whose queueing would make
// the percentiles swing from run to run. A request that arrives while
// every slot is busy waits, and the wait counts: latency is timed from
// when the request was due. It also returns how late the generator itself
// issued each request.
func openLoop(rate float64, slots int, d time.Duration, seed int64, do func() bool) (lat, late *latencies) {
	rng := rand.New(rand.NewSource(seed))
	// Buffered to well above the expected arrivals so the generator never
	// blocks on a busy slot; a full buffer would only show up as lateness.
	ch := make(chan time.Time, int(rate*d.Seconds()*2)+64)
	lat, late = &latencies{}, &latencies{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range ch {
				do()
				l := time.Since(due)
				mu.Lock()
				lat.add(l)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	at := 0.0
	for {
		at += (0.5 + rng.Float64()) / rate
		if at >= d.Seconds() {
			break
		}
		due := start.Add(dur(at))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late.add(time.Since(due))
		ch <- due
	}
	close(ch)
	wg.Wait()
	return lat, late
}
