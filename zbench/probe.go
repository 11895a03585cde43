package main

import (
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// within minutes as other tenants come and go. Two runs of the same code a
// few minutes apart then differ by more than any bound that would still
// catch a regression.
//
// hostProbe measures part of that drift. It is a fixed piece of the
// benchmark's own code, sharing nothing with the program: a dependent walk
// over a 64 KiB table, mixed with integer arithmetic, which slows when the
// core it runs on is shared or slowed. The table is mapped outside the Go
// heap and the probe never allocates, so it does not change the
// collector's pacing and the program's heap does not change its time; it
// is small, so it barely disturbs the caches the program's next check
// finds. It runs only between the one-caller loop's operations, when
// nothing of the program runs but, at times, the tail of a collection; the
// median over a stretch's probes leaves those out.
//
// The host factor of a stretch of the run is the median probe time over
// probeNominalMS. Every timed end-to-end figure is divided by it (latencies,
// set-up) or multiplied by it (rates): it is reported in reference-host
// time, the time the same work takes when the probe takes probeNominalMS.
// The raw figures and the factors are printed above the result line.
type hostProbe struct {
	table []uint32
	ms    []float64 // probe times since the last take
	all   []float64 // every probe time of the run
	sink  uint32
}

const (
	probeWords = 1 << 14 // 64 KiB table
	probeSteps = 1 << 17 // table steps per probe
	// probeMB is the table's share of the process's RSS (MB, 10^6 bytes),
	// which peak_rss_mb leaves out.
	probeMB = probeWords * 4 / 1e6
	// probeNominalMS is the probe's median time on the 2-vCPU Intel Xeon
	// VM the benchmark was defined on. It only sets the scale of the
	// reported figures; a change of host changes them as a change of
	// hardware would.
	probeNominalMS = 0.75
	// probeEvery is how often the one-caller loop stops to probe: about
	// 0.75 ms of every 40, so the probe takes ~2% of that loop's time and
	// a 2.5 s round gets ~30 probes.
	probeEvery = 40 * time.Millisecond
)

func newHostProbe() (*hostProbe, error) {
	// One cycle through every slot (Sattolo's shuffle) from a fixed seed,
	// so each step depends on the last and the walk never settles into a
	// shorter loop.
	b, err := syscall.Mmap(-1, 0, probeWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), probeWords)
	for i := range t {
		t[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	return &hostProbe{table: t}, nil
}

// run times one probe.
func (p *hostProbe) run() {
	start := time.Now()
	idx, x := uint32(0), uint32(0x9E3779B9)
	for i := 0; i < probeSteps; i++ {
		idx = p.table[idx]
		x ^= idx
		x *= 0x85EBCA6B
		x ^= x >> 13
		x *= 0xC2B2AE35
		x ^= x >> 16
	}
	p.sink += x
	p.ms = append(p.ms, float64(time.Since(start))/1e6)
}

// take returns the host factor over the probes since the last take, or
// prev when there were none, and starts a new stretch.
func (p *hostProbe) take(prev float64) float64 {
	if len(p.ms) == 0 {
		return prev
	}
	f := median(p.ms) / probeNominalMS
	p.all = append(p.all, p.ms...)
	p.ms = p.ms[:0]
	return f
}

// runFactor is the host factor over every probe of the run.
func (p *hostProbe) runFactor() float64 { return median(p.all) / probeNominalMS }
