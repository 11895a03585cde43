package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"satcheck/internal/checker"
	"satcheck/internal/cluster"
	"satcheck/internal/gen"
	"satcheck/internal/kernelcheck"
	"satcheck/internal/server"
)

// serviceRate is the open-loop arrival rate, in requests per reference-host
// second (see probe.go). It is a constant, so later commits are measured at
// the same offered load: about a third of the router's nproc-connection
// capacity (req_per_s) at the commit that defined the benchmark, so
// queueing stays modest when the disk, which the host factor does not
// follow, runs slow.
const serviceRate = 80

// One in repeatEvery requests (25%) re-sends a byte-identical earlier pair
// (a regression farm re-checking); the rest are new in the run. At 25% the
// p50 sits well inside the class of new pairs.
const repeatEvery = 4

// repeatWindow bounds how far back a repeat reaches: the pair is still in
// the shard's result cache, as a re-check soon after the first would be.
const repeatWindow = 32

// benchIDParam tags each request for the benchmark only. The router
// forwards the query string to the shard, which ignores unknown
// parameters, so client and shard spans join on it.
const benchIDParam = "zbench_id"

// serviceWL sends native and LRAT pairs through a cluster router to one
// zcheckd shard over loopback TCP: checks are cheap, so ingest, the store's
// fsyncs and the proxy hop dominate.
var serviceWL = workload{
	name:  "service",
	setup: setupService,
}

// basePayload is one formula + proof pair before per-request tagging.
type basePayload struct {
	name  string
	cnf   []byte
	proof []byte
	lrat  bool
}

// serviceRow is one base pair of the mix: a native ASCII trace, or LRAT.
type serviceRow struct {
	ins  gen.Instance
	lrat bool
}

// serviceTier is a size class of the mix: of every deckSize new requests,
// slots go to the tier, shared round-robin among its pairs.
type serviceTier struct {
	slots int
	rows  []serviceRow
}

// deckSize is the length of one pass over the mix. New requests deal from
// a deck holding each tier's slots, reshuffled every pass, so every stretch
// of deckSize new requests holds the mix exactly: a 10 s slice draws its
// ~30 large pairs as a count, not as a binomial draw whose swing moves the
// mean by several percent.
const deckSize = 100

// serviceTiers is the service mix: formula + proof pairs of ~1-12 KB,
// 25-175 KB and 1.4 MB, about a quarter of them LRAT. The shares are an
// assumption of the benchmark, not a measurement of real traffic, and are
// chosen for what the figures must resolve: small pairs are most requests,
// so req_ms_p50 is the per-request cost of the router, the store and the
// shard; the large pair is 3% of new requests (about 2% of all), so the
// slowest 1% lies well inside it instead of on the edge between two
// classes; and the mean cost leaves the router's capacity at about three
// times serviceRate. The seed draws the three smallest instances; every other
// instance is fixed.
func serviceTiers(rng *rand.Rand) []serviceTier {
	return []serviceTier{
		{80, []serviceRow{
			{gen.TseitinCharge(12, seedOf(rng)), false},
			{gen.Scheduling(16, 4, 12, seedOf(rng)), false},
			{gen.FPGARouting(12, 4, 8, seedOf(rng)), false},
			{gen.Pigeonhole(5), false},
			{gen.BMCCounter(4, 10), false},
			{gen.Pigeonhole(5), true},
		}},
		{17, []serviceRow{
			{gen.CECMultiplier(3), false},
			{gen.Scheduling(24, 6, 30, fixedSeed), false},
			{gen.PipelineALU(8), false},
			{gen.FPGARouting(24, 6, 16, fixedSeed), true},
			{gen.CECMultiplier(4), true},
		}},
		{3, []serviceRow{
			{gen.PipelineALU(48), true},
		}},
	}
}

type serviceRunner struct {
	seed     int64
	payloads []basePayload
	deck     []int // base pair of each slot of a pass

	shardSrv *server.Server
	shardWeb *http.Server
	router   *cluster.Router
	served   sync.WaitGroup
	url      string // the router's check endpoint
	shardURL string // the shard's, bypassing the router
	client   *http.Client

	tracer atomic.Pointer[tracer] // non-nil while spans are recorded
	nextID atomic.Int64           // request IDs, joined across client and shard spans

	mu      sync.Mutex
	rng     *rand.Rand
	planned int64 // requests planned so far
	nextNew int64
	recent  []reqPlan // last repeatWindow new pairs
}

// reqPlan names the bytes of one request: which base pair and which tag.
type reqPlan struct {
	base int
	tag  int64
}

func setupService(seed int64, dir string) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &serviceRunner{seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x7a11))}
	for _, tier := range serviceTiers(rng) {
		first := len(d.payloads)
		for _, row := range tier.rows {
			p, err := servicePayload(row)
			if err != nil {
				return nil, err
			}
			d.payloads = append(d.payloads, p)
		}
		for k := 0; k < tier.slots; k++ {
			d.deck = append(d.deck, first+k%len(tier.rows))
		}
	}
	if len(d.deck) != deckSize {
		return nil, fmt.Errorf("service tiers hold %d slots, want %d", len(d.deck), deckSize)
	}

	shardTmp := filepath.Join(dir, "shard-tmp")
	if err := os.MkdirAll(shardTmp, 0o755); err != nil {
		return nil, err
	}
	d.shardSrv = server.New(server.Config{TempDir: shardTmp})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.shardWeb = &http.Server{Handler: http.HandlerFunc(d.shardHandler)}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		d.shardWeb.Serve(ln)
	}()

	d.router, err = cluster.New(cluster.Config{Addr: "127.0.0.1:0", StoreDir: filepath.Join(dir, "store")})
	if err != nil {
		d.close()
		return nil, err
	}
	addr, err := d.router.Listen()
	if err != nil {
		d.close()
		return nil, err
	}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		d.router.Serve()
	}()
	if err := d.router.JoinShard("zbench-shard", "http://"+ln.Addr().String()); err != nil {
		d.close()
		return nil, err
	}
	if d.router.Ring().Len() != 1 {
		d.close()
		return nil, errors.New("the shard did not join the ring")
	}
	d.url = "http://" + addr.String() + "/v1/check"
	d.shardURL = "http://" + ln.Addr().String() + "/v1/check"
	n := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
	return d, nil
}

// servicePayload solves row's instance and encodes the pair.
func servicePayload(row serviceRow) (basePayload, error) {
	s, err := solve(row.ins, false)
	if err != nil {
		return basePayload{}, err
	}
	p := basePayload{name: s.name, lrat: row.lrat}
	if p.cnf, err = dimacs(s.f); err != nil {
		return p, err
	}
	if row.lrat {
		var b bytes.Buffer
		if _, err := kernelcheck.TraceToLRAT(s.f, s.tr, &b, checker.Options{}); err != nil {
			return p, fmt.Errorf("%s: %w", s.name, err)
		}
		p.proof = b.Bytes()
	} else if p.proof, err = encodeTrace(s.tr, false); err != nil {
		return p, err
	}
	return p, nil
}

// shardHandler wraps the zcheckd handler to time it per request.
func (d *serviceRunner) shardHandler(w http.ResponseWriter, r *http.Request) {
	t := d.tracer.Load()
	if t == nil {
		d.shardSrv.Handler().ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.URL.Query().Get(benchIDParam), 10, 64)
	i := t.begin("shard.handler", -1, id)
	d.shardSrv.Handler().ServeHTTP(w, r)
	t.end(i)
}

// plan draws the next request: every fourth is a repeat of a recent new
// pair, the rest deal the next pair from the deck.
func (d *serviceRunner) plan() reqPlan {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.planned++
	if len(d.recent) > 0 && d.planned%repeatEvery == 0 {
		return d.recent[d.rng.Intn(len(d.recent))]
	}
	slot := int(d.nextNew % deckSize)
	if slot == 0 {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	p := reqPlan{base: d.deck[slot], tag: d.nextNew}
	d.nextNew++
	if len(d.recent) == repeatWindow {
		d.recent = d.recent[1:]
	}
	d.recent = append(d.recent, p)
	return p
}

// multipart boundary for request bodies; it cannot occur in DIMACS or in
// the proof encodings.
const boundary = "zbench-boundary-7f3a9c"

// body assembles a request without copying the payloads: a tag comment
// makes each new pair's formula and proof bytes distinct, so the store and
// the result cache see them as new; the check's work is unchanged.
func (d *serviceRunner) body(p reqPlan) (io.Reader, int64) {
	b := &d.payloads[p.base]
	tag := []byte(fmt.Sprintf("c zbench %d\n", p.tag))
	proofHead, proofRest := []byte(nil), b.proof
	if !b.lrat {
		// Native ASCII traces must start with their magic line.
		i := bytes.IndexByte(b.proof, '\n') + 1
		proofHead, proofRest = b.proof[:i], b.proof[i:]
	}
	parts := [][]byte{
		[]byte("--" + boundary + "\r\nContent-Disposition: form-data; name=\"formula\"; filename=\"f.cnf\"\r\n\r\n"),
		tag, b.cnf,
		[]byte("\r\n--" + boundary + "\r\nContent-Disposition: form-data; name=\"trace\"; filename=\"p\"\r\n\r\n"),
		proofHead, tag, proofRest,
		[]byte("\r\n--" + boundary + "--\r\n"),
	}
	readers := make([]io.Reader, len(parts))
	n := int64(0)
	for i, part := range parts {
		readers[i] = bytes.NewReader(part)
		n += int64(len(part))
	}
	return io.MultiReader(readers...), n
}

// request sends the next request to target (the router, or the shard
// directly) and checks the answer: HTTP 200 and verdict "valid" (every
// service payload is a valid refutation by construction).
func (d *serviceRunner) request(acct *accounting, target string) bool {
	id := d.nextID.Add(1)
	p := d.plan()
	body, n := d.body(p)
	url := target + "?" + benchIDParam + "=" + strconv.FormatInt(id, 10)
	if d.payloads[p.base].lrat {
		url += "&format=lrat"
	}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return acct.record(err.Error())
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "multipart/form-data; boundary="+boundary)
	t := d.tracer.Load()
	span := -1
	if t != nil {
		span = t.begin("client.request", -1, id)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return acct.record(fmt.Sprintf("request %d: %v", id, err))
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if span >= 0 {
		t.end(span)
	}
	name := d.payloads[p.base].name
	if err != nil {
		return acct.record(fmt.Sprintf("%s: reading response: %v", name, err))
	}
	if resp.StatusCode != http.StatusOK {
		return acct.record(fmt.Sprintf("%s: HTTP %d: %s", name, resp.StatusCode, strings.TrimSpace(string(raw))))
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return acct.record(fmt.Sprintf("%s: decoding response: %v", name, err))
	}
	if cr.Verdict != "valid" {
		return acct.record(fmt.Sprintf("%s: verdict %q, want valid", name, cr.Verdict))
	}
	return acct.record("")
}

func (d *serviceRunner) untraced(seconds float64, acct *accounting, host *hostProbe) (map[string]metric, error) {
	d.warmUp(acct)
	return runPhases(seconds, servicePhases, serviceRate, d.seed, host, func() bool { return d.request(acct, d.url) }), nil
}

// warmUp sends as many requests as there are base pairs, so connections,
// caches and lazy set-up warm up before timing.
func (d *serviceRunner) warmUp(acct *accounting) {
	for range d.payloads {
		d.request(acct, d.url)
	}
}

// shareBare of a traced run compares the router's capacity with the bare
// shard's, both closed loops on nproc connections, in alternating halves.
const shareBare = 0.2

func (d *serviceRunner) traced(seconds float64, acct *accounting, t *tracer) (map[string]metric, error) {
	do := func() bool { return d.request(acct, d.url) }
	d.warmUp(acct)
	var latU, latT, late latencies
	shardD, routerD := map[string]float64{}, map[string]float64{}
	written := int64(0)
	n, each := rounds(seconds * (1 - shareBare))
	for r := 0; r < n; r++ {
		lu, _ := openLoop(serviceRate, runtime.NumCPU(), dur(each*shareU), d.seed*1000+int64(r), do)
		latU.ms = append(latU.ms, lu.ms...)
		shard0, router0 := d.counters()
		io0 := writeBytes()
		d.tracer.Store(t)
		lt, lg := openLoop(serviceRate, runtime.NumCPU(), dur(each*(1-shareU)), d.seed*1000+int64(n+r), do)
		d.tracer.Store(nil)
		written += writeBytes() - io0
		shard1, router1 := d.counters()
		addDelta(shardD, shard0, shard1)
		addDelta(routerD, router0, router1)
		latT.ms = append(latT.ms, lt.ms...)
		late.ms = append(late.ms, lg.ms...)
	}
	var viaRouter, bare float64
	slice := seconds * shareBare / 4
	for half := 0; half < 2; half++ {
		k, _ := closedLoop(runtime.NumCPU(), dur(slice), do, nil)
		viaRouter += float64(k) / slice / 2
		k, _ = closedLoop(runtime.NumCPU(), dur(slice), func() bool { return d.request(acct, d.shardURL) }, nil)
		bare += float64(k) / slice / 2
	}

	client := t.byReq("client.request")
	handler := t.byReq("shard.handler")
	var self, hand float64
	joined := 0
	for id, c := range client {
		if h, ok := handler[id]; ok {
			self += c - h
			hand += h
			joined++
		}
	}
	reqs := float64(len(latT.ms))
	hits, misses := shardD["zcheckd_cache_hits_total"], shardD["zcheckd_cache_misses_total"]
	m := map[string]metric{
		"client.late_ms_p99":        {late.percentile(0.99), "ms"},
		"router.self_ms":            {self / float64(joined), "ms"},
		"shard.handler_ms":          {hand / float64(joined), "ms"},
		"shard.check_ms":            {1000 * shardD["zcheckd_check_seconds_sum"] / shardD["zcheckd_check_seconds_count"], "ms"},
		"shard.cache_hit_frac":      {hits / (hits + misses), "ratio"},
		"store.dedup_frac":          {routerD["zcheckd_store_dedups_total"] / (2 * reqs), "ratio"},
		"store.kb_written_per_req":  {float64(written) / 1024 / reqs, "KiB"},
		"router.failovers":          {routerD["zcheckd_failovers_total"], "count"},
		"shard.rejected_429":        {shardD["zcheckd_jobs_rejected_total"], "count"},
		"bench.tracing_overhead_ms": {latT.mean() - latU.mean(), "ms"},
		"cluster.router_req_per_s":  {viaRouter, "1/s"},
		"shard.bare_req_per_s":      {bare, "1/s"},
	}
	fmt.Printf("traced: %.0f requests, %d joined router->shard; untraced mean %.4f ms, traced mean %.4f ms\n",
		reqs, joined, latU.mean(), latT.mean())
	return m, nil
}

// addDelta adds after-before for every counter into sum.
func addDelta(sum, before, after map[string]float64) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

// counters snapshots the unlabeled Prometheus counters of shard and router.
func (d *serviceRunner) counters() (shard, router map[string]float64) {
	var sb, rb bytes.Buffer
	d.shardSrv.Metrics().WritePrometheus(&sb)
	d.router.Metrics().WritePrometheus(&rb)
	return parseProm(sb.String()), parseProm(rb.String())
}

func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// writeBytes is the process's storage write volume from /proc/self/io.
func writeBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

func (d *serviceRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if d.router != nil {
		if err := d.router.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("router shutdown: %w", err))
		}
	}
	if d.shardWeb != nil {
		if err := d.shardWeb.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shard shutdown: %w", err))
		}
	}
	if err := d.shardSrv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("shard drain: %w", err))
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.served.Wait()
	return errors.Join(errs...)
}
