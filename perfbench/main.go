// Command perfbench is the repository's end-to-end benchmark. From a
// seed it generates a synth.Medium event log and one checkpoint per
// shard, boots a two-shard cluster in process (each shard through
// server.OpenCheckpointed behind one router.Router, over loopback HTTP),
// drives one workload through it, checks the answers against the
// unsharded facade and prints the metrics, the last line as JSON.
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Sizing. Every run is a fixed operation list derived from the seed and
// --seconds, never a time box; the rates only size the lists so a run
// lasts about --seconds on a two-CPU machine. No measured traffic backs
// any of these numbers: each is an assumption, and README.md gives the
// reason for it.
const (
	hotUsers        = 4    // read-hot source users
	ingestReaders   = 48   // ingest-read source users
	ratingsPerBatch = 6    // ratings per ingest batch
	hotOpsPerSecond = 6000 // read-hot closed-loop list length per second
	missBlockSecs   = 0.42 // propagate-miss: one missKinds block's rough cost
	readRate        = 30   // ingest-read open-loop reads per second, rounded to whole rounds over the readers
	// ingestInterval spaces ingest-read's batches, one per second of
	// --seconds, so its timed phase lasts 1.5 × --seconds. A tick's swap
	// takes 0.3–0.45 s and the TidalTrust read after it 0.35–0.5 s; at
	// 1 s apart a slow machine phase pushed that read into the next
	// swap, and ingest-read's metrics moved 1.6–2.5 times as much as
	// the machine did.
	ingestInterval = 1500 * time.Millisecond

	warmBatches   = 2  // ingest-read set-up ticks
	probeBatches  = 32 // closed-loop freshness probe after a read workload
	setups        = 3  // set-ups before the timed phase; the last is kept
	setupsAfter   = 2  // set-ups after it; setup_s is the median of all
	shadowTicks   = 12 // ticks the traced pass replays through side-calls
	ingestTimeout = 60 * time.Second
)

// processes is how many processes the in-process cluster stands for:
// the shards, the router and the client.
const processes = numShards + 2

// swapProcs is GOMAXPROCS wherever swaps run. Each process the cluster
// stands for would run a scheduler with one P per CPU, time-sliced by
// the kernel. With one P per CPU in one process, a CPU-bound swap holds
// a P for a whole 10ms preemption slice at every network hop of a read,
// and the Go scheduler splits the CPUs unevenly between the two shards'
// swaps; no multi-process deployment sees either. Without swaps the
// extra Ps only add wake-up jitter to reads.
func swapProcs() int { return processes * runtime.NumCPU() }

var workloads = []string{"read-hot", "propagate-miss", "ingest-read"}

// plan is one workload's fixed, seeded schedule.
type plan struct {
	name   string
	warm   []op
	ops    []op
	keep   []bool
	open   bool // ingest-read: open-loop reads beside open-loop appends
	period time.Duration
	// split divides ingest-read's ops: [0, split) go out every period
	// from the goroutine that also appends, [split, len) are the exact
	// TidalTrust reads, one per tick from a second goroutine.
	split int
	ticks int // open-loop batches (ingest-read)
	probe int // closed-loop freshness probe batches (read workloads)
	// procs is GOMAXPROCS for the workload's timed phase: swapProcs
	// where swaps run during it, one P per CPU where they do not.
	procs int
}

func makePlan(in *inputs, name string, seconds int) (*plan, error) {
	p := &plan{name: name, procs: runtime.NumCPU()}
	switch name {
	case "read-hot":
		p.warm = in.hotKeys()
		p.ops = in.blockOps(hotKinds, in.hot, hotOpsPerSecond*seconds)
		p.probe = probeBatches
	case "propagate-miss":
		p.warm = in.missWarm()
		// One source per block, from as many degree strata: each kind
		// reads every source once, so no key repeats.
		blocks := max(1, int(float64(seconds)/missBlockSecs))
		p.ops = in.blockOps(missKinds, stratified(in.active, in.degree, blocks), len(missKinds)*blocks)
		p.probe = probeBatches
	case "ingest-read":
		// Every swap drops almost every cached answer, so there is no hot
		// set to fill: set-up builds the sketches, rank and anomaly
		// vectors, then ingests warmBatches ticks.
		p.warm = in.missWarm()
		p.ticks = seconds
		// Exact TidalTrust goes on its own connection, one read per tick.
		kinds := slices.DeleteFunc(slices.Clone(hotKinds), func(k opKind) bool { return k == opTidalTrust })
		phase := time.Duration(p.ticks) * ingestInterval
		// Whole rounds: every kind reads every reader equally often.
		round := len(kinds) * len(in.readers)
		n := round * max(1, int(math.Round(phase.Seconds()*readRate/float64(round))))
		p.ops = in.blockOps(kinds, in.readers, n)
		p.split = len(p.ops)
		for i := 0; i < p.ticks; i++ {
			// Readers run from light to heavy; spread the ticks over them.
			u := in.readers[i*len(in.readers)/p.ticks]
			p.ops = append(p.ops, newOp(opTidalTrust, u, u))
		}
		p.open = true
		p.period = phase / time.Duration(n)
		p.procs = swapProcs()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloads)
	}
	p.keep = in.sampleKeep(p.ops, 6, 2)
	return p, nil
}

// batchesNeeded is how many ingest batches a workload's plan appends.
func batchesNeeded(name string, seconds int) int {
	if name == "ingest-read" {
		return warmBatches + seconds
	}
	return 1 + probeBatches
}

// passOut is everything one pass measured.
type passOut struct {
	setup      []float64 // s
	r          *reads
	visible    []float64 // ms
	bpp        []float64
	appendLate []float64 // ms
	// heapMB is the live heap with the cluster up, at the end of the
	// timed phase; runWorkload subtracts the live heap once the cluster
	// is closed, leaving the cluster's share.
	heapMB    float64
	attempted int
	failed    int
	failures  []string
	dirty     []int
	// router and shards hold counter scrapes: before and after the
	// timed phase, and (shards) after the last ingest tick.
	router     [2]map[string]float64
	shards     [3]map[string]float64
	gc         [2]gcSample
	batchesRun int
	// ingestFrom is when the measured ingest ticks began.
	ingestFrom time.Time
}

func (o *passOut) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var (
	routerCounters = []string{"trustrouter_proxied_total", "trustrouter_retries_total", "trustrouter_hedges_total"}
	shardCounters  = []string{
		"trustd_result_cache_hits_total", "trustd_result_cache_misses_total",
		"trustd_cache_carryover_total", "trustd_cache_carryover_dropped_total",
		"trustd_graph_delta_rows", "trustd_result_cache_bytes",
	}
)

// setUp boots the cluster from the generated files and warms it: the
// plan's warm-up reads, and on ingest-read the set-up ticks, whose
// ingester it returns. The wall time from boot to warm goes to
// out.setup.
func setUp(in *inputs, p *plan, tr *tracer, out *passOut) (*cluster, *ingester, error) {
	if err := in.resetLog(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	c, err := bootCluster(in, tr)
	if err != nil {
		return nil, nil, err
	}
	warmStart := time.Now()
	out.attempted += len(p.warm)
	for i := c.warm(p.warm); i > 0; i-- {
		out.fail("warm-up read failed")
	}
	var ing *ingester
	if p.open {
		if ing, err = startIngest(in, c, tr); err != nil {
			c.close()
			return nil, nil, err
		}
		out.attempted += warmBatches
		if err := ing.closedLoop(warmBatches); err != nil {
			out.fail("warm-up ingest: %v", err)
		}
	}
	tr.span(0, "boot.warmup", warmStart, time.Now())
	out.setup = append(out.setup, time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up %d: boot %.2fs, warm-up %.2fs\n", p.name, len(out.setup), warmStart.Sub(start).Seconds(), time.Since(warmStart).Seconds())
	return c, ing, nil
}

// setUpAndClose is one set-up whose cluster is closed straight away.
func setUpAndClose(in *inputs, p *plan, tr *tracer, out *passOut) error {
	c, ing, err := setUp(in, p, tr, out)
	if err != nil {
		return err
	}
	defer c.close()
	if ing != nil {
		return ing.close()
	}
	return nil
}

// pass sets the cluster up n times (keeping the last), runs the timed
// phase, the freshness probe and the correctness gate. A non-nil tracer
// makes it the traced pass.
func pass(in *inputs, p *plan, n int, tr *tracer) (*passOut, error) {
	out := &passOut{}
	for k := 1; k < n; k++ {
		if err := setUpAndClose(in, p, tr, out); err != nil {
			return nil, err
		}
	}
	c, ing, err := setUp(in, p, tr, out)
	if err != nil {
		return nil, err
	}
	defer c.close()
	runtime.GC()

	if out.router[0], err = scrape(c.client, c.base, routerCounters...); err != nil {
		return nil, err
	}
	if out.shards[0], err = c.shardCounters(shardCounters...); err != nil {
		return nil, err
	}
	out.gc[0] = readGC()
	if tr != nil {
		tr.live.Store(true)
	}
	if p.open {
		start := time.Now().Add(50 * time.Millisecond)
		out.ingestFrom = start
		var tidal *reads
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Each TidalTrust read is due half a tick after its append,
			// once the swap has evicted its answer: a miss that the
			// ticks never hit at a different phase.
			tidal, _ = openLoop(c, p.ops[p.split:], p.keep[p.split:], start.Add(ingestInterval/2), ingestInterval, nil)
		}()
		hot, err := openLoop(c, p.ops[:p.split], p.keep[:p.split], start, p.period, &appendPlan{ing: ing, n: p.ticks, interval: ingestInterval})
		if err != nil {
			out.fail("ingest: %v", err)
		}
		<-done
		if err := ing.waitFor(ing.size, ingestTimeout); err != nil {
			out.fail("ingest: %v", err)
		}
		out.r = concat(hot, tidal)
	} else {
		out.r = closedLoop(c, p.ops, p.keep)
	}
	if tr != nil {
		tr.live.Store(false)
	}
	out.gc[1] = readGC()
	fmt.Fprintf(os.Stderr, "perfbench: %s timed phase: %d reads in %.2fs\n", p.name, len(p.ops), out.r.elapsed.Seconds())
	out.attempted += len(p.ops)
	for i := 0; i < out.r.failed; i++ {
		out.fail("read answered other than 200")
	}
	if out.router[1], err = scrape(c.client, c.base, routerCounters...); err != nil {
		return nil, err
	}
	if out.shards[1], err = c.shardCounters(shardCounters...); err != nil {
		return nil, err
	}
	out.heapMB = liveHeapMB()

	from := warmBatches
	if !p.open {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(swapProcs()))
		// The read workloads measure freshness after the timed phase:
		// one uncounted tick (the first one materialises each tailer's
		// builder), then the probe, each batch appended once the last
		// is served everywhere.
		if ing, err = startIngest(in, c, tr); err != nil {
			return nil, err
		}
		out.attempted += 1 + p.probe
		if err := ing.closedLoop(1); err != nil {
			out.fail("probe ingest: %v", err)
		} else {
			out.ingestFrom = time.Now()
			if err := ing.closedLoop(p.probe); err != nil {
				out.fail("probe ingest: %v", err)
			}
		}
		from = 1
	} else {
		out.attempted += p.ticks
	}
	if err := ing.close(); err != nil {
		return nil, err
	}
	if len(ing.ends) < from {
		return nil, fmt.Errorf("ingest appended %d batches, want at least %d", len(ing.ends), from)
	}
	out.visible = ing.visible(from)
	out.bpp = ing.batchesPerPoll(ing.ends[from-1])
	out.appendLate = ing.late[from:]
	out.dirty = ing.dirty
	out.batchesRun = ing.next
	for i := 0; i < ing.pollErrs; i++ {
		out.fail("poll failed")
	}
	if out.shards[2], err = c.shardCounters(shardCounters...); err != nil {
		return nil, err
	}
	for s, srv := range c.srvs {
		out.attempted++
		if _, off, _ := srv.Current(); off != ing.size {
			out.fail("shard %d serves offset %d, log ends at %d", s, off, ing.size)
		}
	}
	gateStart := time.Now()
	if err := gate(in, p, c, out); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s ingest %d batches, gate %.2fs\n", p.name, ing.next, time.Since(gateStart).Seconds())
	return out, nil
}

// liveHeapMB forces a full collection and returns the live heap. The
// second GC empties what sync.Pools kept from before the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// gate checks the kept answers. With no ingest during the timed phase
// they must equal the unsharded facade over the generated log; under
// ingest they are checked for shape and label, then refetched once the
// cluster is idle and compared against a cold Derive of the final log.
func gate(in *inputs, p *plan, c *cluster, out *passOut) error {
	var idx []int
	for i := range p.ops {
		if p.keep[i] {
			idx = append(idx, i)
		}
	}
	check := func(ck *checker, o op, raw []byte) {
		out.attempted++
		if err := ck.check(o, raw); err != nil {
			out.fail("check: %v", err)
		}
	}
	if !p.open {
		ref, err := deriveLog(in.pristine)
		if err != nil {
			return err
		}
		ck := &checker{ref: ref, exactRank: true}
		for _, i := range idx {
			if raw, ok := out.r.bodies[i]; ok {
				check(ck, p.ops[i], raw)
			}
		}
		return nil
	}
	shape := &checker{}
	for _, i := range idx {
		if raw, ok := out.r.bodies[i]; ok {
			check(shape, p.ops[i], raw)
		}
	}
	ref, err := deriveLog(in.logPath)
	if err != nil {
		return err
	}
	ck := &checker{ref: ref}
	for _, i := range idx {
		status, raw, err := c.get(p.ops[i].path, true)
		if err != nil || status != http.StatusOK {
			out.attempted++
			out.fail("refetch %s: status %d, %v", p.ops[i].path, status, err)
			continue
		}
		check(ck, p.ops[i], raw)
	}
	return nil
}

// endToEnd derives the user-facing metrics of one pass.
func endToEnd(p *plan, o *passOut) map[string]metric {
	byKind := func(kinds ...opKind) []float64 {
		var xs []float64
		for i, op := range p.ops {
			if slices.Contains(kinds, op.kind) {
				xs = append(xs, o.r.lat[i])
			}
		}
		return xs
	}
	return map[string]metric{
		"setup_s":           {Value: quantile(o.setup, 0.5), Unit: "s", n: len(o.setup)},
		"read_p50_ms":       pct(o.r.lat, 0.50, "ms"),
		"read_p95_ms":       pct(o.r.lat, 0.95, "ms"),
		"read_qps":          {Value: float64(len(p.ops)) / o.r.elapsed.Seconds(), Unit: "1/s", n: len(p.ops)},
		"appleseed_p50_ms":  pct(byKind(opAppleseed), 0.5, "ms"),
		"moletrust_p50_ms":  pct(byKind(opMoleTrust), 0.5, "ms"),
		"tidaltrust_p50_ms": pct(byKind(opTidalTrust), 0.5, "ms"),
		"landmark_p50_ms":   pct(byKind(opLandmarkAppleseed, opLandmarkMoleTrust), 0.5, "ms"),
		"visible_p50_ms":    pct(o.visible, 0.50, "ms"),
		"heap_live_mb":      {Value: o.heapMB, Unit: "MB", n: 1},
	}
}

// result is one workload's report.
type result struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	failures  []string
	calib     [2]float64
}

func runWorkload(name string, seed uint64, seconds int, traced bool, root string) (*result, error) {
	res := &result{}
	res.calib[0] = calibrate()
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := genInputs(dir, seed, batchesNeeded(name, seconds))
	if err != nil {
		return nil, err
	}
	p, err := makePlan(in, name, seconds)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.procs))
	plain, err := pass(in, p, setups, nil)
	if err != nil {
		return nil, err
	}
	// The cluster is closed and unreachable now; what is still live is
	// the harness's: inputs, plan, latencies and kept bodies.
	harness := liveHeapMB()
	fmt.Fprintf(os.Stderr, "perfbench: %s live heap %.2f MB with the cluster up, %.2f MB after it closed\n", name, plain.heapMB, harness)
	plain.heapMB -= harness
	// Machine phases last longer than a set-up, so set-ups on both sides
	// of the timed phase keep one slow phase from moving setup_s alone.
	for k := 0; k < setupsAfter; k++ {
		if err := setUpAndClose(in, p, nil, plain); err != nil {
			return nil, err
		}
	}
	res.e2e = endToEnd(p, plain)
	res.attempted, res.failed, res.failures = plain.attempted, plain.failed, plain.failures
	if traced {
		tr := newTracer()
		out, err := pass(in, p, 1, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += out.attempted
		res.failed += out.failed
		res.failures = append(res.failures, out.failures...)
		if res.layers, err = layerMetrics(in, p, plain, out, tr); err != nil {
			return nil, err
		}
		spans := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	}
	res.calib[1] = calibrate()
	if res.layers != nil {
		res.layers["machine.calib_before_ms"] = metric{Value: res.calib[0], Unit: "ms", n: 1}
		res.layers["machine.calib_after_ms"] = metric{Value: res.calib[1], Unit: "ms", n: 1}
	}
	return res, nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Printf("%-40s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
}

func main() {
	workload := flag.String("workload", "", "read-hot, propagate-miss, ingest-read or all")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs and operation lists")
	seconds := flag.Int("seconds", 20, "rough length of the timed phase; sizes the operation lists")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics instead of end-to-end ones")
	root := flag.String("root", ".", "checkout root; scratch files go under its .bench_build/")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *workload, workloads)
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(*root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(name, *seed, *seconds, *trace == 1, *root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("== %s seed=%d seconds=%d calib_ms before=%.1f after=%.1f\n", name, *seed, *seconds, res.calib[0], res.calib[1])
		printMetrics(res.e2e)
		if res.layers != nil {
			printMetrics(res.layers)
		}
		fmt.Printf("%-40s %14.6f %-6s n=%d\n", "failed_frac", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
		for _, f := range res.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
		}
		report := res.e2e
		if *trace == 1 {
			report = res.layers
		}
		for k, m := range report {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = m
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}
