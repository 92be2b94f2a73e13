package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/experiments"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/server"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// metricDef names a reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same definitions; a test keeps the two
// in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"sim_maccess_per_s", "Macc/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of traced runs.
var perLayer = []metricDef{
	{"workload.gen_ns_per_access", "ns/access", "lower"},
	{"trace.decode_ns_per_access", "ns/access", "lower"},
	{"trace.route_ns_per_access", "ns/access", "lower"},
	{"trace.route_imbalance", "ratio", "lower"},
	{"trace.broadcast_ns_per_access", "ns/access", "lower"},
	{"trace.pipeline_ns_per_access", "ns/access", "lower"},
	{"core.rmw.ns_per_access", "ns/access", "lower"},
	{"core.wg.ns_per_access", "ns/access", "lower"},
	{"core.wgrb.ns_per_access", "ns/access", "lower"},
	{"core.rmw.array_accesses_per_request", "acc/req", "lower"},
	{"core.wg.array_accesses_per_request", "acc/req", "lower"},
	{"core.wgrb.array_accesses_per_request", "acc/req", "lower"},
	{"core.wg.premature_wbs_per_kreq", "count/kreq", "lower"},
	{"core.wg.grouped_writes_per_kreq", "count/kreq", "higher"},
	{"core.wgrb.bypassed_reads_per_kreq", "count/kreq", "higher"},
	{"cache.miss_rate", "frac", "lower"},
	{"model.paper_err_pp", "pp", "lower"},
	{"report.encode_us", "us", "lower"},
	{"report.artifact_bytes", "bytes", "lower"},
	{"rescache.put_disk_ms", "ms", "lower"},
	{"rescache.get_mem_us", "us", "lower"},
	{"server.journal_append_ms", "ms", "lower"},
	{"server.miss_p50_ms", "ms", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.job_tail_ms", "ms", "lower"},
	{"server.queue_ms_p50", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.overhead_ms_p50", "ms", "lower"},
	{"coord.point_run_ms_p50", "ms", "lower"},
	{"coord.worker_busy_frac", "frac", "higher"},
	{"coord.dispatch_overhead_ms_per_point", "ms", "lower"},
	{"coord.merge_ms", "ms", "lower"},
	{"coord.redispatches", "count", "lower"},
	{"go.alloc_bytes_per_access", "B/access", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"host.cpu_util", "frac", "higher"},
	{"bench.traced_op_p50_ms", "ms", "lower"},
}

// paperWG and paperWGRB are the paper's Figure 9 mean reductions, in %.
const (
	paperWG   = 27.0
	paperWGRB = 33.0
)

// prober times separate calls into each layer's public functions on the
// workload's inputs, one profile per round. Where the workload itself runs
// no jobs or no sweeps, it also drives a small job server and fleet of its
// own, so every per-layer metric is measured on every workload.
type prober struct {
	w       workloadDef
	inst    instance
	tr      *tracer
	seed    uint64
	sz      sizes
	dir     string
	cfg     cache.Config
	cache   *rescache.Cache
	journal *server.Journal
	serve   *jobServer  // nil when the workload logs its own jobs
	fleet   *fleetStack // nil when the workload logs its own sweeps
	k       int64       // probe jobs and sweeps submitted

	vals   map[string][]float64
	jobs   []jobSample
	sweeps []sweepSample
	pairs  []experiments.ReductionPair
}

func newProber(w workloadDef, inst instance, cfg runConfig, tr *tracer) (*prober, error) {
	p := &prober{w: w, inst: inst, tr: tr, seed: cfg.seed, sz: cfg.sizes,
		dir: filepath.Join(cfg.dir, "probes"), cfg: cache.DefaultConfig(), vals: map[string][]float64{}}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if p.cache, err = rescache.Open(rescache.Config{Dir: filepath.Join(p.dir, "cache")}); err != nil {
		return nil, err
	}
	if p.journal, _, err = server.OpenRecordJournal(filepath.Join(p.dir, "journal")); err != nil {
		p.close()
		return nil, err
	}
	if _, ok := inst.(jobLog); !ok {
		if p.serve, err = startJobServer(p.dir, loadGoroutines); err != nil {
			p.close()
			return nil, err
		}
	}
	if _, ok := inst.(sweepLog); !ok {
		if p.fleet, err = startFleet(p.dir); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *prober) close() error {
	var errs []error
	if p.serve != nil {
		errs = append(errs, p.serve.close())
	}
	if p.fleet != nil {
		errs = append(errs, p.fleet.close())
	}
	if p.journal != nil {
		errs = append(errs, p.journal.Close())
	}
	if p.cache != nil {
		errs = append(errs, p.cache.Close())
	}
	return errors.Join(errs...)
}

// minProbeRounds is the fewest probe rounds a traced run makes, however
// short its time.
const minProbeRounds = 2

// run makes probe rounds until deadline and returns the rounds attempted
// and failed.
func (p *prober) run(deadline time.Time) (attempted, failed int) {
	for r := 0; r < minProbeRounds || time.Now().Before(deadline); r++ {
		attempted++
		if err := p.round(r); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: probe round %d: %v\n", r, err)
		}
	}
	return attempted, failed
}

// add records one round's value of a metric.
func (p *prober) add(name string, v float64) { p.vals[name] = append(p.vals[name], v) }

// perAccess records a duration per access in ns.
func (p *prober) perAccess(name string, d time.Duration, n int) {
	p.add(name, float64(d.Nanoseconds())/float64(n))
}

// round probes every layer once on the round's profile.
func (p *prober) round(r int) error {
	root := p.tr.root("probe")
	defer root.end()
	name := p.w.profiles[r%len(p.w.profiles)]
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return err
	}
	n := p.sz.probeN

	sp := root.child("workload.gen")
	g, err := workload.Stream(name, p.seed)
	if err != nil {
		return err
	}
	if err := trace.NewBatcher(trace.NewLimit(g, uint64(n)), 0).Drain(func([]trace.Access) error { return nil }); err != nil {
		return err
	}
	p.perAccess("workload.gen_ns_per_access", sp.end(), n)

	accs, err := workload.Take(prof, p.seed, n)
	if err != nil {
		return err
	}
	path := filepath.Join(p.dir, name+".c8tt")
	if _, err := os.Stat(path); err != nil {
		if err := writeTrace(path, name, p.seed, n); err != nil {
			return err
		}
	}

	sp = root.child("trace.decode")
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	s, err := trace.NewAnyReader(f)
	if err == nil {
		err = trace.NewBatcher(s, 0).Drain(func([]trace.Access) error { return nil })
	}
	f.Close()
	decode := sp.end()
	if err != nil {
		return err
	}
	p.perAccess("trace.decode_ns_per_access", decode, n)

	if err := p.route(root, accs); err != nil {
		return err
	}
	if err := p.broadcast(root, accs); err != nil {
		return err
	}

	results := make(map[core.Kind]core.Result, len(paperKinds))
	var rmwTime time.Duration
	for _, k := range paperKinds {
		sp = root.child("core." + kindName(k))
		res, err := core.RunStreamContext(background, k, p.cfg, core.Options{}, trace.FromSlice(accs), 0, 0)
		d := sp.end()
		if err != nil {
			return err
		}
		if k == core.RMW {
			rmwTime = d
		}
		results[k] = res
		p.perAccess("core."+kindName(k)+".ns_per_access", d, n)
		p.add("core."+kindName(k)+".array_accesses_per_request", res.AccessesPerRequest())
	}
	rmw, wg, wgrb := results[core.RMW], results[core.WG], results[core.WGRB]
	kreq := float64(n) / 1000
	p.add("core.wg.premature_wbs_per_kreq", float64(wg.Counters.PrematureWBs)/kreq)
	p.add("core.wg.grouped_writes_per_kreq", float64(wg.Counters.GroupedWrites)/kreq)
	p.add("core.wgrb.bypassed_reads_per_kreq", float64(wgrb.Counters.BypassedReads)/kreq)
	p.add("cache.miss_rate", rmw.Cache.MissRate())
	p.pairs = append(p.pairs, experiments.ReductionPair{
		WG:   stats.Reduction(wg.ArrayAccesses(), rmw.ArrayAccesses()),
		WGRB: stats.Reduction(wgrb.ArrayAccesses(), rmw.ArrayAccesses()),
	})

	sp = root.child("core.rmw.stream")
	streamed, err := replayFile(path, func(s trace.Stream) (core.Result, error) {
		return core.RunStreamContext(background, core.RMW, p.cfg, core.Options{}, s, 0, 0)
	})
	d := sp.end()
	a, err := ledgerBytes(streamed, err)
	if err != nil {
		return err
	}
	b, err := ledgerBytes(rmw, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("replaying the probe file gave a different RMW ledger than the slice")
	}
	// What a streamed replay costs beyond decoding and simulating alone.
	p.perAccess("trace.pipeline_ns_per_access", d-decode-rmwTime, n)

	spec := server.JobSpec{Controller: "rmw", Workload: name, N: n, Seed: p.seed}
	spec.Normalize()
	sp = root.child("report.encode")
	blob, err := report.Encode(server.Artifact(spec, name, rmw))
	p.add("report.encode_us", float64(sp.end().Nanoseconds())/1e3)
	if err != nil {
		return err
	}
	p.add("report.artifact_bytes", float64(len(blob)))

	key := fmt.Sprintf("probe-%d", r)
	sp = root.child("rescache.put")
	p.cache.Put(key, blob)
	p.add("rescache.put_disk_ms", float64(sp.end().Nanoseconds())/1e6)
	sp = root.child("rescache.get")
	got, tier, ok := p.cache.Get(key)
	p.add("rescache.get_mem_us", float64(sp.end().Nanoseconds())/1e3)
	if !ok || tier != rescache.TierMemory || !bytes.Equal(got, blob) {
		return fmt.Errorf("rescache get after put: ok=%v tier=%q", ok, tier)
	}
	if snap := p.cache.Snapshot(); snap.PutErrors > 0 {
		return fmt.Errorf("rescache: %d disk puts failed", snap.PutErrors)
	}

	sp = root.child("server.journal_append")
	err = p.journal.AppendRecord(server.Record{Job: fmt.Sprintf("p-%06d", r), State: server.StateQueued,
		SpecKey: key, UnixMS: time.Now().UnixMilli()})
	p.add("server.journal_append_ms", float64(sp.end().Nanoseconds())/1e6)
	if err != nil {
		return err
	}

	if p.serve != nil {
		if err := p.job(root, name, r); err != nil {
			return err
		}
	}
	if p.fleet != nil {
		if err := p.sweep(root, name); err != nil {
			return err
		}
	}
	return nil
}

// route drains a set-index RouteBroadcast of the sample into chaseShards
// counting consumers, as the sharded driver routes a trace.
func (p *prober) route(root span, accs []trace.Access) error {
	g, err := cache.NewGeometry(p.cfg.SizeBytes, p.cfg.Ways, p.cfg.BlockBytes)
	if err != nil {
		return err
	}
	sp := root.child("trace.route")
	rb := trace.NewRouteBroadcast(trace.FromSlice(accs), func(batch []trace.Access, dst []int32) {
		for i := range batch {
			dst[i] = int32(g.SetIndex(batch[i].Addr) % chaseShards)
		}
	}, 0, chaseShards, 0)
	counts := make([]int, chaseShards)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := rb.Shard(i)
			for {
				c, ok := f.Next()
				if !ok {
					return
				}
				counts[i] += c.Len()
			}
		}(i)
	}
	wg.Wait()
	rb.Stop()
	d := sp.end()
	if err := rb.Err(); err != nil {
		return err
	}
	total, most := 0, 0
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	if total != len(accs) {
		return fmt.Errorf("route delivered %d of %d accesses", total, len(accs))
	}
	p.perAccess("trace.route_ns_per_access", d, len(accs))
	p.add("trace.route_imbalance", float64(most)/(float64(total)/chaseShards))
	return nil
}

// broadcast drains a Broadcast of the sample into one counting subscriber
// per paper controller. The sample is served access by access, as a
// generator is, so the fan-out copies into its pooled slabs.
func (p *prober) broadcast(root span, accs []trace.Access) error {
	src := trace.FromSlice(accs)
	sp := root.child("trace.broadcast")
	bc := trace.NewBroadcast(trace.Func(src.Next), 0, len(paperKinds), 0)
	counts := make([]int, len(paperKinds))
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := bc.Sub(i)
			for {
				batch, ok := sub.Next()
				if !ok {
					return
				}
				counts[i] += len(batch)
			}
		}(i)
	}
	wg.Wait()
	bc.Stop()
	d := sp.end()
	if err := bc.Err(); err != nil {
		return err
	}
	for _, c := range counts {
		if c != len(accs) {
			return fmt.Errorf("broadcast delivered %d of %d accesses", c, len(accs))
		}
	}
	p.perAccess("trace.broadcast_ns_per_access", d, len(accs))
	return nil
}

// job submits one fresh job of the round's profile to the probe server and
// then re-submits it, so it misses and then hits.
func (p *prober) job(root span, name string, r int) error {
	spec := server.JobSpec{Controller: serveControllers[r%len(serveControllers)], Workload: name,
		N: p.sz.jobN, Seed: freshSeed(p.seed, p.k)}
	p.k++
	spec.Normalize()
	for _, hit := range []bool{false, true} {
		op := root.child("submission")
		js, _, err := p.serve.cl.runJob(spec, op)
		js.latency = op.end()
		if err != nil {
			return err
		}
		if js.hit != hit {
			return fmt.Errorf("probe job: hit=%v, want %v", js.hit, hit)
		}
		p.jobs = append(p.jobs, js)
	}
	return nil
}

// sweep runs one fresh sweep of the round's profile over the probe fleet.
func (p *prober) sweep(root span, name string) error {
	spec := sweepSpec(p.seed, p.k, []string{name}, p.sz.jobN)
	p.k++
	op := root.child("sweep")
	ledger, wait, err := p.fleet.runSweep(spec, op)
	wall := op.end()
	if err != nil {
		return err
	}
	s, err := p.fleet.analyze(ledger, wall, wait)
	if err != nil {
		return err
	}
	p.sweeps = append(p.sweeps, s)
	return nil
}

// metrics assembles every per-layer metric except the ones the caller
// derives from the workload's own timed phase (runtime counters and the
// traced op latency).
func (p *prober) metrics() (map[string]metric, error) {
	vals := map[string][]float64{}
	for k, v := range p.vals {
		vals[k] = v
	}

	jobs := p.jobs
	if jl, ok := p.inst.(jobLog); ok {
		jobs = jl.jobs()
	}
	var missLat []float64
	for _, j := range jobs {
		ms := float64(j.latency.Nanoseconds()) / 1e6
		if j.hit {
			vals["server.hit_p50_ms"] = append(vals["server.hit_p50_ms"], ms)
			continue
		}
		missLat = append(missLat, ms)
		vals["server.queue_ms_p50"] = append(vals["server.queue_ms_p50"], j.queueMS)
		vals["server.run_ms_p50"] = append(vals["server.run_ms_p50"], j.runMS)
		vals["server.overhead_ms_p50"] = append(vals["server.overhead_ms_p50"], ms-j.queueMS-j.runMS)
	}
	vals["server.miss_p50_ms"] = missLat

	sweeps, fl := p.sweeps, p.fleet
	if sl, ok := p.inst.(sweepLog); ok {
		sweeps, fl = sl.sweeps(), sl.fleet()
	}
	for _, s := range sweeps {
		vals["coord.point_run_ms_p50"] = append(vals["coord.point_run_ms_p50"], s.runMS...)
		var run float64
		for _, ms := range s.runMS {
			run += ms
		}
		wallMS := float64(s.wall.Nanoseconds()) / 1e6
		vals["coord.worker_busy_frac"] = append(vals["coord.worker_busy_frac"], run/(fleetWorkers*wallMS))
		if s.points > 0 {
			vals["coord.dispatch_overhead_ms_per_point"] = append(vals["coord.dispatch_overhead_ms_per_point"],
				float64(s.idle.Nanoseconds())/1e6/float64(s.points))
		}
		vals["coord.merge_ms"] = append(vals["coord.merge_ms"], float64(s.merge.Nanoseconds())/1e6)
	}
	redispatches, err := fl.cl.metricSum("coord_redispatches_total")
	if err != nil {
		return nil, err
	}
	vals["coord.redispatches"] = []float64{redispatches}

	pairs := p.pairs
	if pl, ok := p.inst.(pairLog); ok {
		pairs = pl.pairs()
	}
	if len(pairs) > 0 {
		vals["model.paper_err_pp"] = []float64{paperErr(pairs)}
	}

	out := map[string]metric{}
	for _, def := range perLayer {
		xs := vals[def.name]
		switch {
		case callerMetric(def.name):
		case def.name == "server.job_tail_ms" && len(missLat) > 0:
			out[def.name] = jobTail(missLat)
		case len(xs) == 0:
			return nil, fmt.Errorf("per-layer metric %s has no samples", def.name)
		default:
			out[def.name] = summary(xs, def.unit)
		}
	}
	return out, nil
}

// callerMetric reports whether execute, not the prober, supplies a
// per-layer metric.
func callerMetric(name string) bool {
	switch name {
	case "go.alloc_bytes_per_access", "go.gc_cpu_frac", "host.cpu_util", "bench.traced_op_p50_ms":
		return true
	}
	return false
}

// jobTail reports the highest percentile of miss latency with at least ten
// samples beyond it; with too few samples for any, the slowest miss.
func jobTail(lat []float64) metric {
	m := summary(lat, "ms")
	if m.Tail == nil {
		hundred, s := 100.0, sorted(lat)
		m.TailPct, m.Tail = &hundred, &s[len(s)-1]
	}
	m.Value = *m.Tail
	return m
}

// paperErr is the mean distance, in percentage points, between the mean
// measured reductions and the paper's Figure 9 means.
func paperErr(pairs []experiments.ReductionPair) float64 {
	var wg, rb float64
	for _, p := range pairs {
		wg += p.WG
		rb += p.WGRB
	}
	n := float64(len(pairs))
	return (math.Abs(100*wg/n-paperWG) + math.Abs(100*rb/n-paperWGRB)) / 2
}
