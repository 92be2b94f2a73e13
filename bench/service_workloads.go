package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/server"
	"cache8t/internal/workload"
)

// freshSeed derives the seed of the k-th fresh submission of a run, so no
// two fresh jobs or sweeps of one run share a config hash.
func freshSeed(runSeed uint64, k int64) uint64 { return runSeed*1_000_000 + uint64(k) + 1 }

// --- serve_mixed ------------------------------------------------------------

// serveRound is a client's submission cycle: serveRound-1 fresh specs that
// miss, then a re-submission of the round's first spec, which hits.
const serveRound = 4

// serveControllers are the schemes the fresh submissions rotate through.
var serveControllers = []string{"rmw", "wg", "wgrb"}

type serveMixed struct {
	st   *jobServer
	tr   *tracer
	seed uint64
	n    int
	next atomic.Int64

	mu          sync.Mutex
	log         []jobSample // timed-phase submissions
	missDigest  map[string][32]byte
	firstMiss   map[string]missRecord // by controller
	hits        int
	misses      int
	scriptedHit int
	hitMismatch int
	unexpected  int // fresh specs that hit or re-submissions that missed
}

// missRecord is one miss kept for the reference comparison.
type missRecord struct {
	spec server.JobSpec
	art  []byte
}

func setupServe(e *env) (instance, error) {
	st, err := startJobServer(e.dir, loadGoroutines)
	if err != nil {
		return nil, err
	}
	s := &serveMixed{st: st, tr: e.tr, seed: e.seed, n: e.sizes.jobN,
		missDigest: map[string][32]byte{}, firstMiss: map[string]missRecord{}}
	if err := warmUp(e.tr, func(op span) sample { return s.round(op, false) }); err != nil {
		st.close()
		return nil, err
	}
	return s, nil
}

// fresh returns the next spec of the rotation over profiles x controllers,
// with a seed no earlier submission used.
func (s *serveMixed) fresh() server.JobSpec {
	k := s.next.Add(1) - 1
	names := workload.Names()
	spec := server.JobSpec{
		Controller: serveControllers[int(k)%len(serveControllers)],
		Workload:   names[int(k)/len(serveControllers)%len(names)],
		N:          s.n,
		Seed:       freshSeed(s.seed, k),
	}
	spec.Normalize()
	return spec
}

// round is one client's op: serveRound-1 fresh submissions, then the
// re-submission of the round's first spec. timed says whether the round's
// submissions belong to the timed phase's job log.
func (s *serveMixed) round(op span, timed bool) sample {
	smp := sample{units: serveRound}
	var first server.JobSpec
	for i := 0; i < serveRound; i++ {
		hit := i == serveRound-1
		spec := first
		if !hit {
			spec = s.fresh()
			if i == 0 {
				first = spec
			}
		}
		js, err := s.submit(spec, hit, op, timed)
		if err != nil {
			smp.failed++
			smp.err = err
			continue
		}
		if !js.hit {
			smp.accesses += js.accesses
		}
	}
	return smp
}

// submit runs one submission under op and books its outcome.
func (s *serveMixed) submit(spec server.JobSpec, wantHit bool, op span, timed bool) (jobSample, error) {
	sp := op.child("submission")
	js, art, err := s.st.cl.runJob(spec, sp)
	js.latency = sp.end()
	if err != nil {
		return js, err
	}
	key := fmt.Sprintf("%s/%s/%d", spec.Controller, spec.Workload, spec.Seed)
	d := sha256.Sum256(art)
	s.mu.Lock()
	defer s.mu.Unlock()
	if timed {
		s.log = append(s.log, js)
	}
	if wantHit {
		s.scriptedHit++
	}
	if js.hit != wantHit {
		s.unexpected++
	}
	if js.hit {
		s.hits++
		if prev, ok := s.missDigest[key]; !ok || prev != d {
			s.hitMismatch++
		}
		return js, nil
	}
	s.misses++
	s.missDigest[key] = d
	if _, ok := s.firstMiss[spec.Controller]; !ok {
		s.firstMiss[spec.Controller] = missRecord{spec: spec, art: art}
	}
	return js, nil
}

// run drives loadGoroutines closed-loop clients, each issuing rounds back
// to back.
func (s *serveMixed) run(deadline time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for c := 0; c < loadGoroutines; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serially(deadline, rec, s.tr, "round", func(op span) sample { return s.round(op, true) }, nil)
		}()
	}
	wg.Wait()
}

func (s *serveMixed) jobs() []jobSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]jobSample(nil), s.log...)
}

func (s *serveMixed) check() []gate {
	s.mu.Lock()
	defer s.mu.Unlock()
	gates := []gate{
		{Name: "hits_byte_equal_to_misses", OK: s.hitMismatch == 0,
			Note: fmt.Sprintf("%d hits differ from their miss", s.hitMismatch)},
		{Name: "scripted_hits", OK: s.unexpected == 0 && s.hits == s.scriptedHit,
			Note: fmt.Sprintf("%d hits, %d scripted, %d submissions hit or missed unexpectedly", s.hits, s.scriptedHit, s.unexpected)},
	}
	for _, ctrl := range serveControllers {
		name := "artifact_vs_execute." + ctrl
		m, ok := s.firstMiss[ctrl]
		if !ok {
			gates = append(gates, gate{Name: name, Note: "no miss of this controller completed"})
			continue
		}
		want, err := server.Execute(background, m.spec, m.spec.Workload, nil)
		gates = append(gates, compareGate(name, want, m.art, err, "the served artifact differs from server.Execute"))
	}
	g := gate{Name: "rescache_counters"}
	hits, err1 := s.st.cl.metricSum("rescache_hits_total")
	misses, err2 := s.st.cl.metricSum("rescache_misses_total")
	dedups, err3 := s.st.cl.metricSum("rescache_dedup_total")
	switch {
	case err1 != nil || err2 != nil || err3 != nil:
		g.Note = fmt.Sprint(err1, err2, err3)
	case int(hits) != s.hits || int(misses) != s.misses || dedups != 0:
		g.Note = fmt.Sprintf("/metrics has %v hits, %v misses, %v dedups; the clients saw %d hits, %d misses",
			hits, misses, dedups, s.hits, s.misses)
	default:
		g.OK = true
		g.Note = fmt.Sprintf("hit ratio %.4f", hits/(hits+misses))
	}
	return append(gates, g)
}

func (s *serveMixed) close() error { return s.st.close() }

// --- sweep_fleet ------------------------------------------------------------

// sweepProfiles are the 8 profiles of every sweep: write-heavy, read-heavy
// and mixed, so a sweep's points differ in cost.
var sweepProfiles = []string{"bwaves", "mcf", "gamess", "gcc", "lbm", "libquantum", "omnetpp", "milc"}

type sweepFleet struct {
	fl     *fleetStack
	tr     *tracer
	seed   uint64
	n      int
	width  int
	k      int64
	first  coord.SweepSpec
	ledger []byte
	log    []sweepSample
	errs   int // traced-run analyses that failed

	// The last sweep's ledger and wait span, for after.
	lastLedger []byte
	lastWait   span
}

func setupSweep(e *env) (instance, error) {
	fl, err := startFleet(e.dir)
	if err != nil {
		return nil, err
	}
	s := &sweepFleet{fl: fl, tr: e.tr, seed: e.seed, n: e.sizes.sweepN, width: e.sizes.sweepW}
	if err := warmUp(e.tr, s.iterate); err != nil {
		fl.close()
		return nil, err
	}
	if err := fl.skipJobs(); err != nil {
		fl.close()
		return nil, err
	}
	return s, nil
}

// sweepSpec is the k-th sweep of a run: 3 controllers x sweepProfiles at a
// fresh seed.
func sweepSpec(runSeed uint64, k int64, profiles []string, n int) coord.SweepSpec {
	spec := coord.SweepSpec{
		Controllers: serveControllers,
		Workloads:   profiles,
		Seeds:       []uint64{freshSeed(runSeed, k)},
		N:           n,
	}
	spec.Normalize()
	return spec
}

// iterate runs the next sweep under op.
func (s *sweepFleet) iterate(op span) sample {
	spec := sweepSpec(s.seed, s.k, sweepProfiles[:s.width], s.n)
	s.k++
	ledger, wait, err := s.fl.runSweep(spec, op)
	if err != nil {
		return sample{units: 1, failed: 1, err: err}
	}
	if s.ledger == nil {
		s.first, s.ledger = spec, ledger
	}
	s.lastLedger, s.lastWait = ledger, wait
	return sample{units: 1, accesses: uint64(spec.Points() * s.n)}
}

// run issues sweeps back to back. In traced runs each finished sweep's
// worker jobs are attributed to it after its clock stops.
func (s *sweepFleet) run(deadline time.Time, rec *recorder) {
	serially(deadline, rec, s.tr, "sweep", s.iterate, func(smp sample) {
		if s.tr == nil || smp.failed > 0 {
			return
		}
		if a, err := s.fl.analyze(s.lastLedger, smp.lat, s.lastWait); err != nil {
			s.errs++
		} else {
			s.log = append(s.log, a)
		}
	})
}

func (s *sweepFleet) sweeps() []sweepSample { return s.log }

func (s *sweepFleet) fleet() *fleetStack { return s.fl }

func (s *sweepFleet) check() []gate {
	want, err := coord.ExecuteSerial(background, s.first)
	g := compareGate("ledger_vs_execute_serial", want, s.ledger, err,
		"the first sweep's merged ledger differs from coord.ExecuteSerial")
	r := gate{Name: "no_redispatches"}
	if n, err := s.fl.cl.metricSum("coord_redispatches_total"); err != nil {
		r.Note = err.Error()
	} else {
		r.OK = n == 0
		r.Note = fmt.Sprintf("%v redispatches", n)
	}
	a := gate{Name: "sweep_analysis", OK: s.errs == 0, Note: fmt.Sprintf("%d traced sweeps could not be attributed", s.errs)}
	return []gate{g, r, a}
}

func (s *sweepFleet) close() error { return s.fl.close() }
