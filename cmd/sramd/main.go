// Command sramd is the simulation-as-a-service daemon: it serves the
// internal/server HTTP API — submit experiment specs and trace uploads,
// poll or stream job progress, fetch canonical run artifacts — on top of a
// bounded job queue executed through internal/engine.
//
// Usage:
//
//	sramd                                  # listen on 127.0.0.1:8344
//	sramd -listen :8344 -workers 8         # public, fixed worker pool
//	sramd -listen 127.0.0.1:0              # ephemeral port (printed on stdout)
//	sramd -queue 128 -max-body 512000000   # backpressure limits
//	sramd -job-timeout 5m -drain 30s       # per-job cap, shutdown deadline
//	sramd -cache-dir /var/cache/sramd      # persist the result cache (disk tier)
//	sramd -cache-mem-bytes 134217728       # hot-tier budget (default 64 MiB)
//	sramd -cache-disk-bytes 2147483648     # disk-tier size cap (default 1 GiB)
//	sramd -no-cache                        # disable result caching entirely
//	sramd -journal-dir /var/lib/sramd      # durable jobs: survive a kill -9
//	sramd -checkpoint-every 4              # denser mid-job checkpoints
//	sramd -journal-retain 168h             # forget week-old finished jobs on restart
//	sramd -coordinator -peers http://a:8344,http://b:8344   # sweep coordinator
//	sramd -pprof                           # mount /debug/pprof/ (off by default)
//	sramd -version
//
// Result caching is on by default (memory tier only; add -cache-dir for a
// persistent disk tier shared with cmd/sweep). A submission whose config
// hash is already cached completes instantly with `"cached": true` in its
// status; see the README "Result caching" section.
//
// -journal-dir makes jobs durable: state transitions are fsynced to an
// append-only journal whose submission records carry the specs, each
// running job checkpoints its full controller state into one file,
// DIR/ckpt/<job-id>, removed when the job finishes, and a restarted daemon
// replays the journal — same job ids, same states, running jobs resumed
// from their latest checkpoint. It defaults -cache-dir to DIR/cas, so
// results survive a restart too; with -no-cache the journal still works,
// and a recovered succeeded job answers 410 for its artifact.
// The directory is locked per daemon (stale locks from a crash are taken
// over; a live twin fails fast). See DESIGN.md §12 and the README
// "Durability and crash recovery" section.
//
// -coordinator runs the distributed front half instead of a worker: the
// daemon serves the internal/coord sweep API (POST /v1/sweeps), decomposes
// each sweep into single-point jobs, fans them out over the sramd workers
// named by -peers (or registered later via POST /v1/workers), and merges the
// verified per-point artifacts into one canonical ledger. Failed, timed-out,
// or corrupt dispatches retry with jittered exponential backoff behind
// per-worker circuit breakers. With -journal-dir the sweep table survives a
// coordinator kill: unfinished sweeps resume on restart, with
// already-finished points served from the result cache. See DESIGN.md §13
// and the README "Distributed mode" section.
//
// The daemon prints exactly one line to stdout once it is serving —
// "sramd listening on http://ADDR" — which is what cmd/sramload's -sramd
// mode parses. SIGINT/SIGTERM begin a graceful shutdown: /readyz flips to
// 503, new submissions are refused, and in-flight jobs drain under the
// -drain deadline (past it they are cancelled). See DESIGN.md §10 and the
// README "Running as a service" section for the API and curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sramd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:8344", "address to serve on (port 0 picks one)")
		workers     = flag.Int("workers", 0, "concurrent jobs (0 = one per CPU)")
		queueDepth  = flag.Int("queue", 0, "queued-job limit before 429s (0 = 64)")
		maxBody     = flag.Int64("max-body", 0, "max submission body bytes, spec + trace (0 = 256 MiB)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job run deadline (0 = none)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		spool       = flag.String("spool", "", "directory for spooled trace uploads (default: system temp)")
		cacheDir    = flag.String("cache-dir", "", "directory for the persistent result-cache disk tier (default: memory-only)")
		cacheMem    = flag.Int64("cache-mem-bytes", 0, "result-cache memory-tier budget (0 = 64 MiB)")
		cacheDisk   = flag.Int64("cache-disk-bytes", 0, "result-cache disk tier size cap (0 = 1 GiB)")
		noCache     = flag.Bool("no-cache", false, "disable result caching: every job simulates")
		journalDir  = flag.String("journal-dir", "", "directory for the durable job journal: jobs survive a daemon kill (default: off)")
		ckptEvery   = flag.Int("checkpoint-every", 16, "with -journal-dir, checkpoint running jobs every N batches (0 = journal only, no checkpoints)")
		jRetain     = flag.Duration("journal-retain", 0, "with -journal-dir, GC terminal jobs older than this window at startup compaction; live jobs are never aged out (0 = keep forever)")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ (profiling; keep off on untrusted networks)")
		showVersion = flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")

		coordinator  = flag.Bool("coordinator", false, "serve the sweep-coordinator API instead of the worker job API")
		peers        = flag.String("peers", "", "coordinator: comma-separated sramd worker base URLs (more can join via POST /v1/workers)")
		dispatch     = flag.Int("dispatch", 0, "coordinator: concurrent point dispatches per sweep (0 = 4)")
		pointTimeout = flag.Duration("point-timeout", 0, "coordinator: one dispatch attempt's end-to-end deadline (0 = 2m)")
		pointRetries = flag.Int("point-retries", 0, "coordinator: dispatch attempts per point before the sweep fails (0 = 5)")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(report.Version("sramd"))
		return nil
	}

	if *journalDir != "" {
		// The journal claims its directory exclusively: fail fast on an
		// unwritable path or a live twin daemon, take over a stale lock left
		// by a crash. Released on clean shutdown only.
		release, err := server.AcquireDirLock(*journalDir)
		if err != nil {
			return err
		}
		defer release()
		if *cacheDir == "" {
			// Co-locate a disk tier with the journal, so one -journal-dir flag
			// keeps results across a restart as well as jobs.
			*cacheDir = filepath.Join(*journalDir, "cas")
		}
	}
	var cache *rescache.Cache
	if !*noCache {
		var err error
		cache, err = rescache.Open(rescache.Config{
			Dir:       *cacheDir,
			MemBytes:  *cacheMem,
			DiskBytes: *cacheDisk,
		})
		if err != nil {
			return err
		}
		defer cache.Close()
		// Lock the cache dir after Open: a fresh cache dir must be empty when
		// Open first sees it, and Open's own errors already cover the
		// unwritable case. The lock adds live-twin detection.
		if *cacheDir != "" {
			release, err := server.AcquireDirLock(*cacheDir)
			if err != nil {
				return err
			}
			defer release()
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	var (
		handler  http.Handler
		shutdown func(context.Context) error
	)
	if *coordinator {
		var workerURLs []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				workerURLs = append(workerURLs, p)
			}
		}
		c, err := coord.New(coord.Config{
			Workers:          workerURLs,
			DispatchParallel: *dispatch,
			PointTimeout:     *pointTimeout,
			PointAttempts:    *pointRetries,
			Cache:            cache,
			JournalDir:       *journalDir,
			Version:          report.GitSHA(),
		})
		if err != nil {
			return err
		}
		handler = c.Handler()
		shutdown = c.Shutdown
		log.Printf("coordinator mode: %d worker(s) registered", len(workerURLs))
	} else {
		srv, err := server.New(server.Config{
			Workers:         *workers,
			QueueDepth:      *queueDepth,
			MaxBodyBytes:    *maxBody,
			JobTimeout:      *jobTimeout,
			SpoolDir:        *spool,
			Cache:           cache,
			JournalDir:      *journalDir,
			CheckpointEvery: *ckptEvery,
			JournalRetain:   *jRetain,
		})
		if err != nil {
			return err
		}
		handler = srv.Handler()
		shutdown = srv.Shutdown
	}
	if *withPprof {
		// Wrap rather than mutate: the API handler (worker or coordinator)
		// keeps owning everything except the profiling prefix.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("profiling: net/http/pprof mounted at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The one stdout line tooling scrapes for the resolved address.
	fmt.Printf("sramd listening on http://%s\n", ln.Addr())
	log.Printf("%s", report.Version("sramd"))
	switch {
	case cache == nil:
		log.Printf("result cache disabled")
	case *cacheDir == "":
		log.Printf("result cache: memory-only")
	default:
		log.Printf("result cache: %s", *cacheDir)
	}
	switch {
	case *journalDir != "" && *coordinator:
		log.Printf("sweep journal: %s", *journalDir)
	case *journalDir != "":
		log.Printf("job journal: %s (checkpoint every %d batches)", *journalDir, *ckptEvery)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining (deadline %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := shutdown(dctx); err != nil {
		log.Printf("drain deadline exceeded; in-flight work cancelled")
	} else {
		log.Printf("drained cleanly")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	return hs.Shutdown(hctx)
}
