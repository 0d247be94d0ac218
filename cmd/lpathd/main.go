// Command lpathd serves LPath queries over HTTP.
//
// Usage:
//
//	lpathd -corpus wsj=trees.mrg -addr :8080
//	lpathd -gen wsj -scale 0.01
//	lpathd -corpus a=a.mrg -corpus b=b.mrg -index c=c.idx
//
// Corpora load at startup (bracketed files with -corpus, store snapshots
// with -index, synthetic with -gen) and their indexes are built eagerly, so
// /healthz flips to 200 only once the server can answer queries. Endpoints:
//
//	POST /v1/query    {"corpus","query","limit","timeout_ms"} → matches
//	POST /v1/count    same body → match count only
//	POST /v1/explain  same body → cost-based plan report
//	GET  /healthz     readiness + corpus inventory
//	GET  /metrics     Prometheus text metrics
//	GET  /debug/pprof profiling
//
// Concurrency is bounded (-max-inflight, -max-queue, -queue-wait): excess
// load sheds fast with 429. Every request runs under a deadline
// (-default-timeout, clamped by -max-timeout) and client disconnects cancel
// evaluation cooperatively. Results are cached per corpus generation
// (-result-cache, bounded in bytes by -result-cache-bytes). A /v1/query miss
// streams its matches and stops one past the limit, so it never evaluates
// more of the corpus than the limit needs. See docs/SERVER.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lpath"
	"lpath/internal/server"
)

// corpusFlags collects repeatable NAME=PATH flags.
type corpusFlags []string

func (c *corpusFlags) String() string     { return strings.Join(*c, ",") }
func (c *corpusFlags) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	var (
		corpora corpusFlags
		indexes corpusFlags
	)
	flag.Var(&corpora, "corpus", "load a Penn-bracketed corpus, NAME=FILE (repeatable; bare FILE uses the basename)")
	flag.Var(&indexes, "index", "load a store snapshot, NAME=FILE (repeatable)")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		gen         = flag.String("gen", "", "generate a synthetic corpus: wsj or swb")
		scale       = flag.Float64("scale", 0.01, "synthetic corpus scale (1.0 = paper size)")
		seed        = flag.Int64("seed", 42, "synthetic corpus seed")
		maxInFlight = flag.Int("max-inflight", 4, "maximum concurrent query evaluations")
		maxQueue    = flag.Int("max-queue", 16, "maximum requests queued for an evaluation slot (negative: no queue)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "maximum time a queued request waits before shedding")
		defTimeout  = flag.Duration("default-timeout", 10*time.Second, "per-request evaluation deadline when the request carries none")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "upper clamp on request-supplied deadlines")
		cacheSize   = flag.Int("result-cache", 256, "result cache capacity in entries (negative: disabled)")
		cacheBytes  = flag.Int64("result-cache-bytes", 64<<20, "result cache byte bound (negative: unbounded)")
		defLimit    = flag.Int("default-limit", 100, "default /v1/query match-list cap")
		maxLimit    = flag.Int("max-limit", 10000, "upper clamp on request-supplied limits")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	reg := server.NewRegistry()
	// Both -corpus and -index route through the registry's sniffing loader:
	// snapshot files (by magic, any extension) are memory-mapped, everything
	// else parses as Penn text, so either flag accepts either format.
	loadFile := func(spec string) {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = path[strings.LastIndex(path, "/")+1:]
			for _, ext := range []string{".mrg", ".idx", ".lpx"} {
				name = strings.TrimSuffix(name, ext)
			}
		}
		start := time.Now()
		e, format, err := reg.LoadFile(name, path)
		if err != nil {
			fatal(err)
		}
		trees, nodes, _, _ := e.Corpus.Counts() // the registry built it: no error
		logger.Info("corpus loaded", "name", name, "path", path, "format", format,
			"sentences", trees, "nodes", nodes,
			"load", time.Since(start).Round(time.Millisecond).String())
	}
	for _, spec := range corpora {
		loadFile(spec)
	}
	for _, spec := range indexes {
		loadFile(spec)
	}
	if *gen != "" {
		c, err := lpath.GenerateCorpus(*gen, *scale, *seed)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if _, err := reg.Set(*gen, c); err != nil {
			fatal(err)
		}
		trees, nodes, _, _ := c.Counts() // the registry built it: no error
		logger.Info("corpus loaded", "name", *gen, "format", "generated",
			"sentences", trees, "nodes", nodes,
			"load", time.Since(start).Round(time.Millisecond).String())
	}
	if reg.Len() == 0 {
		fatal(fmt.Errorf("no corpora: provide -corpus NAME=FILE, -index NAME=FILE or -gen wsj|swb"))
	}

	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	srv := server.New(reg, server.Config{
		Addr:           *addr,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		CacheSize:      *cacheSize,
		CacheBytes:     *cacheBytes,
		DefaultLimit:   *defLimit,
		MaxLimit:       *maxLimit,
		Logger:         reqLogger,
	})

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "corpora", reg.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpathd:", err)
	os.Exit(1)
}
