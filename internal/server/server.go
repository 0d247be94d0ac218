package server

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"
)

// Config carries the serving limits and defaults; zero values select the
// documented defaults.
type Config struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string
	// MaxInFlight bounds concurrent query evaluations (default 4).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an evaluation slot (default 16;
	// negative disables queueing, so saturation sheds immediately).
	MaxQueue int
	// QueueWait bounds how long a queued request waits before shedding
	// (default 100ms; negative disables waiting entirely).
	QueueWait time.Duration
	// DefaultTimeout is the per-request evaluation deadline when the request
	// carries none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines (default 60s).
	MaxTimeout time.Duration
	// CacheSize is the result-cache capacity in entries (default 256;
	// negative disables result caching).
	CacheSize int
	// CacheBytes bounds the result cache's total estimated memory, evicting
	// LRU entries once exceeded (default 64 MiB; negative removes the bound,
	// leaving only the entry-count capacity).
	CacheBytes int64
	// DefaultLimit is the /v1/query match-list cap when the request carries
	// none (default 100).
	DefaultLimit int
	// MaxLimit clamps request-supplied limits (default 10000).
	MaxLimit int
	// Logger receives structured request logs; nil disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded
	}
	if c.DefaultLimit == 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit == 0 {
		c.MaxLimit = 10000
	}
	return c
}

// Server is the lpathd HTTP front end: registry lookups, admission control,
// result caching and metrics around the LPath engine.
type Server struct {
	cfg       Config
	registry  *Registry
	admission *Admission
	cache     *ResultCache
	metrics   *Metrics
	http      *http.Server
}

// New assembles a server over the registry. Corpora may be registered before
// or after New; /healthz reports 503 until the registry is non-empty.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		registry:  reg,
		admission: NewAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache:     NewResultCacheBytes(cfg.CacheSize, cfg.CacheBytes),
		metrics:   NewMetrics(),
	}
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Registry returns the server's corpus registry.
func (s *Server) Registry() *Registry { return s.registry }

// InvalidateCorpus drops the named corpus's cached results; call it after
// swapping a corpus in the registry. (Generation keying already prevents
// stale hits; this releases the memory promptly.)
func (s *Server) InvalidateCorpus(name string) { s.cache.InvalidateCorpus(name) }

// Handler builds the route table. It is exported so tests (and embedders)
// can drive the server through httptest without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.instrument("query", s.handleEval("query")))
	mux.HandleFunc("/v1/count", s.instrument("count", s.handleEval("count")))
	mux.HandleFunc("/v1/explain", s.instrument("explain", s.handleEval("explain")))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	// pprof is wired explicitly: the server deliberately never touches
	// http.DefaultServeMux, so tests can run many instances side by side.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusRecorder captures the status code an inner handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint metrics: in-flight gauge,
// latency histogram and status-code counters.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		ep.inFlight.Add(1)
		defer ep.inFlight.Add(-1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		ep.observe(rec.code, time.Since(start))
	}
}

// ListenAndServe starts serving on the configured address and blocks until
// Shutdown or a listener error; like http.Server, it returns
// http.ErrServerClosed after a clean Shutdown.
func (s *Server) ListenAndServe() error {
	return s.http.ListenAndServe()
}

// Shutdown drains in-flight requests and stops the server.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}
