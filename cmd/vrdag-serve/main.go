// Command vrdag-serve runs the VRDAG HTTP generation service.
//
// Models come from checkpoints written with `vrdag-gen -save-model`
// (repeatable -model name=path flags) and/or are trained at startup on
// named dataset replicas (-dataset, comma-separated); at least one of
// the two is required. The server scores nothing: for the fidelity of a
// served model, generate offline and compare with vrdag-metrics.
//
//	vrdag-serve -dataset email,bitcoin -scale 0.05 -epochs 10
//	vrdag-serve -model email=email.ckpt -addr :9090
//
// Endpoints: POST /v1/generate, POST /v1/generate/stream (NDJSON),
// POST /v1/ingest (observed edge streams → named forecast sessions; GET
// lists, DELETE removes), POST /v1/forecast and /v1/forecast/stream
// (conditioned generation), GET /v1/models, GET /v1/trace, GET /healthz,
// and GET /metrics (Prometheus text — the one stats surface, served from
// counters alone). With -data-dir, forecast sessions are durable: every
// ingest is WAL-appended and fsynced before it is acknowledged, snapshots
// compact the log, and a restarted server recovers all sessions —
// kill -9 included — with forecasts identical to the pre-crash state.
// With -peers/-advertise, several processes form a cluster: forecast
// sessions are placed on a consistent-hash ring with -replicas copies,
// any node routes session traffic to its primary, a killed primary fails
// over to its replica with byte-identical forecasts, and -quota-rate
// meters tenants (X-Vrdag-Tenant) with per-tenant 429s. On
// SIGINT/SIGTERM the server stops admitting work, signals in-flight
// streaming responses to finish the snapshot they are on and append a
// truncation trailer, and drains everything within -drain before exiting
// — connections are handed a well-formed end of stream instead of being
// cut.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vrdag/internal/cluster"
	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/obs"
	"vrdag/internal/server"
	"vrdag/internal/tensor"
)

const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataset = flag.String("dataset", "", "comma-separated dataset replicas to train and serve (email, bitcoin, wiki, guarantee, brain, gdelt)")
		scale   = flag.Float64("scale", 0.05, "replica scale factor (1 = paper size)")
		epochs  = flag.Int("epochs", 10, "training epochs for -dataset models")
		seed    = flag.Int64("seed", 1, "seed for replica generation and training")
		workers = flag.Int("workers", 0, "requests decoding at once (0 = GOMAXPROCS)")
		maxT    = flag.Int("max-t", 512, "largest horizon accepted per request")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for draining in-flight (incl. streaming) responses")
		quiet   = flag.Bool("quiet", false, "suppress training progress output")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		logFmt  = flag.String("log-format", "text", "structured log format: text or json")
		slowMS  = flag.Float64("slow-ms", 0, "log any trace at least this many ms of wall time, spans included (0 disables)")

		dataDir     = flag.String("data-dir", "", "persist forecast sessions under this directory (WAL + snapshots); empty keeps sessions in memory only")
		maxResident = flag.Int("max-resident", 0, "sessions kept decoded in memory; idler ones spill to disk (0 = no cap beyond -data-dir defaults)")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request handler deadline, streaming responses included (0 = unbounded)")

		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster node (this one included); empty runs single-node")
		advertise = flag.String("advertise", "", "this node's base URL as it appears in -peers (required with -peers)")
		replicas  = flag.Int("replicas", 2, "copies per forecast session, primary included (cluster mode)")

		quotaRate = flag.Float64("quota-rate", 0, "per-tenant admission quota in requests/sec, burst max(1, ceil(rate)) (X-Vrdag-Tenant header; 0 disables)")
	)
	modelFlags := map[string]string{}
	flag.Func("model", "checkpoint to serve, as name=path (repeatable)", func(v string) error {
		return parsePair(v, modelFlags)
	})
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFmt)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	var datasetNames []string
	for _, name := range strings.Split(*dataset, ",") {
		if name = strings.TrimSpace(name); name != "" {
			datasetNames = append(datasetNames, name)
		}
	}
	if len(modelFlags)+len(datasetNames) == 0 {
		fatal("no model to serve: give -model name=path and/or -dataset")
	}
	logger.Info("compute backend", "backend", tensor.ActiveBackend(),
		"cpu_features", strings.Join(tensor.CPUFeatures(), ","))
	// Every request is traced into the default 256-trace ring; the
	// benchmark reads no overhead from it (docs/ARCHITECTURE.md).
	tracer := obs.New(obs.Config{SlowMS: *slowMS, Logger: logger})
	srv := server.New(server.Config{
		Workers: *workers, MaxT: *maxT, Logger: logger, Tracer: tracer,
		DataDir: *dataDir, MaxResident: *maxResident,
		QuotaRate: *quotaRate, RequestTimeout: *reqTimeout,
	})

	for name, path := range modelFlags {
		m, err := loadCheckpoint(path)
		if err != nil {
			fatal("load model", "model", name, "err", err)
		}
		if err := srv.Register(name, m, nil); err != nil {
			fatal("register model", "model", name, "err", err)
		}
		logger.Info("model loaded", "model", name, "params", m.NumParams(), "checkpoint", path)
	}

	for _, name := range datasetNames {
		g, _, err := datasets.Replica(name, *scale, *seed)
		if err != nil {
			fatal("dataset", "dataset", name, "err", err)
		}
		cfg := core.DefaultConfig(g.N, g.F)
		cfg.Epochs = *epochs
		cfg.Seed = *seed
		m := core.New(cfg)
		logger.Info("training", "model", name, "n", g.N, "f", g.F, "t", g.T(), "params", m.NumParams())
		progress := func(s core.TrainStats) {
			if !*quiet {
				logger.Info("epoch", "model", name, "epoch", s.Epoch, "loss", s.Loss)
			}
		}
		if _, err := m.Fit(g, core.WithProgress(progress)); err != nil {
			fatal("train", "model", name, "err", err)
		}
		if err := srv.Register(name, m, nil); err != nil {
			fatal("register model", "model", name, "err", err)
		}
	}

	if *dataDir != "" {
		// Recovery runs after every Register so persisted sessions can
		// find their model; WAL tails past the last snapshot replay here.
		n, err := srv.RecoverSessions()
		if err != nil {
			fatal("recover sessions", "data_dir", *dataDir, "err", err)
		}
		logger.Info("sessions recovered", "data_dir", *dataDir, "sessions", n)
	}

	if *pprofOn != "" {
		// The profiling endpoints live on their own listener (typically
		// loopback-only) and their own mux — never on DefaultServeMux,
		// where any library's stray http.Handle would silently ride along
		// on the profiling port:
		//
		//	go tool pprof http://localhost:6060/debug/pprof/profile
		//	go tool pprof http://localhost:6060/debug/pprof/heap
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, pmux); err != nil {
				logger.Error("pprof", "err", err)
			}
		}()
	}

	// In cluster mode the node wraps the server: session traffic routes to
	// its primary across the peer set, everything else stays local.
	var handler http.Handler = srv
	var node *cluster.Node
	if *peers != "" {
		if *advertise == "" {
			fatal("-peers requires -advertise (this node's URL within the peer list)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		var err error
		node, err = cluster.NewNode(srv, cluster.Config{
			Self:     strings.TrimRight(*advertise, "/"),
			Peers:    peerList,
			Replicas: *replicas,
			Logger:   logger,
		})
		if err != nil {
			fatal("cluster", "err", err)
		}
		handler = node
		logger.Info("cluster mode", "peers", len(peerList), "replicas", *replicas)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Explicit connection timeouts: a client trickling header bytes
		// (slowloris) or parking idle keep-alives cannot hold sockets
		// open indefinitely. Request bodies and streaming responses stay
		// unbounded here; -request-timeout governs handler work.
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		fatal("listen", "err", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down: draining in-flight responses", "deadline", *drain)
	// Cluster drain first: peers route our sessions to their replicas and
	// lagging sessions are installed on them, so followers hold the full
	// acknowledged prefix before we stop serving. Then BeginDrain:
	// streaming handlers see it at their next snapshot, emit a truncation
	// trailer, and end their responses, which lets Shutdown's
	// connection-drain finish well inside the deadline instead of cutting
	// long-lived streams off mid-line.
	if node != nil {
		node.Drain(*drain / 2)
	}
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if node != nil {
		node.Close()
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
	}
}

func parsePair(v string, dst map[string]string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := dst[name]; dup {
		return fmt.Errorf("duplicate name %q", name)
	}
	dst[name] = path
	return nil
}

func loadCheckpoint(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}
