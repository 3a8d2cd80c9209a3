// Command waved serves the wave-switching simulator over HTTP: clients
// POST job specs (open-loop load runs or closed-loop request-reply runs),
// stream NDJSON progress, and fetch deterministic results. See the "Serving" section of README.md for the
// API and internal/server for the semantics.
//
// Examples:
//
//	waved -addr :8080 -workers 4
//	curl -d '{"kind":"load","load":{"pattern":"uniform","load":0.1,"fixedlength":64}}' \
//	    localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j00000001/stream
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("waved", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		queueCap = fs.Int("queue", 16, "max jobs waiting to run (beyond it: 429 + Retry-After)")
		workers  = fs.Int("workers", 0, "jobs running concurrently (0 = GOMAXPROCS)")
		storeCap = fs.Int("store", 256, "job records retained (terminal jobs evicted LRU)")
		interval = fs.Int64("interval", 1000, "default progress-snapshot period in cycles")
		timeout  = fs.Duration("job-timeout", 10*time.Minute, "default per-job deadline")
		drain    = fs.Duration("drain", 30*time.Second, "shutdown budget for running jobs before they are cancelled")
		cacheCap = fs.Int("cache", 256, "content-addressed result cache entries held in memory")
		cacheDir = fs.String("cache-dir", "", "directory for the result cache's disk tier (empty = memory only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		QueueCap: *queueCap, Workers: *workers, StoreCap: *storeCap,
		DefaultInterval: *interval, DefaultTimeout: *timeout,
		CacheCap: *cacheCap, CacheDir: *cacheDir,
	}
	d, err := newDaemon(cfg, *addr, out)
	if err != nil {
		return err
	}
	return d.serve(ctx, *drain)
}

// daemon ties the serving core to a listener; split from run so tests can
// bind port 0 and learn the address before serving.
type daemon struct {
	core *server.Server
	http *http.Server
	ln   net.Listener
	out  io.Writer
}

func newDaemon(cfg server.Config, addr string, out io.Writer) (*daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	core := server.New(cfg)
	fmt.Fprintf(out, "waved: listening on %s\n", ln.Addr())
	return &daemon{core: core, http: &http.Server{Handler: core.Handler()}, ln: ln, out: out}, nil
}

// addr returns the bound listen address.
func (d *daemon) addr() string { return d.ln.Addr().String() }

// serve runs until ctx is cancelled, then drains: running jobs get the
// drain budget to finish (then are cancelled cleanly), queued jobs are
// cancelled immediately, and the HTTP server closes once the last stream
// has delivered its final line.
func (d *daemon) serve(ctx context.Context, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- d.http.Serve(d.ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(d.out, "waved: shutting down (drain budget %s)\n", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := d.core.Shutdown(dctx); err != nil {
		fmt.Fprintln(d.out, "waved: drain budget exceeded; running jobs cancelled")
	}
	// All jobs are terminal now, so every stream ends by itself; the grace
	// period only covers flushing those final lines.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := d.http.Shutdown(hctx); err != nil {
		_ = d.http.Close()
	}
	fmt.Fprintln(d.out, "waved: stopped")
	return nil
}
