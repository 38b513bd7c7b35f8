// Command smoothd serves the Section 3.3 smooth-solution search as a
// long-running HTTP daemon. Specs are uploaded once (POST /v1/specs),
// compiled and cached by content hash; solve requests (POST /v1/solve)
// are scheduled on a bounded worker pool with per-job deadlines and a
// result cache, so repeat queries are answered without re-searching.
//
// Usage:
//
//	smoothd [-addr HOST:PORT] [-workers N] [-queue N] [flags]
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, then
// in-flight searches drain (up to -drain-timeout) before the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smoothproc/internal/service"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop, nil))
}

// run is the testable daemon body. It serves until stop closes (or the
// listener fails), then drains. If ready is non-nil, the bound address
// is sent on it once the server is accepting connections.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}, ready chan<- string) int {
	fs := flag.NewFlagSet("smoothd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "solve worker-pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "bound on queued jobs before shedding load (0 = default 64)")
	specCache := fs.Int("spec-cache", 0, "compiled-spec LRU capacity (0 = default 128)")
	resultCache := fs.Int("result-cache", 0, "result LRU capacity (0 = default 1024)")
	sessionCache := fs.Int("session-cache", 0, "live solve-session LRU capacity (0 = default 64)")
	maxDepth := fs.Int("max-depth", 0, "cap on requested probe depth (0 = default 12)")
	maxNodes := fs.Int("max-nodes", 0, "cap on per-search node budget (0 = default 500000)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-job deadline when the request sets none (0 = default 30s)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on requested per-job deadlines (0 = default 2m)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight searches before cancelling them")
	dataDir := fs.String("data-dir", "", "durable store root: specs, results and session checkpoints survive restarts (empty = in-memory)")
	tenantQueued := fs.Int("tenant-max-queued", 0, "per-tenant bound on queued jobs, 429 beyond it (0 = the -queue bound, negative = unlimited)")
	tenantRunning := fs.Int("tenant-max-running", 0, "per-tenant bound on running jobs (0 = the -workers bound, negative = unlimited)")
	tenantBudget := fs.Uint64("tenant-node-budget", 0, "per-tenant cap on summed in-flight node estimates, 429 beyond it (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: smoothd [flags]")
		return 2
	}

	svc, err := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		SpecCacheSize:    *specCache,
		ResultCacheSize:  *resultCache,
		SessionCacheSize: *sessionCache,
		MaxDepth:         *maxDepth,
		MaxNodes:         *maxNodes,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		DataDir:          *dataDir,
		TenantMaxQueued:  *tenantQueued,
		TenantMaxRunning: *tenantRunning,
		TenantNodeBudget: *tenantBudget,
	})
	if err != nil {
		fmt.Fprintf(stderr, "smoothd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "smoothd: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	fmt.Fprintf(stdout, "smoothd listening on http://%s\n", bound)
	if ready != nil {
		ready <- bound
	}

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-stop:
	case err := <-serveErr:
		fmt.Fprintf(stderr, "smoothd: serve: %v\n", err)
		return 1
	}

	fmt.Fprintln(stdout, "smoothd: shutting down, draining in-flight searches")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "smoothd: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "smoothd: drain forced after %v: %v\n", *drainTimeout, err)
		return 1
	}
	fmt.Fprintln(stdout, "smoothd: drained cleanly")
	return 0
}
