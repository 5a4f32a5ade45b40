// Command cached serves a campaign content store over HTTP: the
// server side of the fabric that lets any number of snn-attack /
// snn-worker / figures processes — on any number of machines — share
// one content-addressed result namespace (see internal/fabric and
// runner.HTTPCache; wire format runner.StoreProtocol).
//
// The store directory uses the exact -cache-dir layout (network/ and
// circuit/ tier subdirectories, each holding one append-only log of
// cells), so an existing warm cache directory can be served as-is, and
// a store directory can be mounted back as a plain -cache-dir.
//
// Cell routes (snnfi-store-v3), the only way to ask about a cell, by
// its key:
//
//	GET  /cell/{tier}/{key}   one cell, 404 on a miss
//	POST /cell/{tier}         a JSON array of keys in; a JSON array of as
//	                          many cells out, null for a miss — the batch
//	                          lookup a worker pool makes once per batch
//	PUT  /cell/{tier}/{key}   store one cell (one PUT per computed cell)
//
// Usage:
//
//	cached -dir store                          # serve ./store on a random port
//	cached -dir store -addr 0.0.0.0:8475       # fixed address
//	cached -dir store -addr-file store.addr    # write the bound address (CI/scripts)
//
// GET /metrics exports the obs registry (request counters, per-tier
// cache counters, request-duration histograms); GET /healthz reports
// liveness and the store protocol version, which every command given
// -store checks at start.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snnfi/internal/fabric"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cached:", err)
		os.Exit(1)
	}
}

// Connection time limits. Without them a client that stalls while
// sending its headers or body, or parks an idle keep-alive connection,
// holds that connection and its goroutine for as long as the store
// runs. Cells are small JSON documents, so a minute for a whole
// request is generous.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the store handler in a server with the connection
// time limits set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run() error {
	var (
		dir      = flag.String("dir", "store", "store directory (per-tier subdirectories, the -cache-dir layout)")
		addr     = flag.String("addr", "127.0.0.1:0", "listen address (port 0 = pick a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts that cannot race a fixed port)")
		quiet    = flag.Bool("quiet", false, "suppress the startup line")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	srv, err := fabric.NewServer(*dir, reg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		// Atomic write: a script polling for this file must never read
		// a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "cached: serving %s on http://%s (%s)\n", *dir, ln.Addr(), runner.StoreProtocol)
	}

	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		// Workers degrade to recompute-on-miss when the store goes
		// away, so a plain close loses nothing durable — cells already
		// written are safe on disk (appended before each PUT answers).
		return httpSrv.Close()
	}
}
