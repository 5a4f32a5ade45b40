package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"snnfi/internal/fabric"
	"snnfi/internal/runner"
)

// TestNewHTTPServerBoundsConnections: the store's server sets every
// connection time limit, so a stalled or idle client cannot hold a
// connection forever, and still serves the store handler.
func TestNewHTTPServerBoundsConnections(t *testing.T) {
	store, err := fabric.NewServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(store.Handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header %v, read %v, idle %v; want %v, %v, %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || readHeaderTimeout > readTimeout || idleTimeout <= 0 {
		t.Fatalf("limits must be positive with the header limit inside the request limit: header %v, read %v, idle %v",
			readHeaderTimeout, readTimeout, idleTimeout)
	}

	ts := httptest.NewUnstartedServer(nil)
	ts.Config = srv
	ts.Start()
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), runner.StoreProtocol) {
		t.Fatalf("GET /healthz: %d %q", resp.StatusCode, body)
	}
}
