package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prorp/internal/repl"
	"prorp/internal/server"
)

// TestShutdownLetsGoOfParkedStreamPoll: the stream endpoint holds a
// caught-up follower's poll open for up to a second, and http.Server's
// Shutdown waits for every request in flight. The listener ties request
// contexts to the shutdown signal, so the park ends when shutdown starts:
// the follower is answered 503 (released), not 204 (the park ran out), and
// Shutdown returns.
func TestShutdownLetsGoOfParkedStreamPoll(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.New(server.Config{
		SnapshotPath:  filepath.Join(dir, "fleet.snap"),
		SnapshotEvery: time.Hour,
		WALDir:        filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpSrv := newHTTPServer(ctx, "", srv)
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// An empty journal answers the from-the-beginning poll at once, naming
	// the cursor a caught-up follower sits at.
	resp := get("/v1/repl/stream?after=0")
	end := resp.Header.Get(repl.HeaderNextCursor)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || end == "" {
		t.Fatalf("first poll = %d, next cursor %q", resp.StatusCode, end)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/repl/stream?after=" + end)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp := get("/metrics")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "\nprorp_repl_stream_parked 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the poll never parked")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // what main does on SIGTERM, before Shutdown
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-status; got != http.StatusServiceUnavailable {
		t.Fatalf("parked poll answered %d across shutdown, want 503 (204 means Shutdown waited out the park)", got)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}
