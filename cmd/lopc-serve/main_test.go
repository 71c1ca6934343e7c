package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakguard"
)

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb, nil); code != 0 {
		t.Fatalf("run(-version) = %d, stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "lopc-serve") {
		t.Errorf("version output %q does not name the binary", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb, nil); code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}

// TestServeLifecycle drives the real daemon in-process: start on an
// ephemeral port, answer one solve, then deliver a real SIGTERM and
// require a clean (exit 0) drain that leaves no goroutine behind.
func TestServeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("sends SIGTERM to the test process; skipped in -short")
	}
	// The signal package starts its watcher goroutine on first use and
	// keeps it for the life of the process: start it before the
	// baseline.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR1)
	signal.Stop(warm)
	base := runtime.NumGoroutine()
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var errb bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"},
			io.Discard, &errb, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("server exited early with %d: %s", code, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	resp, err := http.Post("http://"+addr+"/v1/alltoall", "application/json",
		strings.NewReader(`{"p":32,"w":1000,"st":40,"so":200,"c2":0}`))
	if err != nil {
		t.Fatalf("solve request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Errorf("close body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"r":`)) {
		t.Errorf("solve response missing cycle time: %s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drain exit = %d, want 0; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if !strings.Contains(errb.String(), "clean shutdown") {
		t.Errorf("stderr missing clean-shutdown line: %s", errb.String())
	}
	http.DefaultClient.CloseIdleConnections()
	leakguard.Settle(t, base, "a clean shutdown")
}

// TestServeObservabilityLifecycle drives the daemon with every
// observability flag on: pprof mounted, Prometheus negotiation on
// /metrics (with runtime gauges), and -convtrace/-reqtrace files
// written on clean shutdown.
func TestServeObservabilityLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("sends SIGTERM to the test process; skipped in -short")
	}
	dir := t.TempDir()
	convPath := filepath.Join(dir, "conv.json")
	reqPath := filepath.Join(dir, "req.json")

	ready := make(chan string, 1)
	done := make(chan int, 1)
	var errb bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2",
			"-pprof", "-convtrace", convPath, "-reqtrace", reqPath},
			io.Discard, &errb, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("server exited early with %d: %s", code, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}
	base := "http://" + addr

	fetch := func(path, accept string) (int, string, string) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	// One solve so the trace files have content.
	resp, err := http.Post(base+"/v1/alltoall", "application/json",
		strings.NewReader(`{"p":32,"w":1000,"st":40,"so":200,"c2":0}`))
	if err != nil {
		t.Fatalf("solve request: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}

	if code, _, body := fetch("/debug/pprof/", ""); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d, body %.120s", code, body)
	}
	if code, ct, body := fetch("/metrics", ""); code != http.StatusOK || ct != "application/json" || !strings.Contains(body, `"hits"`) {
		t.Errorf("JSON metrics: status %d, Content-Type %q", code, ct)
	}
	if _, ct, body := fetch("/metrics", "text/plain"); !strings.HasPrefix(ct, "text/plain") ||
		!strings.Contains(body, "lopc_serve_requests_total") || !strings.Contains(body, "lopc_goroutines") {
		t.Errorf("Prometheus metrics: Content-Type %q, body %.200s", ct, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drain exit = %d, want 0; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}

	conv, err := os.ReadFile(convPath)
	if err != nil {
		t.Fatalf("convtrace not written: %v", err)
	}
	if !bytes.Contains(conv, []byte(`"solver":"alltoall"`)) {
		t.Errorf("convtrace missing the solve: %s", conv)
	}
	reqs, err := os.ReadFile(reqPath)
	if err != nil {
		t.Fatalf("reqtrace not written: %v", err)
	}
	if !bytes.Contains(reqs, []byte(`"/v1/alltoall"`)) {
		t.Errorf("reqtrace missing the request span: %s", reqs)
	}
}
