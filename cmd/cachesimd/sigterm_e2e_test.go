package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMDrainEndToEnd exercises the real signal path: build the
// actual binary, start it as a subprocess, occupy it with work, send it
// SIGTERM, and require a narrated drain and exit status 0. The
// in-process tests cover the drain semantics; this one proves the
// signal wiring (signal.NotifyContext through to os.Exit) is sound.
func TestSIGTERMDrainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "cachesimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cachesimd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "60s")
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs msg=listening addr=<addr> once it accepts traffic.
	var (
		mu     sync.Mutex
		stderr bytes.Buffer
	)
	addrCh := make(chan string, 1)
	// scanned closes once the daemon's stderr reaches EOF. cmd.Wait closes
	// the pipe, so it must not run before then or the last lines are lost.
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			stderr.WriteString(line + "\n")
			mu.Unlock()
			if strings.Contains(line, "msg=listening") {
				if _, rest, ok := strings.Cut(line, "addr="); ok {
					addr, _, _ := strings.Cut(rest, " ")
					select {
					case addrCh <- strings.TrimSpace(addr):
					default:
					}
				}
			}
		}
	}()
	var url string
	select {
	case addr := <-addrCh:
		url = "http://" + addr
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}

	// Occupy the worker so the drain has something in flight.
	resp, err := http.Post(url+"/jobs", "application/json",
		strings.NewReader(`{"benchmark": "liver", "scale": 10, "configs": "sys=improved"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		<-scanned
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	mu.Lock()
	log := stderr.String()
	mu.Unlock()
	if !strings.Contains(log, "draining") || !strings.Contains(log, "drained") {
		t.Fatalf("drain not narrated:\n%s", log)
	}
}
