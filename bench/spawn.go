package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Linux credits a new program with the peak RSS of the process that
// started it, so a cachesim started by the benchmark, which holds inputs
// and reference results in memory, would report the benchmark's peak
// instead of its own. A spawner (spawner/main.go), a process of about
// 2 MiB, starts the programs instead and reports how each ran.

// procRun is one finished process, as the spawner reports it.
type procRun struct {
	Stdout     []byte
	Start, End time.Time
	CPU        time.Duration
	RSSKB      int64
	Err        string
}

type spawner struct {
	mu  sync.Mutex
	cmd *exec.Cmd
	in  io.WriteCloser
	out *json.Decoder
}

// startSpawner starts the spawner built into bin on the programs' CPUs,
// which the programs it starts inherit.
func startSpawner(bin string) (*spawner, error) {
	cmd := exec.Command(filepath.Join(bin, "spawner"))
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startProgram(cmd); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, in: in, out: json.NewDecoder(out)}, nil
}

// run runs bin to completion, timed from exec to exit.
func (s *spawner) run(bin string, args ...string) (procRun, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r procRun
	req, err := json.Marshal(append([]string{bin}, args...))
	if err != nil {
		return r, err
	}
	if _, err := s.in.Write(append(req, '\n')); err != nil {
		return r, fmt.Errorf("spawner: %w", err)
	}
	if err := s.out.Decode(&r); err != nil {
		return r, fmt.Errorf("spawner: %w", err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("%s %s: %s", filepath.Base(bin), strings.Join(args, " "), r.Err)
	}
	return r, nil
}

// close ends the spawner once its current program has exited.
func (s *spawner) close() {
	s.in.Close()
	_ = s.cmd.Wait()
}
