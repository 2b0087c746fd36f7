// Command spawner runs programs for the benchmark and reports how each
// ran. It reads one JSON argument vector per line on standard input and
// answers each with one JSON object on standard output: the program's
// output, start and end, CPU time, peak RSS, and any error.
//
// Linux credits a new program with the peak RSS of the process that
// started it. This process stays near 2 MiB, so the peak RSS it reports
// is the program's own, not that of the benchmark, which holds its
// inputs and reference results in memory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

type result struct {
	Stdout     []byte
	Start, End time.Time
	CPU        time.Duration
	RSSKB      int64
	Err        string
}

func main() {
	dec, enc := json.NewDecoder(os.Stdin), json.NewEncoder(os.Stdout)
	var stdout, stderr bytes.Buffer
	for {
		var argv []string
		if err := dec.Decode(&argv); err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			fmt.Fprintln(os.Stderr, "spawner:", err)
			os.Exit(1)
		}
		stdout.Reset()
		stderr.Reset()
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		// A program whose spawner dies is killed, so none outlives the
		// benchmark.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		r := result{Start: time.Now()}
		err := cmd.Run()
		r.End = time.Now()
		if err != nil {
			r.Err = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		} else {
			r.Stdout = stdout.Bytes()
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				r.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
				r.RSSKB = ru.Maxrss
			}
		}
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "spawner:", err)
			os.Exit(1)
		}
	}
}
