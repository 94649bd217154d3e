package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"syscall"
	"time"
)

// procRun is one finished child process as seen from outside: its stdout,
// wall time, and the kernel's resource accounting for it.
type procRun struct {
	Stdout []byte
	Wall   time.Duration
	CPU    time.Duration // user + system
	MaxRSS int64         // bytes
}

// runProc runs argv with extra environment entries, waits for it, and
// returns its accounting. A non-zero exit is an error carrying stderr.
func runProc(argv []string, env ...string) (procRun, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("%s: %v\n%s", argv[0], err, errb.Bytes())
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r := procRun{Stdout: out.Bytes(), Wall: wall}
	if ru != nil {
		r.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.MaxRSS = ru.Maxrss * 1024
	}
	return r, nil
}

// resetPeakRSS returns freed heap to the OS and lowers this process's
// peak-RSS mark to its current RSS. os/exec starts a child that shares this
// process's memory until it execs, and Linux carries that memory's peak
// into the child's ru_maxrss; without the reset a child's MaxRSS reads at
// least this process's own peak (the explore oracle's, say).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// selfCPU returns this process's user + system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS returns this process's peak resident set size in bytes.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
