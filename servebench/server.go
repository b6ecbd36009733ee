package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture the benchmark runs on.
const clockTicks = 100

// server is one xpeserve process on a loopback port.
type server struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	stateDir string
	exited   chan struct{}
	waitErr  error
}

// startServer execs the xpeserve binary with the workload's flags on a
// free loopback port and waits until it answers /v1/healthz. logPath
// receives the server's stderr (its access log).
func startServer(bin string, w *workload, workDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-workers", strconv.Itoa(w.workers)}
	if w.stateDir {
		if s.stateDir, err = os.MkdirTemp(workDir, "state-"); err != nil {
			return nil, err
		}
		args = append(args, "-state-dir", s.stateDir)
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(s.stateDir)
		return nil, fmt.Errorf("start xpeserve: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls the health endpoint until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("xpeserve exited before it was ready: %v", s.waitErr)
		default:
		}
		resp, err := c.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("xpeserve did not become ready")
}

// stop terminates the server, waits for it to exit, and removes its state
// directory.
func (s *server) stop() {
	if s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	if s.stateDir != "" {
		os.RemoveAll(s.stateDir)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuTime returns a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself hold spaces and parentheses, so fields are counted from the last
// closing parenthesis.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		n, err := strconv.ParseUint(string(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns a process's peak resident set size in bytes, from the
// VmHWM line of /proc/<pid>/status.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(b []byte) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
