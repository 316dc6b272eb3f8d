package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mcoptd process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	data   string
	stderr chan struct{} // closed when the stderr reader has drained
	client *http.Client
}

// startServer launches mcoptd over dataDir and returns once /readyz
// answers 200. Load comes from one process with at most nproc connections.
func startServer(bin, dataDir string, extra ...string) (*server, error) {
	if bin == "" {
		return nil, errors.New("service workloads need -mcoptd")
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	// mcoptd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, data: dataDir, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
				sent = true
			}
			if strings.Contains(line, "error") || strings.Contains(line, "panic") {
				fmt.Fprintln(os.Stderr, "mcoptd:", line)
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, errors.New("mcoptd exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("mcoptd did not report a listen address")
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(),
		MaxConnsPerHost:     runtime.NumCPU(),
	}}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mcoptd never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains mcoptd with SIGTERM (SIGKILL after 30 s) and waits for it
// and its stderr reader to finish.
func (s *server) stop() error {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
	}
	<-s.stderr
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 0 {
		err = nil
	}
	return err
}

// peakRSSMB reads mcoptd's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() float64 { return s.statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/PID/status in MB.
func (s *server) statusMB(field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS samples mcoptd's resident set (VmRSS) every 20 ms until the
// returned stop function is called; stop waits for the sampler to exit and
// returns the median sample in MB.
func (s *server) sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		var samples sample
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			samples = append(samples, s.statusMB("VmRSS:"))
			select {
			case <-done:
				result <- samples.median()
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// cpu returns mcoptd's user plus system CPU time in seconds, from
// /proc/PID/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func (s *server) cpu() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// get fetches a URL path and returns the body, failing on a non-200.
func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrapeCounter sums the samples of one metric family in /metrics whose
// label set contains every given label (e.g. `decision="accepted"`).
func scrapeCounter(exposition []byte, name string, labels ...string) float64 {
	total := 0.0
	for _, line := range strings.Split(string(exposition), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(rest, l)
		}
		if !match {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			v, err := strconv.ParseFloat(rest[i+1:], 64)
			if err == nil {
				total += v
			}
		}
	}
	return total
}
