package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The harness owns everything that outlives one function call: child
// processes, the scratch directory, the watchdog. Children are this binary
// re-executed with -role; each binds 127.0.0.1:0, prints "ready <addr>" and
// then answers one-line commands on stdin with one JSON line on stdout. A
// child exits when told to, when its stdin closes, or (Pdeathsig) when the
// parent's thread dies, so no exit path of the parent leaves one behind.

const (
	childReadyTimeout = 20 * time.Second
	childCallTimeout  = 10 * time.Second
	childQuitTimeout  = 5 * time.Second
)

type harness struct {
	mu       sync.Mutex
	children []*child
	scratch  string
	cleaned  bool
	allowed  *cpuSet // the CPUs this process started on (affinity.go)
}

type child struct {
	name  string
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines chan string // stdout, one line at a time; closed at EOF
	addr  string
	done  chan struct{} // closed once Wait returned
}

var theHarness = &harness{}

// scratchDir creates (once) the run's scratch directory. It lives under the
// working directory — the checkout — so nothing is written outside it.
func (h *harness) scratchDir() (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.scratch != "" {
		return h.scratch, nil
	}
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	h.scratch = dir
	return dir, nil
}

// spawn starts a child role and waits for its "ready <addr>" line. Call it
// from the main goroutine only: main is locked to the process's first
// thread, which is the thread Pdeathsig watches.
func (h *harness) spawn(name string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: cmd, in: in, lines: make(chan string, 4), done: make(chan struct{})}
	h.mu.Lock()
	h.children = append(h.children, c)
	h.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
		_ = cmd.Wait()
		close(c.done)
	}()
	line, err := c.readLine(childReadyTimeout)
	if err != nil {
		return nil, fmt.Errorf("%s: waiting for ready line: %w", name, err)
	}
	addr, ok := strings.CutPrefix(line, "ready ")
	if !ok {
		return nil, fmt.Errorf("%s: expected ready line, got %q", name, line)
	}
	c.addr = addr
	return c, nil
}

func (c *child) readLine(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", errors.New("child exited")
		}
		return line, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("no reply within %v", timeout)
	}
}

// call sends one command line and decodes the one-line JSON reply into v.
func (c *child) call(command string, v any) error {
	if _, err := io.WriteString(c.in, command+"\n"); err != nil {
		return fmt.Errorf("%s: %s: %w", c.name, command, err)
	}
	line, err := c.readLine(childCallTimeout)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", c.name, command, err)
	}
	if msg, failed := strings.CutPrefix(line, "error "); failed {
		return fmt.Errorf("%s: %s: %s", c.name, command, msg)
	}
	if err := json.Unmarshal([]byte(line), v); err != nil {
		return fmt.Errorf("%s: %s: bad reply %q: %w", c.name, command, line, err)
	}
	return nil
}

// stopAll asks the children to drain and exit, all at once, and kills
// those that have not after childQuitTimeout.
func stopAll(cs []*child) {
	for _, c := range cs {
		_, _ = io.WriteString(c.in, "quit\n")
		_ = c.in.Close()
	}
	deadline := time.After(childQuitTimeout)
	for _, c := range cs {
		select {
		case <-c.done:
		case <-deadline:
			c.kill()
		}
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// stopChildren stops every live child and forgets them.
func (h *harness) stopChildren() {
	h.mu.Lock()
	cs := h.children
	h.children = nil
	h.mu.Unlock()
	stopAll(cs)
}

// cleanup is the last thing every exit path runs: kill whatever still
// lives, remove the scratch directory.
func (h *harness) cleanup() {
	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		return
	}
	h.cleaned = true
	cs := h.children
	h.children = nil
	scratch := h.scratch
	h.mu.Unlock()
	for _, c := range cs {
		select {
		case <-c.done:
		default:
			c.kill()
		}
	}
	if scratch != "" {
		_ = os.RemoveAll(scratch)
	}
}

// exit cleans up and leaves with code.
func exit(code int) {
	theHarness.cleanup()
	os.Exit(code)
}

// fatalf reports which workload and step failed and exits non-zero; no
// result line is printed after a failure.
func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", a...)
	exit(1)
}

// installSignals makes SIGINT and SIGTERM stop the children, remove scratch
// and exit non-zero.
func installSignals() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping children\n", s)
		exit(130)
	}()
}

// watchdog fails the run if one workload is not finished after limit; stop
// the returned timer when it is.
func watchdog(limit time.Duration, what string) *time.Timer {
	return time.AfterFunc(limit, func() {
		fatalf("%s: watchdog: not finished after %v", what, limit)
	})
}
