package main

// A currencyd child process and the single-connection client that drives
// it, plus the /proc readings taken from it.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"currency/internal/client"
)

// daemon is one running currencyd process.
type daemon struct {
	cmd    *exec.Cmd
	hc     *http.Client
	client *client.Client
	logged chan struct{} // closed once stderr is drained (the process exited)

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon launches currencyd on a free loopback port with its default
// flags and returns once it accepts connections. Readiness is the
// "listening on" log line, not a polling loop; the line precedes the bind
// by microseconds, so the connection check after it rarely retries.
func startDaemon(bin string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start currencyd: %w", err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	ready := make(chan struct{})
	go d.readLog(stderr, ready)

	select {
	case <-ready:
	case <-d.logged:
		d.stop()
		return nil, fmt.Errorf("currencyd exited before listening: %s", d.lastLines())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("currencyd did not start listening within 30s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("currencyd not accepting on %s: %w", addr, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// One keep-alive connection: the load is a closed loop of one caller.
	d.hc = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     5 * time.Minute,
	}}
	d.client = client.New("http://"+addr, d.hc)
	return d, nil
}

func (d *daemon) readLog(r io.Reader, ready chan struct{}) {
	defer close(d.logged)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	signaled := false
	for sc.Scan() {
		line := sc.Text()
		if !signaled && strings.Contains(line, "listening on") {
			close(ready)
			signaled = true
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
	// An over-long line stops the scanner; keep draining so the server
	// never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop terminates the process and waits for it: SIGTERM (currencyd drains
// and exits), SIGKILL if it has not exited after 20s.
func (d *daemon) stop() {
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logged:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logged
	}
	_ = d.cmd.Wait()
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// cpuTime reads the process's CPU time (user plus system): the sum of its
// threads' nanosecond run times from /proc/<pid>/task/*/schedstat. The
// clock-tick counters of /proc/<pid>/stat are too coarse for a chunk of
// the timed phase. Go server threads live as long as the process, so no
// run time leaves with an exited thread.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// peakRSS reads the process's peak resident set size (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
