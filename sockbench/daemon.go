package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// mapcompdBin is where run.sh builds cmd/mapcompd from this checkout.
const mapcompdBin = ".bench_build/bin/mapcompd"

// daemon is one mapcompd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on

	listening chan string   // receives the listen address once
	warmed    chan struct{} // closed when -warm finishes
	logDone   chan struct{} // closed when stderr reaches EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon execs mapcompd with args and waits until it listens.
func startDaemon(ctx context.Context, args ...string) (*daemon, error) {
	bin, err := filepath.Abs(mapcompdBin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("%s missing (run the benchmark through sockbench/run.sh): %w", mapcompdBin, err)
	}
	d := &daemon{
		cmd:       exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		listening: make(chan string, 1),
		warmed:    make(chan struct{}),
		logDone:   make(chan struct{}),
	}
	setParentDeathSignal(d.cmd)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mapcompd: %w", err)
	}
	go d.scan(stderr)
	select {
	case d.addr = <-d.listening:
		return d, nil
	case <-d.logDone:
		err = fmt.Errorf("mapcompd exited before listening")
	case <-ctx.Done():
		err = ctx.Err()
	}
	return nil, d.fail(err)
}

// scan follows the daemon's log for the events set-up waits on.
func (d *daemon) scan(r io.Reader) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	warmed := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if d.tail = append(d.tail, line); len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		switch {
		case strings.Contains(line, "msg=listening "):
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					d.listening <- a
				}
			}
		case !warmed && strings.Contains(line, `msg="warm-up complete"`):
			warmed = true
			close(d.warmed)
		}
	}
}

// waitWarm blocks until -warm has finished.
func (d *daemon) waitWarm(ctx context.Context) error {
	select {
	case <-d.warmed:
		return nil
	case <-d.logDone:
		return d.fail(fmt.Errorf("mapcompd exited during warm-up"))
	case <-ctx.Done():
		return d.fail(ctx.Err())
	}
}

// fail stops the daemon and decorates err with its last log lines.
func (d *daemon) fail(err error) error {
	d.kill()
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Errorf("%w\nmapcompd log tail:\n  %s", err, strings.Join(d.tail, "\n  "))
}

// stop shuts the daemon down gracefully (SIGTERM: final snapshot), as a
// deployment restart would, killing it if that takes over 10 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(10 * time.Second):
	}
	d.kill()
	return nil
}

// kill ends the process and waits for it; safe to call repeatedly.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only when it has already exited
	<-d.logDone              // Wait must follow the last read of the pipe
	_ = d.cmd.Wait()         // the exit status of a killed daemon carries nothing
}
