package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// healthTimeout bounds a start or restart: recovery over the WAL,
	// then the first 200 from /api/v1/health.
	healthTimeout = 15 * time.Second
	// stopGrace is how long a SIGTERMed bmsd may drain before SIGKILL.
	stopGrace = 10 * time.Second
)

// proc is one bmsd subprocess: its name, the loopback address it listens
// on and the arguments every incarnation starts with. It is started,
// SIGKILLed and started again, and stopped at the end of the run.
type proc struct {
	bin, name, addr string
	args            []string
	logs            io.Writer // every incarnation's stdout and stderr are copied here

	cur   atomic.Pointer[incarnation] // the running (or last) one
	kills atomic.Int64                // SIGKILLs taken
}

// incarnation is one start of a proc. done closes once the process has
// exited and its output is copied out; cmd.ProcessState and log are read
// only after that.
type incarnation struct {
	cmd  *exec.Cmd
	log  bytes.Buffer // its stderr
	done chan struct{}
}

// newProc reserves a loopback port for a bmsd that runs bin. The
// close-to-bind race is acceptable for a test harness.
func newProc(bin, name string, logs io.Writer) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	return &proc{bin: bin, name: name, addr: addr, args: []string{"-addr", addr}, logs: logs}, l.Close()
}

func (p *proc) url() string { return "http://" + p.addr }

// start runs a new incarnation with the proc's arguments and extra.
func (p *proc) start(extra ...string) error {
	inc := &incarnation{cmd: exec.Command(p.bin, slices.Concat(p.args, extra)...), done: make(chan struct{})}
	inc.cmd.Stdout = p.logs
	inc.cmd.Stderr = io.MultiWriter(p.logs, &inc.log)
	if err := inc.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		_ = inc.cmd.Wait() // the exit status is read from ProcessState
		close(inc.done)
	}()
	p.cur.Store(inc)
	return nil
}

// kill SIGKILLs the running incarnation — no drain, no final snapshot —
// and waits until it is gone.
func (p *proc) kill() error {
	inc := p.cur.Load()
	if err := inc.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill %s: %w", p.name, err)
	}
	<-inc.done
	p.kills.Add(1)
	return nil
}

// stop ends the running incarnation, if any, the way an operator would:
// SIGTERM, so a bmsd drains and compacts its WAL, then SIGKILL if it
// outlives stopGrace. Stopping a stopped proc does nothing.
func (p *proc) stop() {
	inc := p.cur.Load()
	if inc == nil {
		return
	}
	_ = inc.cmd.Process.Signal(syscall.SIGTERM) // fails only once it has exited
	select {
	case <-inc.done:
	case <-time.After(stopGrace):
		_ = p.kill()
		<-inc.done
	}
}

// waitHealthy polls the running incarnation's /api/v1/health until it
// answers 200. One that exits first fails the wait at once, with its exit
// status: nothing will ever answer on its port.
func (p *proc) waitHealthy() error {
	inc := p.cur.Load()
	client := &http.Client{Timeout: time.Second}
	deadline := time.After(healthTimeout)
	for {
		resp, err := client.Get(p.url() + "/api/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("health status %d", resp.StatusCode)
		}
		select {
		case <-inc.done:
			return fmt.Errorf("%s exited before it became healthy (%v)", p.name, inc.cmd.ProcessState)
		case <-deadline:
			return fmt.Errorf("%s never became healthy: %w", p.name, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
