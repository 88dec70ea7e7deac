package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/scenario"
)

// TestFlagsAreToldNotIgnored: a flag set for an object the run does not
// build exits 2 naming that flag and the one that decides, as does a value
// the run cannot use; every loadgen command line in the Makefile is
// accepted.
func TestFlagsAreToldNotIgnored(t *testing.T) {
	for _, tc := range []struct {
		args  string
		names []string
	}{
		// -wire needs an HTTP device sink.
		{"-wire binary", []string{"-wire", "-target", "-kill-gateway"}},
		{"-bmsd bin/bmsd -wire binary", []string{"-wire", "-target", "-kill-gateway"}},
		{"-bmsd bin/bmsd -kill 40 -wire binary", []string{"-wire", "-target", "-kill-gateway"}},
		// The subprocess shards and their drills need -bmsd.
		{"-fsync off", []string{"-fsync", "-bmsd"}},
		{"-data-root d", []string{"-data-root", "-bmsd"}},
		{"-kill 40", []string{"-kill", "-bmsd"}},
		{"-kill-gateway 40", []string{"-kill-gateway", "-bmsd"}},
		{"-bmsd bin/bmsd -restart-gateway", []string{"-restart-gateway", "-kill"}},
		{"-bmsd bin/bmsd -kill-gateway 40 -restart-gateway", []string{"-restart-gateway", "-kill"}},
		{"-bmsd bin/bmsd -kill 40 -kill-gateway 80", []string{"-kill-gateway", "-kill"}},
		{"-bmsd bin/bmsd -flaky 0.2", []string{"-flaky", "-bmsd"}},
		// -target drives a fleet loadgen did not build.
		{"-target http://t -shards 3", []string{"-shards", "-target"}},
		{"-target http://t -bmsd bin/bmsd", []string{"-bmsd", "-target"}},
		{"-target http://t -flaky 0.2", []string{"-flaky", "-target"}},
		// A scenario builds its own crowd and fleet.
		{"-scenario storm -target http://nowhere -plan campus -wire binary -rate 5", []string{"-target", "-scenario"}},
		{"-scenario storm -bmsd bin/bmsd", []string{"-bmsd", "-scenario"}},
		{"-scenario storm -kill 40", []string{"-kill", "-scenario"}},
		{"-scenario storm -kill-gateway 40", []string{"-kill-gateway", "-scenario"}},
		{"-scenario storm -flaky 0.2", []string{"-flaky", "-scenario"}},
		{"-scenario storm -wire binary", []string{"-wire", "-scenario"}},
		{"-scenario storm -rate 5", []string{"-rate", "-scenario"}},
		{"-scenario storm -batch 8", []string{"-batch", "-scenario"}},
		{"-scenario storm -flush 5", []string{"-flush", "-scenario"}},
		{"-source phones -scenario storm", []string{"-source", "-scenario"}},
		{"-scenario storm -plan campus", []string{"-plan", "-scenario"}},
		{"-storm 3 -plan campus", []string{"-plan", "-storm"}},
		{"-scenario skew -storm 3", []string{"-storm", "-scenario"}},
		// Values the run cannot use.
		{"-shards 2 -wire binary -fsync bogus -restart-gateway", []string{"-fsync", "-bmsd"}},
		{"-bmsd bin/bmsd -fsync bogus", []string{"-fsync", "bogus"}},
		{"-target http://t -wire morse", []string{"-wire", "morse"}},
		{"-bmsd bin/bmsd -kill 40,x", []string{"-kill", "40,x"}},
		{"-bmsd bin/bmsd -kill-gateway -1", []string{"-kill-gateway", "negative"}},
		{"-plan atlantis", []string{"-plan", "atlantis"}},
		{"-source bogus", []string{"-source", "bogus"}},
		{"-flaky 1", []string{"-flaky"}},
		{"-devices 0", []string{"-devices"}},
		{"-shards 0", []string{"-shards"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("loadgen %s: exit status %d, want 2", tc.args, code)
		}
		for _, name := range tc.names {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("loadgen %s: the refusal does not name %s: %s", tc.args, name, stderr.String())
			}
		}
		if stdout.Len() > 0 {
			t.Errorf("loadgen %s ran before refusing: %s", tc.args, stdout.String())
		}
	}

	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	for _, line := range strings.Split(strings.ReplaceAll(string(makefile), "\\\n", " "), "\n") {
		_, args, ok := strings.Cut(line, "$(GO) run ./cmd/loadgen ")
		if !ok {
			continue
		}
		runs++
		if _, err := parseFlags(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("the Makefile's loadgen %s is refused: %v", args, err)
		}
	}
	if runs != 9 {
		t.Errorf("found %d loadgen command lines in the Makefile, want 9", runs)
	}
}

// TestEveryInProcessRunVerifies drives each run that needs no bmsd binary
// end to end and holds it to its success line: the in-process fleet, clean
// and flaky, against the ground truth, from either crowd source; a scenario
// against its oracle; and a -target run in -wire binary, whose devices
// pre-split their uploads.
func TestEveryInProcessRunVerifies(t *testing.T) {
	target, err := scenario.Build(building.PaperHouse(), scenario.Spec{Shards: 2, Loopback: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { target.Close() })
	const crowd = " -devices 12 -reports 60 -seed 7"
	for _, tc := range []struct {
		args string
		want *regexp.Regexp
	}{
		{"-shards 2" + crowd, regexp.MustCompile(`(?m)^in-process run verified: fleet state byte-identical to the clean ground truth$`)},
		{"-source phones -shards 3" + crowd, regexp.MustCompile(`(?m)^in-process run verified: fleet state byte-identical to the clean ground truth$`)},
		{"-shards 3 -flaky 0.2" + crowd, regexp.MustCompile(`(?m)^exactly-once verified: [1-9]\d* injected failures, flaky-run state is byte-identical to the clean ground truth$`)},
		{"-scenario storm -shards 2" + crowd, regexp.MustCompile(`(?m)^scenario storm: 12 devices, 720 reports .* — verified exact$`)},
		{"-target " + target.URL + " -wire binary" + crowd, regexp.MustCompile(`(?ms)^  phase "end of run" .*, presplit batches \+[1-9]\d*$.*^remote run verified: `)},
	} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if code := realMain(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Errorf("loadgen %s: exit status %d: %s", tc.args, code, stderr.String())
			continue
		}
		if !tc.want.MatchString(stdout.String()) {
			t.Errorf("loadgen %s: output does not match %s:\n%s", tc.args, tc.want, stdout.String())
		}
		t.Logf("loadgen %s: %v", tc.args, time.Since(start).Round(time.Millisecond))
	}
}

// TestDeadProcIsNotWaitedFor: a process that exits before it is healthy
// fails the health wait at once, naming it and its exit status, instead
// of being polled until the timeout. The test binary, re-run with no
// test to run, is such a process.
func TestDeadProcIsNotWaitedFor(t *testing.T) {
	p, err := newProc(os.Args[0], "quitter", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	p.args = []string{"-test.run=^$"}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- p.waitHealthy() }()
	<-p.cur.Load().done
	exited := time.Now()
	err = <-waited
	if noticed := time.Since(exited); noticed > time.Second {
		t.Errorf("the wait took %v after the exit to notice it", noticed)
	}
	if err == nil || !strings.Contains(err.Error(), "quitter") || !strings.Contains(err.Error(), "exit status 0") {
		t.Errorf("waitHealthy = %v, want the proc's name and its exit status", err)
	}
}
