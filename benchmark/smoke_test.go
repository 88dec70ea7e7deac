package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs the command itself — all four workloads, untraced with
// the ladder and then traced — at 1/100 scale with every correctness and
// non-vacuity check on, so `go test ./...` exercises the whole harness
// on every later change.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four topologies over loopback sockets and fsync")
	}
	for _, mode := range [][]string{{"-trace", "0", "-ladder"}, {"-trace", "1"}} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-scale", "0.01", "-seed", "5", "-tmp", t.TempDir()}, mode...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
		}
		want := endToEnd
		if mode[1] == "1" {
			want = perLayer()
		}
		lines := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			lines++
			var got driverLine
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("result line does not parse: %v\n%s", err, line)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", mode, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%v: %d metrics on the result line, want %d", mode, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%v: metric %s missing or in %q, want %q", mode, m.Name, v.Unit, m.Unit)
				}
			}
			if mode[1] == "0" {
				for name, v := range got.Metrics {
					if v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; every one must be positive on every workload", name, v.Value)
					}
				}
			}
		}
		if lines != len(workloads) {
			t.Errorf("%v: %d result lines, want one per workload (%d)", mode, lines, len(workloads))
		}
	}
}
