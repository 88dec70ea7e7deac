package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestUnknownExperimentIsRefused: a name -only does not know exits 2,
// naming it and listing the known ones, and runs nothing.
func TestUnknownExperimentIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-only", "fig9,fig09"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	for _, want := range []string{`"fig09"`, "fig4,fig5", "pathloss"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("the refusal does not name %s: %s", want, stderr.String())
		}
	}
	if stdout.Len() > 0 {
		t.Errorf("a refused command line printed %q", stdout.String())
	}
}

// TestOnlyPrintsTheSelection: -only prints exactly the named sections, in
// the evaluation's order.
func TestOnlyPrintsTheSelection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-only", "fig9,sec5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	var sections []string
	for _, m := range regexp.MustCompile(`(?m)^==== (\S+) ====$`).FindAllStringSubmatch(stdout.String(), -1) {
		sections = append(sections, m[1])
	}
	if want := []string{"fig9", "sec5"}; !slices.Equal(sections, want) {
		t.Errorf("sections %v, want %v", sections, want)
	}
}
