package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// retired names the figures this command no longer runs; each must be
// rejected like any other unknown value rather than silently select nothing.
var retired = []string{"planner", "exec", "twig", "bitmap", "limit", "snapshot", "par", "batch"}

func TestParseFigs(t *testing.T) {
	want, err := parseFigs("7, ablations,all")
	if err != nil || len(want) != 3 || !want["7"] || !want["ablations"] || !want["all"] {
		t.Errorf("parseFigs = %v, %v", want, err)
	}
	for _, bad := range append([]string{"nope", "7,,8", ""}, retired...) {
		_, err := parseFigs(bad)
		if err == nil {
			t.Errorf("parseFigs(%q) accepted an unknown figure", bad)
			continue
		}
		for _, name := range figures {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parseFigs(%q) error does not list %q: %v", bad, name, err)
			}
		}
	}
}

// TestUnknownFigExitsTwo runs the built command: an unknown -fig value or a
// non-positive -scale must fail with status 2 before any experiment output,
// naming what is wrong.
func TestUnknownFigExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lpathbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	type row struct {
		args   []string
		stderr string // a fragment the rejection must print
	}
	rows := []row{
		{[]string{"-fig", "nope"}, "ablations"},
		{[]string{"-fig", "6a,nope"}, "ablations"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-fig", "6a", "-scale", "0"}, "-scale"},
	}
	for _, name := range retired {
		rows = append(rows, row{[]string{"-fig", name}, "ablations"})
	}
	for _, r := range rows {
		cmd := exec.Command(bin, r.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2", r.args, err)
			continue
		}
		if len(stdout) != 0 {
			t.Errorf("%v: printed %q before rejecting the flags", r.args, stdout)
		}
		if !strings.Contains(stderr.String(), r.stderr) {
			t.Errorf("%v: stderr does not mention %q: %s", r.args, r.stderr, stderr.String())
		}
	}
}
