package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	want, err := parseFigs("7, par,all")
	if err != nil || len(want) != 3 || !want["7"] || !want["par"] || !want["all"] {
		t.Errorf("parseFigs = %v, %v", want, err)
	}
	for _, bad := range []string{"nope", "7,,8", ""} {
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

// TestUnknownFigExitsTwo runs the built command: an unknown -fig value must
// fail with status 2 before any experiment output, naming the valid values.
func TestUnknownFigExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lpathbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-fig", "nope")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2", err)
	}
	if len(stdout) != 0 {
		t.Errorf("printed %q before rejecting the flag", stdout)
	}
	if !strings.Contains(stderr.String(), "snapshot") {
		t.Errorf("stderr does not list the valid figures: %s", stderr.String())
	}
}
