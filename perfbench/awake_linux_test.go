package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as keepAwake's child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if n, err := strconv.Atoi(os.Getenv(awakeEnv)); err == nil {
		spinAwake(n)
	}
	os.Exit(m.Run())
}

// children lists the pids of this process's live child processes.
func children(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread ended
		}
		pids = append(pids, strings.Fields(string(b))...)
	}
	return pids
}

func TestKeepAwakeStopsItsChild(t *testing.T) {
	if len(children(t)) != 0 {
		t.Skip("the test process already has children")
	}
	stop, err := keepAwake(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := children(t); len(got) != 1 {
		stop()
		t.Fatalf("after keepAwake: children %v, want one", got)
	}
	stop()
	stop() // a second stop is a no-op
	if got := children(t); len(got) != 0 {
		t.Errorf("after stop: children %v, want none", got)
	}
}
