package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as vrdag-exp itself, so the test
// below can observe the real exit code and output of main.
const runMainEnv = "BENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnknownExperiment: a misspelt -exp exits 2 with the valid
// names on stderr and nothing on stdout, instead of running no section and
// exiting 0.
func TestRejectsUnknownExperiment(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "tabel1", "-scale", "0.01")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) {
		t.Fatalf("vrdag-exp -exp tabel1: %v, want a non-zero exit", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, errb.String())
	}
	for _, name := range []string{`"tabel1"`, strings.Join(experimentNames, " ")} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("stderr does not name %s:\n%s", name, errb.String())
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote %d bytes to stdout", out.Len())
	}
}
