package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as vrdag-gen itself, so the tests
// below can observe the real exit code and stderr of main.
const runMainEnv = "GEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vrdagGen runs the command with args and returns its exit code, stdout
// and stderr.
func vrdagGen(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running vrdag-gen %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// TestRejectsOutOfRangeFlags: sizes core.Config would silently default
// (-epochs -1 used to generate from an untrained model) or panic on
// (negative shapes) end in one structured error line and exit 1, before
// anything is loaded or trained.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, val string }{
		{"-epochs", "-1"}, {"-epochs", "0"},
		{"-hidden", "-4"}, {"-hidden", "0"},
		{"-latent", "-1"}, {"-latent", "0"},
		{"-k", "-1"}, {"-k", "0"},
		{"-cap", "-1"},
		{"-tbptt", "-1"},
		{"-neighbor-sample", "-1"},
	} {
		t.Run(tc.flag+"="+tc.val, func(t *testing.T) {
			code, stdout, stderr := vrdagGen(t, "-dataset", "email", "-scale", "0.03", tc.flag, tc.val)
			if code != 1 {
				t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
			}
			if n := strings.Count(stderr, "level=ERROR"); n != 1 || strings.Count(stderr, "\n") != 1 {
				t.Fatalf("want exactly one level=ERROR line on stderr, got:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.flag) {
				t.Fatalf("error line does not name %s:\n%s", tc.flag, stderr)
			}
			if strings.Contains(stderr, "goroutine") {
				t.Fatalf("stderr carries a goroutine dump:\n%s", stderr)
			}
			if stdout != "" {
				t.Fatalf("rejected run wrote %d bytes to stdout", len(stdout))
			}
		})
	}
}

// TestBoundaryFlagsAndUnwritableOutputs: the smallest accepted sizes train
// and generate, and a -save-model or -out that cannot be written fails the
// run instead of leaving exit 0 behind.
func TestBoundaryFlagsAndUnwritableOutputs(t *testing.T) {
	base := []string{"-dataset", "email", "-scale", "0.03", "-quiet", "-epochs", "1",
		"-hidden", "1", "-latent", "1", "-k", "1", "-cap", "0", "-tbptt", "0", "-neighbor-sample", "0"}
	dir := t.TempDir()
	out, ckpt := filepath.Join(dir, "synth.vg"), filepath.Join(dir, "m.ckpt")
	code, _, stderr := vrdagGen(t, append(base, "-out", out, "-save-model", ckpt)...)
	if code != 0 {
		t.Fatalf("exit code %d at the smallest accepted sizes; stderr:\n%s", code, stderr)
	}
	for _, p := range []string{out, ckpt} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written (err %v)", p, err)
		}
	}

	targets := []string{filepath.Join(dir, "no-such-dir", "x")}
	if _, err := os.Stat("/dev/full"); err == nil {
		targets = append(targets, "/dev/full") // opens fine, every write is ENOSPC
	}
	for _, target := range targets {
		for _, flag := range []string{"-out", "-save-model"} {
			code, _, stderr := vrdagGen(t, append(base, flag, target)...)
			if code != 1 || strings.Count(stderr, "level=ERROR") != 1 {
				t.Fatalf("%s %s: exit code %d, stderr:\n%s", flag, target, code, stderr)
			}
		}
	}
}
