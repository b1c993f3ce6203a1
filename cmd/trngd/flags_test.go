package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runAsMain is the environment switch that makes the test binary run
// trngd's main() instead of the tests, so flag handling can be checked
// through a real process exit.
const runAsMain = "TRNGD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnusableSizes: sizes that would panic, refuse every
// request or be silently replaced exit 1 at startup, before any shard
// is calibrated.
func TestRejectsUnusableSizes(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-queue", "-1"},
		{"-queue", "0"},
		{"-maxbytes", "0"},
		{"-shards", "0"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
			cmd.Env = append(os.Environ(), runAsMain+"=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("trngd %v: %v, want exit status 1\n%s", args, err, out)
			}
			if !strings.Contains(string(out), args[0]+" must be") {
				t.Errorf("trngd %v: no message naming %s:\n%s", args, args[0], out)
			}
			if strings.Contains(string(out), "calibrating shards") {
				t.Errorf("trngd %v: calibrated before rejecting the flag:\n%s", args, out)
			}
		})
	}
}
