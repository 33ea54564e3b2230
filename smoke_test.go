package rfidtrack_test

// Smoke tests for every binary in cmd/ and examples/: build each one, run
// it on a tiny world, and require a zero exit status and non-empty output.
// These catch wiring rot — a flag rename, a panic on startup, an example
// drifting from the library API — that unit tests of the internal packages
// cannot see.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeBinaries lists every main package with the arguments that shrink
// its world enough to finish in seconds.
var smokeBinaries = []struct {
	pkg  string // path under the module root
	args []string
}{
	{"cmd/rfidsim", []string{"-epochs", "700", "-items", "3"}},
	{"cmd/rfidinfer", []string{"-epochs", "700", "-items", "3"}},
	{"cmd/rfidquery", []string{"-epochs", "900", "-items", "2", "-sites", "2"}},
	{"cmd/experiments", []string{"-only", "Figure 4"}},
	// The daemon's demo mode exercises the full online loop — HTTP ingest,
	// Δ-scheduling, drain, graceful shutdown — inside one process.
	{"cmd/rfidtrackd", []string{"-demo", "-epochs", "900", "-items", "3", "-sites", "2"}},
	{"examples/quickstart", nil},
	{"examples/daemon", []string{"-epochs", "1200", "-items", "3"}},
	// Crash + WAL/snapshot recovery in-process; fails loudly if the
	// recovered result ever drifts from the uninterrupted run.
	{"examples/recovery", []string{"-epochs", "1200", "-items", "3"}},
	{"examples/tracking", nil},
	{"examples/supplychain", []string{"-epochs", "900", "-items", "3"}},
	{"examples/hospital", []string{"-epochs", "700", "-items", "4"}},
	{"examples/coldchain", []string{"-epochs", "900", "-items", "5"}},
}

func TestSmokeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	moduleRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	binDir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	build := exec.CommandContext(ctx, goTool, "build", "-o", binDir+string(os.PathSeparator), "./cmd/...", "./examples/...")
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}

	for _, sb := range smokeBinaries {
		sb := sb
		t.Run(filepath.Base(sb.pkg), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(binDir, filepath.Base(sb.pkg)), sb.args...)
			cmd.Dir = t.TempDir() // any file output lands in a scratch dir
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
					sb.pkg, sb.args, err, stdout.String(), stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatalf("%s %v: exited 0 but printed nothing (stderr: %s)",
					sb.pkg, sb.args, stderr.String())
			}
		})
	}
}

// TestRfidinferRefusesNonPositiveInterval pins rfidinfer's usage error for
// an interval that is zero or negative: checkpoints are interval epochs
// apart, so such a run would never reach the end of the trace.
func TestRfidinferRefusesNonPositiveInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	bin := filepath.Join(t.TempDir(), "rfidinfer")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/rfidinfer").CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	for _, iv := range []string{"0", "-300"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-epochs", "700", "-items", "3", "-interval", iv).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte("-interval must be positive")) {
			t.Errorf("-interval %s: err %v, want a usage error (exit 2)\n%s", iv, err, out)
		}
	}
}
