package repro_test

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs each
// one: it must exit 0 and print something, and two of them must print
// what their doc comments promise.
func TestExamplesRun(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no example programs found")
	}
	check := map[string]func(t *testing.T, stdout string){
		"quickstart": func(t *testing.T, stdout string) {
			// Ranks print concurrently, so the order is not part of the
			// promise.
			got := strings.Split(strings.TrimSpace(stdout), "\n")
			want := []string{
				`rank 0: allreduce sum of ranks = 6`,
				`rank 1 received "hello from rank 0" (from 0, 17 bytes)`,
				`rank 1: allreduce sum of ranks = 6`,
				`rank 2: allreduce sum of ranks = 6`,
				`rank 3: allreduce sum of ranks = 6`,
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("output lines %q, want %q in any order", got, want)
			}
		},
		"gups": func(t *testing.T, stdout string) {
			if !strings.Contains(stdout, "verification PASSED") {
				t.Errorf("no verification PASSED in:\n%s", stdout)
			}
		},
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(dir, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\nstderr:\n%s", err, stderr.Bytes())
			}
			if strings.TrimSpace(stdout.String()) == "" {
				t.Fatal("printed nothing")
			}
			if f := check[name]; f != nil {
				f(t, stdout.String())
			}
		})
	}
	for name := range check {
		if !slices.Contains(mains, filepath.Join("examples", name, "main.go")) {
			t.Errorf("examples/%s is gone; its output check has no subject", name)
		}
	}
}
