package main

import (
	"io"
	"strings"
	"testing"
)

// TestAllExperimentsPass is the harness's own regression test: every
// experiment must pass with a reduced seed budget. Any drift between the
// implementation and the paper's claims fails CI here.
func TestAllExperimentsPass(t *testing.T) {
	cfg := config{seeds: 3, out: io.Discard}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if err := e.run(cfg); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
	}
}

// TestExitCodes pins the command's exit-code contract: 0 for a listing or
// a passing run, 2 for an unknown experiment or a bad flag.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{name: "list", args: []string{"-list"}, code: 0, stdout: "thm4"},
		{name: "unknown experiment", args: []string{"-exp", "fig99"},
			code: 2, stderr: `unknown experiment "fig99"`},
		{name: "bad flag", args: []string{"-seeds", "many"},
			code: 2, stderr: `invalid value "many"`},
		{name: "one cheap experiment", args: []string{"-exp", "fig2a", "-seeds", "1"},
			code: 0, stdout: "PASS fig2a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := execute(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
