package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestExitCodes is the CLI's scenario pack: each invocation must end with
// its documented exit code — 0 on success, 2 for a bad flag or flag value,
// 1 for a runtime failure — and leave its tell-tale line on stdout or
// stderr. A runtime failure must be a typed message, never a crash.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{name: "list", args: []string{"-list"}, code: 0, stdout: "coord-m4"},
		{name: "live engine agrees with offline",
			args: []string{"-scenario", "coord-m4", "-policy", "random", "-engine", "online"},
			code: 0, stdout: "agrees with offline ✔"},
		{name: "unknown format", args: []string{"-sweep", "-format", "yaml"},
			code: 2, stderr: `unknown output format "yaml"`},
		{name: "live without sweep", args: []string{"-live"},
			code: 2, stderr: "-live needs -sweep"},
		{name: "removed live-mode flag", args: []string{"-sweep", "-live", "-live-mode", "goroutine"},
			code: 2, stderr: "flag provided but not defined: -live-mode"},
		{name: "removed no-xbatch flag", args: []string{"-sweep", "-no-xbatch"},
			code: 2, stderr: "flag provided but not defined: -no-xbatch"},
		{name: "sweep without seeds", args: []string{"-sweep", "-seeds", "0"},
			code: 2, stderr: "at least one seed"},
		{name: "unknown engine", args: []string{"-scenario", "coord-m4", "-engine", "bogus"},
			code: 2, stderr: `unknown engine "bogus"`},
		{name: "unknown kind", args: []string{"-scenario", "coord-m4", "-engine", "online", "-kind", "bogus"},
			code: 2, stderr: `unknown kind "bogus"`},
		{name: "unknown fault family", args: []string{"-scenario", "coord-m4", "-engine", "online", "-faults", "meteor"},
			code: 2, stderr: `unknown fault family "meteor"`},
		{name: "engine with sweep", args: []string{"-sweep", "-engine", "online"},
			code: 2, stderr: "-engine applies to single-scenario runs"},
		{name: "sweep faults without live", args: []string{"-sweep", "-sweep-faults"},
			code: 2, stderr: "-sweep-faults needs -sweep -live"},
		{name: "faults with sweep", args: []string{"-sweep", "-live", "-faults", "chaos"},
			code: 2, stderr: "-faults applies to single-scenario -engine runs"},
		{name: "faults on the offline engine", args: []string{"-faults", "chaos"},
			code: 2, stderr: "-faults needs a live engine"},
		{name: "bad sweep-x entry", args: []string{"-sweep", "-sweep-x", "1,two"},
			code: 2, stderr: `bad -sweep-x entry "two"`},
		{name: "bad sweep-rand entry", args: []string{"-sweep", "-sweep-rand", "8:12"},
			code: 2, stderr: `bad -sweep-rand entry "8:12"`},
		{name: "unknown scenario", args: []string{"-scenario", "bogus"},
			code: 2, stderr: `unknown scenario "bogus"`},
		{name: "unknown policy", args: []string{"-policy", "bogus"},
			code: 2, stderr: `unknown policy "bogus"`},
		{name: "live engine on a taskless scenario", args: []string{"-scenario", "figure3", "-engine", "online"},
			code: 1, stderr: "poses no coordination task"},
		{name: "faulted shared-engine run",
			args: []string{"-scenario", "coord-m4", "-engine", "shared", "-faults", "chaos"},
			code: 0, stdout: "\nfaults: "},
		{name: "non-finite sweep scale", args: []string{"-sweep", "-sweep-scale", "NaN", "-seeds", "1"},
			code: 1, stderr: "scenario: bad bound scale"},
		{name: "untabulable sweep scale", args: []string{"-sweep", "-sweep-scale", "1e7", "-seeds", "1"},
			code: 1, stderr: "run: horizon out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(c.args, &stdout, &stderr)
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

// TestEngineFooterNamesEveryField pins the sweep footer to the counter
// table: one line naming every bounds.StatFields entry, in table order,
// each with its own value.
func TestEngineFooterNamesEveryField(t *testing.T) {
	report := sweep.EngineReport{Networks: 3}
	st := reflect.ValueOf(&report.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		st.Field(i).SetInt(int64(i + 1))
	}
	got := engineFooter(report)
	want := "engines: 3 network(s);"
	for i, f := range bounds.StatFields {
		want += fmt.Sprintf(" %s=%d", f.Name, i+1)
	}
	if got != want {
		t.Errorf("footer\n%s\nwant\n%s", got, want)
	}
}
