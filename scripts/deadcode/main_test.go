package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScanFixture runs the scan over testdata/mod: a root module (fix) with
// a root package, a reached library (fix/lib), an unimported package
// (fix/orphan), and a second module (fix/bench) that reaches fix/lib
// through a replace directive, the shape of this repository's bench/.
func TestScanFixture(t *testing.T) {
	findings, err := scan(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, f := range findings {
		reported[f.Name] = true
	}

	t.Run("unimported package is reported", func(t *testing.T) {
		if !reported["fix/orphan"] {
			t.Errorf("fix/orphan not reported: %v", findings)
		}
	})
	t.Run("function called only from a test file is reported", func(t *testing.T) {
		if !reported["fix/lib.TestOnly"] {
			t.Errorf("fix/lib.TestOnly not reported: %v", findings)
		}
	})
	t.Run("unexported function called only from a test file is reported", func(t *testing.T) {
		if !reported["fix/lib.testOnly"] {
			t.Errorf("fix/lib.testOnly not reported: %v", findings)
		}
		for _, f := range findings {
			if f.Name == "fix/lib.testOnly" && f.Kind != "unused function" {
				t.Errorf("fix/lib.testOnly reported as %q, want \"unused function\"", f.Kind)
			}
		}
	})
	t.Run("unexported function with a caller and init are not reported", func(t *testing.T) {
		if reported["fix/lib.one"] || reported["fix/lib.init"] {
			t.Errorf("reported %v, but Used calls one and init runs unnamed", findings)
		}
	})
	t.Run("method that satisfies a used interface is not reported", func(t *testing.T) {
		if reported["fix/lib.Square.Area"] {
			t.Error("fix/lib.Square.Area reported, but Run calls it through Shape")
		}
		if !reported["fix/lib.Square.Perimeter"] {
			t.Errorf("fix/lib.Square.Perimeter not reported: %v", findings)
		}
	})
	t.Run("function used only from a replace-linked module is not reported", func(t *testing.T) {
		if reported["fix/lib.BenchOnly"] {
			t.Error("fix/lib.BenchOnly reported, but the bench module calls it")
		}
	})
	t.Run("nothing else is reported", func(t *testing.T) {
		want := map[string]bool{"fix/orphan": true, "fix/lib.TestOnly": true, "fix/lib.testOnly": true, "fix/lib.Square.Perimeter": true}
		if !reflect.DeepEqual(reported, want) {
			t.Errorf("reported %v, want %v", findings, want)
		}
	})
	t.Run("allowlist entry that is gone or reached fails the run", func(t *testing.T) {
		allow := map[string]string{
			"fix/orphan":               "kept on purpose",
			"fix/lib.TestOnly":         "test oracle",
			"fix/lib.testOnly":         "test oracle",
			"fix/lib.Square.Perimeter": "test oracle",
		}
		if problems := check(findings, allow); len(problems) != 0 {
			t.Fatalf("a full allowlist left problems: %v", problems)
		}
		allow["fix/lib.Gone"] = "no longer exists"
		allow["fix/lib.Used"] = "reached from the root package"
		problems := check(findings, allow)
		if len(problems) != 2 || !strings.Contains(problems[0], "fix/lib.Gone") || !strings.Contains(problems[1], "fix/lib.Used") {
			t.Errorf("problems = %v, want the two stale entries", problems)
		}
	})
}

func TestReadAllowlist(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "allowlist.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allow, err := readAllowlist(write("# comment\n\nfix/orphan  kept on purpose \n"))
	if err != nil || !reflect.DeepEqual(allow, map[string]string{"fix/orphan": "kept on purpose"}) {
		t.Errorf("allowlist = %v, %v", allow, err)
	}
	if _, err := readAllowlist(write("fix/orphan\n")); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Errorf("entry without a reason: err = %v", err)
	}
	if _, err := readAllowlist(write("fix/orphan a\nfix/orphan b\n")); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate entry: err = %v", err)
	}
}
