package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"priview/internal/snapshot"
)

// buildCLISynopsis drives generate+build and returns the synopsis path.
func buildCLISynopsis(t *testing.T, extra ...string) string {
	t.Helper()
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdGenerate([]string{"-dataset", "msnbc", "-n", "1000", "-seed", "7", "-out", dataPath}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	args := append([]string{"-in", dataPath, "-eps", "1.0", "-out", synPath}, extra...)
	if err := cmdBuild(args); err != nil {
		t.Fatalf("build: %v", err)
	}
	return synPath
}

func TestAuditCleanSynopsis(t *testing.T) {
	synPath := buildCLISynopsis(t)
	if err := cmdAudit([]string{synPath}); err != nil {
		t.Fatalf("audit of a fresh build failed: %v", err)
	}
	if err := cmdAudit([]string{"-json", synPath}); err != nil {
		t.Fatalf("audit -json: %v", err)
	}
}

func TestAuditCorruptSynopsisFails(t *testing.T) {
	synPath := buildCLISynopsis(t)
	raw, err := os.ReadFile(synPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(synPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdAudit([]string{synPath}); err == nil {
		t.Fatal("audit accepted a truncated synopsis")
	}
}

func TestAuditInconsistentSynopsisFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	doc := `{"format":"priview-synopsis-v1","epsilon":1,"total":40,"views":[` +
		`{"attrs":[0,1],"cells":[15,15,5,5]},{"attrs":[1,2],"cells":[10,10,10,10]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdAudit([]string{path}); err == nil {
		t.Fatal("audit passed mutually inconsistent views")
	}
}

func TestAuditUsage(t *testing.T) {
	if err := cmdAudit([]string{}); err == nil {
		t.Fatal("audit with no file should fail")
	}
}

// TestBuildSnapshotRoundTrip proves build writes a v2 container, with
// or without the no-op -snapshot flag, that both audit and query read
// back.
func TestBuildSnapshotRoundTrip(t *testing.T) {
	for name, extra := range map[string][]string{"default": nil, "snapshot-flag": {"-snapshot"}} {
		t.Run(name, func(t *testing.T) {
			synPath := buildCLISynopsis(t, extra...)
			raw, err := os.ReadFile(synPath)
			if err != nil {
				t.Fatal(err)
			}
			var env struct{ Format string }
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if env.Format != snapshot.FormatV2 {
				t.Fatalf("build wrote format %q, want %q", env.Format, snapshot.FormatV2)
			}
			if err := cmdAudit([]string{synPath}); err != nil {
				t.Fatalf("audit of v2 snapshot: %v", err)
			}
			if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "0,3"}); err != nil {
				t.Fatalf("query of v2 snapshot: %v", err)
			}
		})
	}
}
