package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeTestReport(t *testing.T, dir string, fp fingerprint, v float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(report{Workload: "stream_ingest", Fingerprint: fp, Metrics: map[string]metric{"fixes_per_s": {Value: v, Unit: "1/s"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	tmp := t.TempDir()
	host := fingerprint{NProc: 2, GeneratorProcs: 2, BqsdProcs: 2, CPU: "cpu", Kernel: "k", Go: "go", DataFS: "ext4", Code: "a"}
	writeTestReport(t, filepath.Join(tmp, "base"), host, 1e6)
	head := host
	head.Code = "b"
	writeTestReport(t, filepath.Join(tmp, "head"), head, 1.1e6)
	if rc := compareMain([]string{filepath.Join(tmp, "base"), filepath.Join(tmp, "head")}); rc != 0 {
		t.Fatalf("same host, other code: exit %d, want 0", rc)
	}
	other := head
	other.Kernel = "k2"
	writeTestReport(t, filepath.Join(tmp, "other"), other, 1.1e6)
	if rc := compareMain([]string{filepath.Join(tmp, "base"), filepath.Join(tmp, "other")}); rc != 3 {
		t.Fatalf("other host: exit %d, want 3 (refused)", rc)
	}
}
