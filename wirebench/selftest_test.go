package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchDef is the part of BENCHMARK.json the self-test checks.
type benchDef struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSelfToy runs every workload at toy size, untraced and traced,
// against a freshly built bqsd, and checks that the result line holds
// exactly the metrics BENCHMARK.json names, each with its unit, and
// that every output check passed.
func TestSelfToy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bqsd and runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, d := range def.EndToEnd {
		if u := unitOf(d.Name); u != d.Unit || declaredLayer(d.Name) {
			t.Errorf("BENCHMARK.json end-to-end %s [%s]: wirebench reports it as %s, layer=%v", d.Name, d.Unit, u, declaredLayer(d.Name))
		}
	}
	for _, d := range def.PerLayer {
		if u := unitOf(d.Name); u != d.Unit || !declaredLayer(d.Name) {
			t.Errorf("BENCHMARK.json per-layer %s [%s]: wirebench reports it as %s, layer=%v", d.Name, d.Unit, u, declaredLayer(d.Name))
		}
	}

	bin := t.TempDir()
	for pkg, out := range map[string]string{"../cmd/bqsd": "bqsd", ".": "wirebench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, msg)
		}
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := def.EndToEnd
			if trace == "1" {
				want = def.PerLayer
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "wirebench"), "-bqsd", filepath.Join(bin, "bqsd"), "-root", root, "-toy",
					"--workload", w.Name, "--seed", "5", "--seconds", "2", "--trace", trace)
				var stderr strings.Builder
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s\n%s", err, out, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s [%s]: got %+v (present %v)", d.Name, d.Unit, m, ok)
					}
				}
			})
		}
	}
}

func declaredLayer(name string) bool {
	for _, d := range metricDefs {
		if d.name == name {
			return d.layer
		}
	}
	return false
}
