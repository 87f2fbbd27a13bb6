package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// buildButterflyd compiles the server under test from the repository root.
func buildButterflyd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "butterflyd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/butterflyd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building butterflyd: %v\n%s", err, out)
	}
	return bin
}

// TestTinyPassEmitsEveryMetric runs all four workloads at a tiny size, with
// tracing off and on, and checks that each run passes the correctness gate
// and emits exactly the metrics BENCHMARK.json declares, with their units,
// plus the stamp fields every output must carry.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts butterflyd subprocesses")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	bin := buildButterflyd(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.5, trace: traced,
				bin: bin, out: t.TempDir(), root: "..", size: tinySize}
			res, stamp, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for _, k := range []string{"host", "nproc", "gomaxprocs_bench", "gomaxprocs_server", "go_version", "commit", "seed"} {
				if _, ok := stamp[k]; !ok {
					t.Errorf("%s trace=%v: stamp lacks %s", name, traced, k)
				}
			}
		}
	}
}

// TestGateRejectsAlteredReport alters one oracle report and streams the
// workload through butterflyd: exactly the sessions of the altered trace
// must be counted as mismatches, and the run as incorrect.
func TestGateRejectsAlteredReport(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a butterflyd subprocess")
	}
	w, err := buildWorkload("report-flood", 3, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	altered := w.traces[0]
	if len(altered.oracle) < 2 {
		t.Fatal("report-flood trace has too few reports to alter")
	}
	want := append(altered.oracle[:0:0], altered.oracle...)
	want[1].Detail += " (altered)"
	var m mismatchError
	if err := checkResult(altered, len(altered.rows), altered.events, want); !errors.As(err, &m) {
		t.Fatalf("checkResult accepted an altered report list: %v", err)
	}
	altered.oracle = want

	d, err := startDaemon(buildButterflyd(t), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	var ta tally
	closedLoop(d.addr, w, 1, w.totalEvents(), &ta)
	if ta.attempted != len(w.traces) || ta.mismatches != 1 || ta.failed != 1 {
		t.Fatalf("attempted=%d mismatches=%d failed=%d, want %d/1/1", ta.attempted, ta.mismatches, ta.failed, len(w.traces))
	}
}
