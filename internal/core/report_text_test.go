package core_test

// Golden report text: the rendered form of every report code each lifeguard
// emits, for every event kind that reaches it, must stay byte-identical.
// Reports stay structured through the analysis, the replay buffer and the
// wire; their text is produced only by Report.String, so this file is the
// check that the rendering at that edge never drifts.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/lifeguard/memcheck"
	"butterfly/internal/lifeguard/taintcheck"
	"butterfly/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report_text.golden")

// goldenCase is one lifeguard run over a hand-built trace, and the (code,
// event kind) pairs its reports must cover.
type goldenCase struct {
	name string
	lg   func() core.Lifeguard
	tr   func() *trace.Trace
	h    int // events per epoch
	want []string
}

func addrcheckTrace() *trace.Trace {
	// One epoch, two threads. Thread 0's per-instruction errors, then an
	// alloc and a free of bytes thread 1 accesses concurrently; thread 1's
	// accesses race those changes.
	return trace.NewBuilder(2).
		T(0).Read(0x1000, 4).Write(0x1010, 8).Free(0x2000, 8).
		Alloc(0x3000, 16).Alloc(0x3008, 8).
		Alloc(0x4000, 16).Free(0x4000, 16).
		T(1).Read(0x4000, 4).Write(0x4008, 4).
		Build()
}

func memcheckTrace() *trace.Trace {
	// Thread 0 reads fresh memory before and after defining it; thread 1
	// reads it concurrently with the allocation.
	return trace.NewBuilder(2).
		T(0).Alloc(0x5000, 16).Read(0x5000, 4).Write(0x5000, 8).Read(0x5000, 8).
		T(1).Read(0x5004, 2).
		Build()
}

func taintcheckTrace() *trace.Trace {
	return trace.NewBuilder(2).
		T(0).Taint(0x10, 8).Unop(0x20, 0x10).Jump(0x20).
		T(1).Jump(0x10).
		Build()
}

func locksetTrace() *trace.Trace {
	// Three threads touch the same bytes, thread 0 under a lock the others
	// do not hold.
	return trace.NewBuilder(3).
		T(0).Lock(1).Write(0x6000, 8).Unlock(1).
		T(1).Write(0x6000, 8).
		T(2).Read(0x6004, 4).
		Build()
}

var goldenCases = []goldenCase{
	{"addrcheck", func() core.Lifeguard { return addrcheck.New(0) }, addrcheckTrace, 64, []string{
		addrcheck.CodeUnallocAccess + "/read", addrcheck.CodeUnallocAccess + "/write",
		addrcheck.CodeUnallocFree + "/free", addrcheck.CodeDoubleAlloc + "/alloc",
		addrcheck.CodeIsolation + "/read", addrcheck.CodeIsolation + "/write",
		addrcheck.CodeIsolation + "/alloc", addrcheck.CodeIsolation + "/free",
	}},
	{"addrcheck-reference", func() core.Lifeguard { return addrcheck.NewReference(0) }, addrcheckTrace, 64, []string{
		addrcheck.CodeUnallocAccess + "/read", addrcheck.CodeUnallocAccess + "/write",
		addrcheck.CodeUnallocFree + "/free", addrcheck.CodeDoubleAlloc + "/alloc",
		addrcheck.CodeIsolation + "/read", addrcheck.CodeIsolation + "/write",
		addrcheck.CodeIsolation + "/alloc", addrcheck.CodeIsolation + "/free",
	}},
	{"memcheck", func() core.Lifeguard { return memcheck.New(0) }, memcheckTrace, 64, []string{
		memcheck.CodeUndefRead + "/read", memcheck.CodeIsolation + "/read",
	}},
	{"memcheck-reference", func() core.Lifeguard { return memcheck.NewReference(0) }, memcheckTrace, 64, []string{
		memcheck.CodeUndefRead + "/read", memcheck.CodeIsolation + "/read",
	}},
	{"taintcheck", func() core.Lifeguard { return taintcheck.New() }, taintcheckTrace, 64, []string{
		taintcheck.CodeTaintedUse + "/jump",
	}},
	{"lockset", func() core.Lifeguard { return lockset.New() }, locksetTrace, 64, []string{
		lockset.CodeRace + "/write", lockset.CodeRace + "/read",
	}},
}

// goldenReports runs every case serially and returns its reports.
func goldenReports(t *testing.T, c goldenCase) []core.Report {
	t.Helper()
	g, err := epoch.ChunkByCount(c.tr(), c.h)
	if err != nil {
		t.Fatal(err)
	}
	return (&core.Driver{LG: c.lg()}).Run(g).Reports
}

// TestReportTextGolden requires Report.String to render every golden case
// exactly as testdata/report_text.golden records it. Run with -update to
// rewrite the file after a deliberate wording change.
func TestReportTextGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases {
		reps := goldenReports(t, c)
		seen := map[string]bool{}
		fmt.Fprintf(&b, "## %s\n", c.name)
		for _, r := range reps {
			seen[r.Code+"/"+r.Ev.Kind.String()] = true
			fmt.Fprintln(&b, r.String())
		}
		for _, w := range c.want {
			if !seen[w] {
				t.Errorf("%s: no %s report; the golden case no longer covers it", c.name, w)
			}
		}
	}
	path := filepath.Join("testdata", "report_text.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("rendered report text differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestEveryReportHasText fails if a report reaching Text has neither a
// Detail nor a renderer registered for its code: the golden cases and the
// differential suite's random traces, every lifeguard and its reference.
func TestEveryReportHasText(t *testing.T) {
	check := func(where string, reps []core.Report) {
		for _, r := range reps {
			if r.Text() == "" {
				t.Fatalf("%s: report %s at %v has no Detail and no registered renderer", where, r.Code, r.Ref)
			}
		}
	}
	for _, c := range goldenCases {
		check(c.name, goldenReports(t, c))
	}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := epoch.ChunkByCount(randomTrace(rng, 1+rng.Intn(6)), 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range lifeguards {
			check(fmt.Sprintf("%s seed %d", name, seed), (&core.Driver{LG: mk()}).Run(g).Reports)
			check(fmt.Sprintf("%s reference seed %d", name, seed), (&core.Driver{LG: references[name]()}).Run(g).Reports)
		}
	}
}
