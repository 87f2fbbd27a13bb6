package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/trace"
)

// codePool mixes real codes with adversarial ones: empty, non-UTF-8,
// controls.
var codePool = []string{
	"addrcheck.unallocated-access",
	"addrcheck.concurrent-metadata-change",
	"lockset.potential-data-race",
	"",
	"bad utf8 \xff\xfe",
	"ctrl\x00\x1f\n",
}

func randString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "" // the common case: text rendered at the reader
	}
	b := make([]byte, rng.Intn(40))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randReports(rng *rand.Rand) Reports {
	r := Reports{Epoch: rng.Intn(1 << 20)}
	if rng.Intn(10) == 0 {
		return r // nil Reports slice
	}
	n := 1 + rng.Intn(12)
	r.Reports = make([]core.Report, n)
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref: trace.Ref{
				Epoch:  rng.Intn(1<<16) - 8,
				Thread: trace.ThreadID(rng.Intn(1<<10) - 8),
				Index:  rng.Intn(1 << 16),
			},
			Ev: trace.Event{
				Kind:  trace.Kind(rng.Intn(256)),
				Addr:  rng.Uint64(),
				Size:  rng.Uint64() >> rng.Intn(64),
				Src1:  rng.Uint64() >> rng.Intn(64),
				Src2:  rng.Uint64() >> rng.Intn(64),
				Cycle: rng.Uint64() >> rng.Intn(64),
			},
			Code:   codePool[rng.Intn(len(codePool))],
			Detail: randString(rng),
		}
	}
	return r
}

// TestReportsRoundTrip checks DecodeReports recovers every field of what
// AppendReports encoded, byte for byte, and that the payload re-encodes to
// itself.
func TestReportsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randReports(rng)
		data := AppendReports(nil, r)
		var got Reports
		if err := DecodeReports(data, &got); err != nil {
			t.Fatalf("iter %d: decode: %v\nwire: %q", i, err, data)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("iter %d: round-trip mismatch\ngot:  %+v\nwant: %+v", i, got, r)
		}
		if again := AppendReports(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("iter %d: re-encoding changed the payload", i)
		}
	}
}

// TestReportsSize pins the wire cost of a report-heavy frame: a run of one
// code with no Detail names the code once and spends a few bytes a row.
func TestReportsSize(t *testing.T) {
	r := Reports{Epoch: 1000, Reports: make([]core.Report, 64)}
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref:  trace.Ref{Epoch: 1000, Thread: 1, Index: i},
			Ev:   trace.Event{Kind: trace.Read, Addr: 0x1000_0000 + uint64(i)*8, Size: 8},
			Code: "addrcheck.unallocated-access",
		}
	}
	if n := len(AppendReports(nil, r)); n > 24*len(r.Reports) {
		t.Fatalf("%d bytes for %d reports, want at most 24 a report", n, len(r.Reports))
	}
}

// TestReportsDecodeRejects feeds DecodeReports every malformed shape the
// canonical encoding rules out; each must be an error, not a guess.
func TestReportsDecodeRejects(t *testing.T) {
	good := AppendReports(nil, Reports{Epoch: 5, Reports: []core.Report{
		{Ref: trace.Ref{Epoch: 5, Index: 1}, Ev: trace.Event{Kind: trace.Read, Addr: 0x100, Size: 4}, Code: "a"},
		{Ref: trace.Ref{Epoch: 5, Index: 2}, Ev: trace.Event{Kind: trace.Write, Addr: 0x108, Size: 4}, Code: "b", Detail: "d"},
	}})
	var r Reports
	if err := DecodeReports(good, &r); err != nil {
		t.Fatalf("good payload: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if err := DecodeReports(good[:n], &r); err == nil {
			t.Errorf("truncated to %d of %d bytes: accepted", n, len(good))
		}
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	row := func(code uint64) []byte { // Ref 0,0,0; kind 1; zero event; no Detail
		return append([]byte{0, 0, 0, 1}, uv(0, 0, 0, 0, 0, code, 0)...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"trailing byte":           append(append([]byte(nil), good...), 0),
		"overlong epoch":          cat([]byte{0x85, 0x00}, uv(0, 0)),
		"epoch out of range":      cat(uv(1<<41, 0, 0)),
		"forged code count":       cat(uv(1, 1<<60)),
		"forged report count":     cat(uv(1, 1, 1), []byte("a"), uv(1<<40)),
		"forged code length":      cat(uv(1, 1, 1<<50)),
		"forged detail length":    cat(uv(1, 1, 1), []byte("a"), uv(1), []byte{0, 0, 0, 1}, uv(0, 0, 0, 0, 0, 0, 1<<30)),
		"duplicate code":          cat(uv(1, 2, 1), []byte("a"), uv(1), []byte("a"), uv(2), row(0), row(1)),
		"unused code":             cat(uv(1, 2, 1), []byte("a"), uv(1), []byte("b"), uv(1), row(0)),
		"code out of first use":   cat(uv(1, 2, 1), []byte("a"), uv(1), []byte("b"), uv(2), row(1), row(0)),
		"code index past table":   cat(uv(1, 1, 1), []byte("a"), uv(1), row(1)),
		"rows with no code table": cat(uv(1, 0, 1), row(0)),
		"kind past a byte":        cat(uv(1, 1, 1), []byte("a"), uv(1, 0, 0, 0, 256, 0, 0, 0, 0, 0, 0, 0)),
	}
	for name, data := range cases {
		if err := DecodeReports(data, &r); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

// FuzzReportsDecoder throws arbitrary bytes at the Reports frame decoder the
// client runs on every server frame: no input may panic or allocate in
// proportion to a forged count, and every payload it accepts must re-encode
// to exactly itself (the encoding is canonical).
func FuzzReportsDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(AppendReports(nil, randReports(rng)))
	}
	f.Add(AppendReports(nil, Reports{Epoch: 9}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var r Reports
		err := DecodeReports(data, &r)
		runtime.ReadMemStats(&after)
		// A report row is at least rowFields bytes and decodes into one
		// core.Report plus at most its own bytes of Detail, so what the
		// decoder allocates is bounded by the payload, not by any count in
		// it. The slack absorbs the interned codes and runtime noise.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if again := AppendReports(nil, r); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %q\n out %q", data, again)
		}
	})
}

// benchReports is one report-flooded tick: four threads of 64 reads of
// unallocated heap, one report each.
func benchReports() Reports {
	r := Reports{Epoch: 17, Reports: make([]core.Report, 256)}
	rng := rand.New(rand.NewSource(1))
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref:  trace.Ref{Epoch: 17, Thread: trace.ThreadID(i / 64), Index: i % 64},
			Ev:   trace.Event{Kind: trace.Read, Addr: 1<<20 + uint64(rng.Intn(1<<20))*8, Size: 8},
			Code: "addrcheck.unallocated-access",
		}
	}
	return r
}

func BenchmarkReportsEncode(b *testing.B) {
	r := benchReports()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteReports(&buf, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReportsDecode(b *testing.B) {
	data := AppendReports(nil, benchReports())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var got Reports
		if err := DecodeReports(data, &got); err != nil {
			b.Fatal(err)
		}
	}
}
