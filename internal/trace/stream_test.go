package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// drain reads a whole streamed trace, failing the test on any error but
// io.EOF.
func drain(t *testing.T, r io.Reader) []Rec {
	t.Helper()
	sr, err := NewStreamReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var out []Rec
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

// The wire format must round-trip records exactly — bit-identical
// floats, not approximately-equal ones — because streamed replays feed
// deterministic simulations.
func TestStreamRoundTripExact(t *testing.T) {
	recs := []Rec{
		{At: 0, Class: 0, SizeBytes: 0, Home: -1},
		{At: 0, Class: 3, SizeBytes: 1, Home: 0}, // duplicate time is legal
		{At: 1.0 / 3.0, Class: 1, SizeBytes: 1 << 40, Home: 7},
		{At: 1e9 + 1e-6, Class: 0, SizeBytes: 123456789, Home: 2},
		{At: math.MaxFloat64, Class: 2, SizeBytes: math.MaxInt64, Home: 0},
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := sw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != len(recs) {
		t.Fatalf("writer count %d, want %d", sw.Count(), len(recs))
	}
	if !strings.HasPrefix(buf.String(), StreamHeader+"\n") {
		t.Fatalf("missing header: %q", buf.String()[:30])
	}
	got := drain(t, &buf)
	if len(got) != len(recs) {
		t.Fatalf("%d records back, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i] != r {
			t.Fatalf("record %d: %+v round-tripped to %+v", i, r, got[i])
		}
	}
}

// Blank lines and #-comments are the format's annotation channel; they
// must vanish without affecting record counts or the time invariant.
func TestStreamReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := StreamHeader + "\n" +
		"# provenance: synthesized for the walkthrough\n" +
		"\n" +
		"1.5 0 100 0\n" +
		"   \n" +
		"# mid-stream comment\n" +
		"2.5 1 200 -1\n"
	got := drain(t, strings.NewReader(in))
	want := []Rec{{At: 1.5, Class: 0, SizeBytes: 100, Home: 0}, {At: 2.5, Class: 1, SizeBytes: 200, Home: -1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// Every way a trace file can rot on disk must surface as a clean,
// line-numbered error — never a panic, never a silently skipped record.
func TestStreamReaderMalformed(t *testing.T) {
	h := StreamHeader + "\n"
	cases := []struct {
		name     string
		input    string
		wantLine string // substring expected in the error
	}{
		{"empty input", "", "missing header"},
		{"wrong header", "#dias-trace v99\n1 0 0 0\n", "line 1"},
		{"no header, data first", "1 0 0 0\n", "line 1"},
		{"too few fields", h + "1.5 0 100\n", "line 2"},
		{"too many fields", h + "1.5 0 100 0 9\n", "line 2"},
		{"bad float", h + "abc 0 100 0\n", "line 2"},
		{"nan time", h + "NaN 0 100 0\n", "line 2"},
		{"inf time", h + "+Inf 0 100 0\n", "line 2"},
		{"negative time", h + "-1 0 100 0\n", "line 2"},
		{"bad class", h + "1.5 x 100 0\n", "line 2"},
		{"negative class", h + "1.5 -1 100 0\n", "line 2"},
		{"float class", h + "1.5 0.5 100 0\n", "line 2"},
		{"bad size", h + "1.5 0 10x0 0\n", "line 2"},
		{"negative size", h + "1.5 0 -100 0\n", "line 2"},
		{"bad home", h + "1.5 0 100 zz\n", "line 2"},
		{"home below -1", h + "1.5 0 100 -2\n", "line 2"},
		{"time goes backwards", h + "2 0 0 0\n1 0 0 0\n", "line 3"},
		{"backwards after comment", h + "2 0 0 0\n# note\n1 0 0 0\n", "line 4"},
		{"overlong line", h + strings.Repeat("9", 2<<20) + " 0 0 0\n", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sr, err := NewStreamReader(strings.NewReader(c.input))
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err = sr.Next()
				if err != nil {
					break
				}
			}
			if err == io.EOF {
				t.Fatalf("input %q drained cleanly, want an error", c.input)
			}
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("error %q lacks the package prefix", err)
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Fatalf("error %q does not name %q", err, c.wantLine)
			}
		})
	}
}

// Writer-side validation mirrors the reader's: a record the reader
// would reject must not be writable in the first place.
func TestStreamWriterRejectsInvalid(t *testing.T) {
	bad := []Rec{
		{At: math.NaN()},
		{At: math.Inf(1)},
		{At: -1},
		{At: 1, Class: -1},
		{At: 1, SizeBytes: -1},
		{At: 1, Home: -2},
	}
	for i, r := range bad {
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(r); err == nil {
			t.Errorf("case %d: %+v accepted", i, r)
		}
	}
	// Time order.
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(Rec{At: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(Rec{At: 1}); err == nil {
		t.Fatal("time regression accepted")
	}
}

// Synthesize is the deterministic trace factory: same config, same
// bytes; records honor the config's mix, homes and time order.
func TestSynthesize(t *testing.T) {
	cfg := SynthConfig{
		Jobs:          2000,
		Rates:         []float64{9, 1},
		Clusters:      4,
		MeanSizeBytes: 1 << 20,
		SizeCV:        1.5,
		Seed:          42,
	}
	var a, b bytes.Buffer
	na, err := Synthesize(&a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if na != cfg.Jobs {
		t.Fatalf("wrote %d records, want %d", na, cfg.Jobs)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same config produced different traces")
	}
	recs := drain(t, &a)
	if len(recs) != cfg.Jobs {
		t.Fatalf("read back %d records", len(recs))
	}
	var class0, sizeSum float64
	for i, r := range recs {
		if i > 0 && r.At < recs[i-1].At {
			t.Fatalf("record %d out of order", i)
		}
		if r.Home < 0 || r.Home >= cfg.Clusters {
			t.Fatalf("record %d home %d", i, r.Home)
		}
		if r.SizeBytes <= 0 {
			t.Fatalf("record %d size %d", i, r.SizeBytes)
		}
		if r.Class == 0 {
			class0++
		}
		sizeSum += float64(r.SizeBytes)
	}
	if frac := class0 / float64(len(recs)); math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("class-0 fraction %g, want 0.9", frac)
	}
	// Lognormal mean within 20% at CV 1.5 and n=2000.
	if mean := sizeSum / float64(len(recs)); math.Abs(mean-float64(1<<20))/float64(1<<20) > 0.2 {
		t.Fatalf("mean size %g, want ~%d", mean, 1<<20)
	}
	// Mean gap 1/total within 10%.
	if meanGap := recs[len(recs)-1].At / float64(len(recs)); math.Abs(meanGap-0.1) > 0.01 {
		t.Fatalf("mean gap %g, want 0.1", meanGap)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	for i, cfg := range []SynthConfig{
		{Jobs: 0, Rates: []float64{1}},
		{Jobs: 10, Rates: nil},
		{Jobs: 10, Rates: []float64{0, 0}},
		{Jobs: 10, Rates: []float64{-1, 2}},
		{Jobs: 10, Rates: []float64{1}, Clusters: -1},
		{Jobs: 10, Rates: []float64{1}, MeanSizeBytes: -1},
		{Jobs: 10, Rates: []float64{1}, SizeCV: -1},
		{Jobs: 10, Rates: []float64{math.Inf(1), 1}},
		{Jobs: 10, Rates: []float64{math.NaN(), 1}},
		{Jobs: 10, Rates: []float64{math.MaxFloat64, math.MaxFloat64}},
		{Jobs: 10, Rates: []float64{1}, MeanSizeBytes: math.NaN()},
		{Jobs: 10, Rates: []float64{1}, MeanSizeBytes: math.Inf(1)},
		{Jobs: 10, Rates: []float64{1}, MeanSizeBytes: 100, SizeCV: math.NaN()},
		{Jobs: 10, Rates: []float64{1}, MeanSizeBytes: 100, SizeCV: math.Inf(1)},
	} {
		var buf bytes.Buffer
		if _, err := Synthesize(&buf, cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// FuzzStreamReader asserts the reader never panics on arbitrary bytes
// and that whatever it accepts round-trips through StreamWriter with
// identical records — the reader and writer agree on the format.
func FuzzStreamReader(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(StreamHeader + "\n"))
	f.Add([]byte(StreamHeader + "\n1.5 0 100 0\n2.5 1 200 -1\n"))
	f.Add([]byte(StreamHeader + "\n# comment\n\n3 2 0 1\n"))
	f.Add([]byte(StreamHeader + "\n2 0 0 0\n1 0 0 0\n"))
	f.Add([]byte(StreamHeader + "\nNaN 0 0 0\n"))
	f.Add([]byte(StreamHeader + "\n1e309 0 0 0\n"))
	f.Add([]byte("#dias-trace v99\n1 0 0 0\n"))
	f.Add([]byte("1 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("constructor: %v", err)
		}
		var recs []Rec
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // malformed input rejected cleanly: fine
			}
			recs = append(recs, rec)
			if len(recs) > 10000 {
				return // enough; keep the fuzz round fast
			}
		}
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if err := sw.Write(r); err != nil {
				t.Fatalf("accepted record %d %+v rejected by writer: %v", i, r, err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewStreamReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			rec, err := back.Next()
			if err != nil {
				t.Fatalf("round trip record %d: %v", i, err)
			}
			if rec != recs[i] {
				t.Fatalf("round trip record %d: %+v became %+v", i, recs[i], rec)
			}
		}
		if _, err := back.Next(); err != io.EOF {
			t.Fatalf("round trip invented records: %v", err)
		}
	})
}
