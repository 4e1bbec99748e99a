package workload

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"dias/internal/trace"
)

const streamTestTrace = trace.StreamHeader + "\n" +
	"1 0 100 0\n" +
	"3 1 200 1\n" +
	"6 0 300 -1\n"

// EmpiricalStream must replay the recorded gaps and classes exactly and,
// on a seekable reader, cycle the trace like Replay: wrap gap = first
// arrival time.
func TestEmpiricalStreamReplaysAndCycles(t *testing.T) {
	es, err := NewEmpiricalStream(strings.NewReader(streamTestTrace))
	if err != nil {
		t.Fatal(err)
	}
	wantGaps := []float64{1, 2, 3, 1, 2, 3, 1} // cycles after 3 records
	wantClasses := []int{0, 1, 0, 0, 1, 0, 0}
	for i := range wantGaps {
		gap, class := es.Next(nil)
		if gap != wantGaps[i] || class != wantClasses[i] {
			t.Fatalf("draw %d: (%g, %d), want (%g, %d)", i, gap, class, wantGaps[i], wantClasses[i])
		}
	}
	if es.Count() != len(wantGaps) {
		t.Fatalf("count %d, want %d", es.Count(), len(wantGaps))
	}
	// Last exposes the fields the (gap, class) interface cannot carry.
	if last := es.Last(); last.SizeBytes != 100 || last.Home != 0 {
		t.Fatalf("last record %+v, want the first trace record again", last)
	}
}

// nonSeeker hides bytes.Reader's Seek method.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

// A non-seekable reader cannot rewind; drawing past the last record
// must panic, not fabricate arrivals.
func TestEmpiricalStreamNonSeekablePanics(t *testing.T) {
	es, err := NewEmpiricalStream(nonSeeker{strings.NewReader(streamTestTrace)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		es.Next(nil)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("draw past a non-seekable trace did not panic")
		}
	}()
	es.Next(nil)
}

// A malformed record panics at the draw that hits it, naming the line.
func TestEmpiricalStreamMalformedPanics(t *testing.T) {
	in := trace.StreamHeader + "\n1 0 100 0\nbogus line\n"
	es, err := NewEmpiricalStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	es.Next(nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("malformed record did not panic")
		}
		if !strings.Contains(r.(string), "line 3") {
			t.Fatalf("panic %q does not name line 3", r)
		}
	}()
	es.Next(nil)
}

// A trace without a header or without a single record is refused by the
// constructor, not left to panic at the first draw mid-run.
func TestEmpiricalStreamRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"empty input": "",
		"no header":   "garbage\n",
		"no records":  trace.StreamHeader + "\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewEmpiricalStream(strings.NewReader(in)); err == nil {
				t.Fatal("bad trace accepted")
			}
		})
	}
}

// The synthesizer and the streaming replayer agree end to end: a
// synthesized trace replays with the synthesized mean rate and mix.
func TestEmpiricalStreamReplaysSynthesizedTrace(t *testing.T) {
	var buf bytes.Buffer
	const jobs = 5000
	if _, err := trace.Synthesize(&buf, trace.SynthConfig{
		Jobs: jobs, Rates: []float64{9, 1}, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	es, err := NewEmpiricalStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var class0 int
	for i := 0; i < jobs; i++ {
		gap, class := es.Next(nil)
		sum += gap
		if class == 0 {
			class0++
		}
	}
	if mean := sum / jobs; math.Abs(mean-0.1) > 0.01 {
		t.Fatalf("mean gap %g, want 0.1", mean)
	}
	if frac := float64(class0) / jobs; math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("class-0 fraction %g, want 0.9", frac)
	}
}
