package trace_test

import (
	"bytes"
	"fmt"
	"io"

	"dias/internal/trace"
)

// ExampleStreamWriter writes a trace incrementally and reads it back
// record by record — both directions hold one record in memory, so the
// same loop handles ten jobs or ten million.
func ExampleStreamWriter() {
	var buf bytes.Buffer
	sw, _ := trace.NewStreamWriter(&buf)
	for _, r := range []trace.Rec{
		{At: 0.5, Class: 1, SizeBytes: 1 << 20, Home: 0},
		{At: 2.25, Class: 0, SizeBytes: 4 << 20, Home: -1}, // home unspecified
	} {
		if err := sw.Write(r); err != nil {
			panic(err)
		}
	}
	sw.Flush()
	fmt.Print(buf.String())

	sr, _ := trace.NewStreamReader(&buf)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		fmt.Printf("read: t=%g class=%d\n", rec.At, rec.Class)
	}
	// Output:
	// #dias-trace v1
	// 0.5 1 1048576 0
	// 2.25 0 4194304 -1
	// read: t=0.5 class=1
	// read: t=2.25 class=0
}

// ExampleSynthesize generates a reproducible trace from per-class rates
// — same config, same bytes — sized by disk, not RAM.
func ExampleSynthesize() {
	var a, b bytes.Buffer
	cfg := trace.SynthConfig{
		Jobs:     500,
		Rates:    []float64{9, 1}, // 10 jobs/s total, 9:1 low:high
		Clusters: 4,               // data homes spread over members 0..3
		Seed:     1,
	}
	na, _ := trace.Synthesize(&a, cfg)
	trace.Synthesize(&b, cfg)
	fmt.Printf("wrote %d records, deterministic: %v\n", na, bytes.Equal(a.Bytes(), b.Bytes()))

	sr, _ := trace.NewStreamReader(&a)
	homes := map[int]bool{}
	var last trace.Rec
	n := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		homes[rec.Home] = true
		last = rec
		n++
	}
	fmt.Printf("%d records span %.0fs across %d homes\n", n, last.At, len(homes))
	// Output:
	// wrote 500 records, deterministic: true
	// 500 records span 46s across 4 homes
}
