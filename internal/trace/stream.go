package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// StreamHeader is the first line of every streamed trace file. It names
// the format and pins its version so readers can reject files from a
// future incompatible revision instead of misparsing them.
const StreamHeader = "#dias-trace v1"

// Rec is one arrival record of a streamed trace: when a job arrives,
// its priority class, how much input it reads, and which federation
// member its data lives on. The streaming layer deliberately carries
// only what an arrival process and a dispatcher need — per-record
// memory is constant, so a million-job trace costs the same RAM as a
// ten-job one.
type Rec struct {
	// At is the arrival time in seconds from trace start; records are
	// nondecreasing in At.
	At float64
	// Class is the priority class index (higher = higher priority).
	Class int
	// SizeBytes is the job's input size hint; 0 means unspecified.
	SizeBytes int64
	// Home is the data-home cluster index; -1 means unspecified.
	Home int
}

// validate rejects records the wire format cannot represent.
func (r Rec) validate() error {
	switch {
	case math.IsNaN(r.At) || math.IsInf(r.At, 0) || r.At < 0:
		return fmt.Errorf("trace: arrival time %g out of range", r.At)
	case r.Class < 0:
		return fmt.Errorf("trace: class %d negative", r.Class)
	case r.SizeBytes < 0:
		return fmt.Errorf("trace: size %d negative", r.SizeBytes)
	case r.Home < -1:
		return fmt.Errorf("trace: home %d below -1", r.Home)
	}
	return nil
}

// StreamWriter writes arrival records incrementally as
// space-separated "at class size home" lines behind a bufio.Writer.
// Memory is O(1) in the record count; call Flush once at the end.
type StreamWriter struct {
	w     *bufio.Writer
	buf   []byte
	count int
	last  float64
}

// NewStreamWriter starts a streamed trace on w by writing the header
// line.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	if w == nil {
		return nil, errors.New("trace: nil writer")
	}
	sw := &StreamWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
	if _, err := sw.w.WriteString(StreamHeader + "\n"); err != nil {
		return nil, err
	}
	return sw, nil
}

// Write appends one record. Records must arrive in nondecreasing time
// order — the same invariant StreamReader enforces on the way back in.
func (sw *StreamWriter) Write(r Rec) error {
	if err := r.validate(); err != nil {
		return err
	}
	if r.At < sw.last {
		return fmt.Errorf("trace: record %d at %g precedes %g", sw.count, r.At, sw.last)
	}
	sw.last = r.At
	b := sw.buf[:0]
	b = strconv.AppendFloat(b, r.At, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Class), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, r.SizeBytes, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Home), 10)
	b = append(b, '\n')
	sw.buf = b[:0]
	if _, err := sw.w.Write(b); err != nil {
		return err
	}
	sw.count++
	return nil
}

// Count returns the number of records written so far.
func (sw *StreamWriter) Count() int { return sw.count }

// Flush drains the buffered tail to the underlying writer.
func (sw *StreamWriter) Flush() error { return sw.w.Flush() }

// StreamReader reads a streamed trace incrementally: one record per
// Next call, O(1) memory at any file length. It validates the header,
// every field, and the nondecreasing-time invariant, reporting
// malformed input with its line number.
type StreamReader struct {
	sc     *bufio.Scanner
	line   int
	last   float64
	headed bool
}

// NewStreamReader wraps r; the header line is checked lazily on the
// first Next, so construction never blocks on input.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	if r == nil {
		return nil, errors.New("trace: nil reader")
	}
	sc := bufio.NewScanner(r)
	// Well-formed lines are tiny, but cap tokens at 1 MiB so a malformed
	// file fails with ErrTooLong instead of truncating silently.
	sc.Buffer(make([]byte, 0, 256), 1<<20)
	return &StreamReader{sc: sc}, nil
}

// Next returns the next record, or io.EOF after the last one. Blank
// lines and #-comments are skipped. Any malformed line is an error
// naming the line number; after an error the reader is not usable.
func (sr *StreamReader) Next() (Rec, error) {
	if !sr.headed {
		line, err := sr.scan()
		if err != nil {
			if err == io.EOF {
				return Rec{}, fmt.Errorf("trace: missing header %q", StreamHeader)
			}
			return Rec{}, err
		}
		if line != StreamHeader {
			return Rec{}, fmt.Errorf("trace: line %d: header %q, want %q", sr.line, line, StreamHeader)
		}
		sr.headed = true
	}
	for {
		line, err := sr.scan()
		if err != nil {
			return Rec{}, err
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := sr.parse(line)
		if err != nil {
			return Rec{}, err
		}
		return rec, nil
	}
}

// scan reads one raw line, tracking the line number.
func (sr *StreamReader) scan() (string, error) {
	if !sr.sc.Scan() {
		if err := sr.sc.Err(); err != nil {
			return "", fmt.Errorf("trace: line %d: %w", sr.line+1, err)
		}
		return "", io.EOF
	}
	sr.line++
	return sr.sc.Text(), nil
}

// parse decodes and validates one record line.
func (sr *StreamReader) parse(line string) (Rec, error) {
	fail := func(err error) (Rec, error) {
		return Rec{}, fmt.Errorf("trace: line %d: %w", sr.line, err)
	}
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return fail(fmt.Errorf("%d fields, want 4 (at class size home)", len(fields)))
	}
	at, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return fail(fmt.Errorf("arrival time %q: %w", fields[0], err))
	}
	class, err := strconv.Atoi(fields[1])
	if err != nil {
		return fail(fmt.Errorf("class %q: %w", fields[1], err))
	}
	size, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return fail(fmt.Errorf("size %q: %w", fields[2], err))
	}
	home, err := strconv.Atoi(fields[3])
	if err != nil {
		return fail(fmt.Errorf("home %q: %w", fields[3], err))
	}
	rec := Rec{At: at, Class: class, SizeBytes: size, Home: home}
	if err := rec.validate(); err != nil {
		return fail(err)
	}
	if at < sr.last {
		return fail(fmt.Errorf("arrival time %g precedes %g", at, sr.last))
	}
	sr.last = at
	return rec, nil
}

// SynthConfig shapes a synthetic streamed trace.
type SynthConfig struct {
	// Jobs is the record count.
	Jobs int
	// Rates are per-class arrival rates in jobs per second (index =
	// class); gaps are exponential at the total rate and each record is
	// marked class k with probability rate_k/total, exactly like
	// workload.PoissonMix.
	Rates []float64
	// Clusters spreads data homes uniformly over [0, Clusters); 0 writes
	// every home as -1 (unspecified).
	Clusters int
	// MeanSizeBytes is the mean input size; 0 writes every size as 0.
	// With SizeCV > 0 sizes are lognormal with that mean and coefficient
	// of variation, otherwise fixed at the mean.
	MeanSizeBytes float64
	SizeCV        float64
	// Seed makes the trace reproducible: same config, same bytes.
	Seed int64
}

// Synthesize streams a deterministic synthetic trace to w and returns
// the number of records written. It holds one record in memory at a
// time, so trace length is bounded by disk, not RAM.
func Synthesize(w io.Writer, cfg SynthConfig) (int, error) {
	if cfg.Jobs <= 0 {
		return 0, fmt.Errorf("trace: synthesize %d jobs", cfg.Jobs)
	}
	// The negated comparisons also reject NaN and ±Inf.
	if cfg.Clusters < 0 || !(cfg.MeanSizeBytes >= 0 && cfg.MeanSizeBytes <= math.MaxFloat64) ||
		!(cfg.SizeCV >= 0 && cfg.SizeCV <= math.MaxFloat64) {
		return 0, fmt.Errorf("trace: synthesize clusters %d size %g cv %g",
			cfg.Clusters, cfg.MeanSizeBytes, cfg.SizeCV)
	}
	var total float64
	for k, r := range cfg.Rates {
		if !(r >= 0 && r <= math.MaxFloat64) {
			return 0, fmt.Errorf("trace: synthesize rate[%d] = %g not a finite nonnegative rate", k, r)
		}
		total += r
	}
	if !(total > 0 && total <= math.MaxFloat64) {
		return 0, fmt.Errorf("trace: synthesize needs a positive finite total rate, got %g", total)
	}
	// Lognormal parameters from mean and CV: sigma^2 = ln(1+CV^2),
	// mu = ln(mean) - sigma^2/2.
	var mu, sigma float64
	if cfg.MeanSizeBytes > 0 && cfg.SizeCV > 0 {
		sigma = math.Sqrt(math.Log(1 + cfg.SizeCV*cfg.SizeCV))
		mu = math.Log(cfg.MeanSizeBytes) - sigma*sigma/2
	}
	sw, err := NewStreamWriter(w)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var t float64
	for i := 0; i < cfg.Jobs; i++ {
		t += rng.ExpFloat64() / total
		class := len(cfg.Rates) - 1
		u := rng.Float64() * total
		var cum float64
		for k, r := range cfg.Rates {
			cum += r
			if u < cum {
				class = k
				break
			}
		}
		var size int64
		if cfg.MeanSizeBytes > 0 {
			if cfg.SizeCV > 0 {
				size = int64(math.Exp(mu + sigma*rng.NormFloat64()))
			} else {
				size = int64(cfg.MeanSizeBytes)
			}
		}
		home := -1
		if cfg.Clusters > 0 {
			home = rng.Intn(cfg.Clusters)
		}
		if err := sw.Write(Rec{At: t, Class: class, SizeBytes: size, Home: home}); err != nil {
			return sw.Count(), err
		}
	}
	return sw.Count(), sw.Flush()
}
