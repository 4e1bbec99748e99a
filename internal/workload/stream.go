package workload

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"dias/internal/trace"
)

// EmpiricalStream replays a streamed trace (trace.StreamReader format)
// as an arrival process without materializing it: one record is in
// memory at a time, so a million-job trace file drives a run in O(1)
// space. It is the streaming counterpart of Replay — fully
// deterministic, RNG ignored.
//
// When the underlying reader is an io.Seeker (an *os.File, a
// bytes.Reader), the stream cycles like Replay does: on exhaustion it
// rewinds and replays the trace back to back, with the wrap gap equal
// to the first recorded arrival time. A non-seekable stream cannot
// rewind, so drawing past its last record panics — Process.Next has no
// error path, and silently fabricating arrivals would corrupt the
// workload; size the run to the trace (or hand Next a seekable reader)
// instead.
type EmpiricalStream struct {
	src    io.Reader
	seeker io.Seeker
	sr     *trace.StreamReader
	prevAt float64
	count  int
	// first holds the record the constructor read until the first draw
	// takes it.
	first  trace.Rec
	primed bool
}

// NewEmpiricalStream wraps a streamed trace. The header and the first
// record are read here, so an empty, header-less or record-less trace is
// an error up front. Later records are validated lazily as Next consumes
// them; a malformed one panics at the draw that hits it (with its line
// number), because Next has no error path. Validate untrusted traces by
// reading them through trace.StreamReader first.
func NewEmpiricalStream(r io.Reader) (*EmpiricalStream, error) {
	if r == nil {
		return nil, errors.New("workload: nil trace reader")
	}
	sr, err := trace.NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	first, err := sr.Next()
	if err == io.EOF {
		return nil, errors.New("workload: empty trace stream")
	}
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	es := &EmpiricalStream{src: r, sr: sr, first: first, primed: true}
	if s, ok := r.(io.Seeker); ok {
		es.seeker = s
	}
	return es, nil
}

// Next replays the next recorded arrival, ignoring the RNG.
func (e *EmpiricalStream) Next(_ *rand.Rand) (gap float64, class int) {
	rec, err := e.first, error(nil)
	if e.primed {
		e.primed = false
	} else {
		rec, err = e.sr.Next()
	}
	if err == io.EOF {
		if e.seeker == nil {
			panic(fmt.Sprintf(
				"workload: trace exhausted after %d arrivals and the reader cannot rewind", e.count))
		}
		if _, serr := e.seeker.Seek(0, io.SeekStart); serr != nil {
			panic(fmt.Sprintf("workload: rewinding trace: %v", serr))
		}
		e.sr, err = trace.NewStreamReader(e.src)
		if err == nil {
			rec, err = e.sr.Next()
		}
		e.prevAt = 0 // wrap gap = first arrival time, like Replay
	}
	if err != nil {
		panic(fmt.Sprintf("workload: reading trace: %v", err))
	}
	gap = rec.At - e.prevAt
	e.prevAt = rec.At
	e.count++
	return gap, rec.Class
}
