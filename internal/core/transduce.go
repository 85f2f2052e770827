package core

// Transduction over the Figure 5 decomposition. A transducer plan
// (CompileTransducer) carries a λ table alongside δ; these runners
// replay it chunk-parallel using the same two-phase structure as
// RunChunked: phase 1 is the unchanged enumerative composition fold,
// which resolves every chunk's true start state, and phase 2 (the
// paper's phase 3) re-runs each chunk scalar from that start emitting
// one output per input byte. Because the emission at position i is a
// pure function of (state before i, symbol at i) — Transducer.OutputAt
// — and the fold delivers exactly those states, the parallel replay is
// exact by construction: every lane (single-core, multicore,
// speculative-after-verification) produces the byte-identical output
// tape the sequential machine would.

import (
	"fmt"
	"sort"
	"sync"

	"dpfsm/internal/fsm"
)

// Span is a maximal run of equal non-OutputNone outputs on the output
// tape: input[Start:End] all emitted Out. Token spans, match spans,
// and field extents all take this shape; gaps (OutputNone) separate
// spans.
type Span struct {
	Start int        `json:"start"`
	End   int        `json:"end"`
	Out   fsm.Output `json:"out"`
}

// transducer returns the plan's output table, or the shared failure
// of transduce calls on acceptor plans.
func (r *Runner) transducer() (*fsm.Transducer, error) {
	if r.out == nil {
		return nil, fmt.Errorf("core: plan %s is an acceptor (no output table); compile with CompileTransducer", r.fingerprint)
	}
	return r.out, nil
}

// TransduceOutputs runs the transducer over input from start and
// returns the full output tape — exactly one output symbol per input
// byte — together with the final state. Multicore runners fill
// disjoint per-chunk slices of the tape concurrently; the result is
// identical to a sequential replay regardless of chunking.
func (r *Runner) TransduceOutputs(input []byte, start fsm.State) ([]fsm.Output, fsm.State, error) {
	t, err := r.transducer()
	if err != nil {
		return nil, 0, err
	}
	tape := make([]fsm.Output, len(input))
	final := r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		q := st
		dst := tape[off : off+len(chunk)]
		for i, b := range chunk {
			dst[i] = t.OutputAt(q, b)
			q = r.d.Next(q, b)
		}
		return q
	})
	return tape, final, nil
}

// TransduceSpans runs the transducer over input from start and returns
// the output tape folded into maximal spans of equal non-OutputNone
// outputs, in input order, plus the final state. The result is
// independent of chunk count — the sequential tape's spans, exactly
// (see SpanCollector).
func (r *Runner) TransduceSpans(input []byte, start fsm.State) ([]Span, fsm.State, error) {
	t, err := r.transducer()
	if err != nil {
		return nil, 0, err
	}
	c := NewSpanCollector(t)
	final := r.RunChunked(input, start, c.Chunk)
	return c.Spans(), final, nil
}

// SpanCollector is the span-scanning replay of a transducer: its Chunk
// method is a ChunkFunc that advances the machine over one chunk,
// folding the emitted outputs into maximal runs on the fly (no
// intermediate tape), and Spans stitches the chunk-local lists. Chunk
// is safe for concurrent calls on distinct chunks, so any executor
// lane — multicore, or speculative after verification — can drive it.
type SpanCollector struct {
	t     *fsm.Transducer
	mu    sync.Mutex
	parts [][]Span
}

// NewSpanCollector returns an empty collector over t.
func NewSpanCollector(t *fsm.Transducer) *SpanCollector {
	return &SpanCollector{t: t}
}

// Chunk scans chunk from st, recording its spans in global
// coordinates, and returns the state after the chunk.
func (c *SpanCollector) Chunk(off int, chunk []byte, st fsm.State) fsm.State {
	var spans []Span
	t := c.t
	d := t.DFA()
	q := st
	cur := fsm.OutputNone
	curStart := 0
	for i, b := range chunk {
		out := t.OutputAt(q, b)
		q = d.Next(q, b)
		if out == cur {
			continue
		}
		if cur != fsm.OutputNone {
			spans = append(spans, Span{Start: off + curStart, End: off + i, Out: cur})
		}
		cur, curStart = out, i
	}
	if cur != fsm.OutputNone {
		spans = append(spans, Span{Start: off + curStart, End: off + len(chunk), Out: cur})
	}
	if len(spans) > 0 {
		c.mu.Lock()
		c.parts = append(c.parts, spans)
		c.mu.Unlock()
	}
	return q
}

// Spans orders the collected chunk-local span lists and glues runs
// that a chunk boundary split: the previous span ends exactly where
// the next starts and both carry the same output. Within a part spans
// are already ordered and maximal, so ordering parts by their first
// span's start is enough.
func (c *SpanCollector) Spans() []Span {
	parts := c.parts
	if len(parts) == 0 {
		return nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0].Start < parts[j][0].Start })
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Span, 0, n)
	for _, p := range parts {
		for _, s := range p {
			if last := len(out) - 1; last >= 0 && out[last].End == s.Start && out[last].Out == s.Out {
				out[last].End = s.End
				continue
			}
			out = append(out, s)
		}
	}
	return out
}
