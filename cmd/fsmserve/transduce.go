package main

// POST /v1/transduce: tokenize-as-a-service. The machine must carry an
// output table (registered as a transducer); the response streams
// NDJSON — a header line, one line per emitted span in input order,
// and a trailing summary — so a client can start consuming token spans
// before the tail of a large input has been replayed. Dispatch,
// tracing, and metering match /v1/run: the engine picks the lane
// (single/multicore/speculative, honoring ?strategy= overrides), and
// every lane produces the exact sequential span list.

import (
	"fmt"
	"io"
	"net/http"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/trace"
	"dpfsm/internal/xmltok"
	"encoding/json"
)

// spanFlushEvery bounds how many span lines buffer between flushes:
// small enough that a client sees steady progress on span-dense
// inputs, large enough that flushing is not per-line.
const spanFlushEvery = 256

// registerBuiltinTransducers installs the compiled-in tokenizers as
// transducer machines. A name collision (a patterns file claiming
// "htmltok") leaves the pattern machine in place — explicit
// configuration outranks built-ins.
func (s *server) registerBuiltinTransducers() {
	builtins := []struct {
		name, desc string
		t          *fsm.Transducer
	}{
		{"htmltok", "(builtin HTML tokenizer)", htmltok.NewTransducer()},
		{"xmltok", "(builtin XML tokenizer)", xmltok.NewTransducer()},
	}
	for _, b := range builtins {
		if s.engine.Machine(b.name) != nil {
			continue
		}
		if _, err := s.engine.RegisterTransducer(b.name, b.t, core.WithStrategy(s.strategy)); err != nil {
			s.log.Warn("registering builtin transducer", "machine", b.name, "err", err)
			continue
		}
		s.mu.Lock()
		s.meta[b.name] = machineMeta{pattern: b.desc, source: "builtin"}
		s.order = append(s.order, b.name)
		s.mu.Unlock()
	}
}

// handleTransduce is POST /v1/transduce?machine=NAME[&start=Q][&strategy=S][&trace=1].
func (s *server) handleTransduce(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST an input body to /v1/transduce")
		return
	}
	q := req.URL.Query()
	name, m, ok := s.resolveMachine(w, q.Get("machine"))
	if !ok {
		return
	}
	if m.Transducer() == nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("machine %q is an acceptor (no output table); transduce needs a moore/mealy machine", name))
		return
	}
	input, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.maxBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	job := engine.Job{Machine: name, Input: input}
	if !parseJobQuery(w, q, m, &job) {
		return
	}

	// The request context rides down to the chunk loops, as on /v1/run.
	res := s.engine.Transduce(req.Context(), job)
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	_ = enc.Encode(serverapi.TransduceHeader{Machine: name, Kind: m.Kind().String(), Bytes: res.Bytes})
	for i, sp := range res.Spans {
		_ = enc.Encode(serverapi.TransduceSpan{Start: sp.Start, End: sp.End, Out: int(sp.Out)})
		if flusher != nil && (i+1)%spanFlushEvery == 0 {
			flusher.Flush()
		}
	}
	summary := serverapi.TransduceSummary{
		Spans:           len(res.Spans),
		OutputBytes:     res.OutputBytes,
		Bytes:           res.Bytes,
		Final:           res.Final,
		Accepts:         res.Accepts,
		Lane:            res.Lane,
		Multicore:       res.Multicore,
		Strategy:        res.Strategy,
		SelectionReason: res.Reason,
		DurationNs:      int64(res.Duration),
	}
	if res.Duration > 0 {
		summary.MBPerS = float64(res.Bytes) / res.Duration.Seconds() / 1e6
	}
	if tr := trace.FromContext(req.Context()); tr != nil {
		summary.TraceID = tr.ID()
	}
	_ = enc.Encode(serverapi.TransduceTrailer{Summary: summary})
	if flusher != nil {
		flusher.Flush()
	}
}
