package engine

// Transduction through the engine: output-bearing machines register
// like acceptors (same plan cache, same lane runners, same perf
// profile) and Transduce dispatches through the same Engine.run as
// execWait — explicit strategy override, small-input single-core, and
// large-input adaptive/static lane selection including the speculative
// chunk-guessing lane, all under the job's context and timeout. Every lane produces the exact sequential span
// list: the parallel lanes replay chunks from fold- or
// verification-resolved start states (see internal/core/transduce.go).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/trace"
)

// ErrNotTransducer reports a Transduce call on a machine registered
// without an output table.
var ErrNotTransducer = errors.New("engine: machine is an acceptor (no output table)")

// Transducer returns the machine's output table, nil for acceptors.
func (m *Machine) Transducer() *fsm.Transducer { return m.plan.Outputs() }

// Kind classifies the machine: acceptor, moore, or mealy.
func (m *Machine) Kind() fsm.Kind { return m.plan.Kind() }

// RegisterTransducer registers an output-bearing machine under name.
// The compiled plan carries the λ table (its cache key covers λ, so
// transducers over a shared δ never collide with each other or with
// the acceptor plan), and the machine serves both Run — outputs simply
// unused — and Transduce.
func (e *Engine) RegisterTransducer(name string, t *fsm.Transducer, opts ...core.Option) (*Machine, error) {
	if name == "" {
		return nil, errors.New("engine: empty machine name")
	}
	if t == nil {
		return nil, errors.New("engine: nil transducer")
	}
	e.mu.RLock()
	_, dup := e.machines[name]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("engine: duplicate machine %q", name)
	}
	p, hit, err := e.planCache.GetOrCompileTransducer(t, opts...)
	if err != nil {
		return nil, fmt.Errorf("engine: machine %q: %w", name, err)
	}
	return e.registerPlan(name, t.DFA(), p, hit, opts...)
}

// TransduceResult is the outcome of one Transduce job: the dispatch
// record of a Result plus the emitted spans. OutputBytes is the input
// bytes the spans cover — the "useful work" companion to Bytes.
type TransduceResult struct {
	Index       int           `json:"index"`
	Machine     string        `json:"machine"`
	Final       fsm.State     `json:"final_state"`
	Accepts     bool          `json:"accepts"`
	Bytes       int           `json:"bytes"`
	Spans       []core.Span   `json:"spans"`
	OutputBytes int64         `json:"output_bytes"`
	Multicore   bool          `json:"multicore"`
	Lane        string        `json:"lane,omitempty"`
	Strategy    string        `json:"strategy,omitempty"`
	Reason      string        `json:"reason,omitempty"`
	Duration    time.Duration `json:"duration_ns"`
	Err         error         `json:"-"`
}

// Transduce runs job through its machine's output table and returns
// the span list a sequential replay would produce, exactly, whichever
// lane the dispatch policy picks. It executes on the caller's
// goroutine (transduction is a streaming surface, not a batch one) but
// honors the same fan-out gate as queued jobs, so parallel-lane
// transduce cannot oversubscribe the engine.
func (e *Engine) Transduce(ctx context.Context, job Job) (res TransduceResult) {
	res = TransduceResult{Index: 0, Machine: job.Machine, Bytes: len(job.Input)}
	select {
	case <-e.drain:
		res.Err = ErrClosed
		return res
	default:
	}
	var rec *machineRecorderRef
	defer func() {
		e.noteTransduce(&res)
		rec.observe(&res)
	}()

	if ctx == nil {
		ctx = context.Background()
	}
	tr := trace.FromContext(ctx)
	if tr == nil && e.sink != nil {
		tr = trace.New()
		tr.SetName("engine.transduce")
		ctx = trace.NewContext(ctx, tr)
		owned := tr
		defer func() {
			if res.Err != nil {
				owned.SetError(res.Err.Error())
			}
			e.sink.Record(owned)
		}()
	}
	ctx, sp := trace.Start(ctx, SpanTransduce)
	defer sp.End()

	e.mu.RLock()
	name := job.Machine
	if name == "" && len(e.order) > 0 {
		name = e.order[0]
	}
	m := e.machines[name]
	e.mu.RUnlock()
	if sp != nil {
		sp.SetAttrs(
			trace.Str(AttrMachine, name),
			trace.Int(AttrBytes, int64(len(job.Input))),
		)
	}
	if m == nil {
		res.Err = fmt.Errorf("%w: %q", ErrUnknownMachine, job.Machine)
		return res
	}
	res.Machine = name
	rec = &machineRecorderRef{m: m}
	t := m.Transducer()
	if t == nil {
		res.Err = fmt.Errorf("%w: %q", ErrNotTransducer, name)
		return res
	}

	start := m.dfa.Start()
	if job.HasStart {
		if !m.dfa.ValidState(job.Start) {
			res.Err = fmt.Errorf("%w: %d (machine %q has %d states)",
				ErrBadStart, job.Start, name, m.dfa.NumStates())
			return res
		}
		start = job.Start
	}
	// Same dispatch as execWait; the chosen runner already carries the
	// output table because the machine's plan does.
	spans := core.NewSpanCollector(t)
	lr := e.run(ctx, sp, tr, m, job, start, spans.Chunk)
	res.Lane, res.Strategy, res.Reason = lr.lane, lr.strategy, lr.reason
	res.Multicore, res.Duration = lr.multicore, lr.duration
	if res.Err = lr.err; res.Err != nil {
		return res
	}
	res.Final = lr.final
	res.Accepts = m.dfa.Accepting(lr.final)
	res.Spans = spans.Spans()
	for _, s := range res.Spans {
		res.OutputBytes += int64(s.End - s.Start)
	}
	return res
}

// machineRecorderRef defers the perf-profile observation until the
// machine lookup has resolved (mirrors execWait's deferred
// rec.ObserveJob; nil-safe before resolution).
type machineRecorderRef struct{ m *Machine }

func (r *machineRecorderRef) observe(res *TransduceResult) {
	if r == nil || r.m == nil {
		return
	}
	r.m.rec.ObserveJob(res.Lane, res.Bytes, res.Duration, 0, res.Err != nil)
}

// noteTransduce flushes one transduce job's accounting into the shared
// sink: the same job/lane series as acceptor jobs plus the
// transduction throughput counters.
func (e *Engine) noteTransduce(res *TransduceResult) {
	tm := e.tel
	if tm == nil {
		return
	}
	tm.EngineJobs.Inc()
	tm.EngineTransduce.Inc()
	tm.EngineJobBytes.Observe(int64(res.Bytes))
	if res.Duration > 0 {
		tm.EngineJobTime.Observe(int64(res.Duration))
		tm.EngineJobLatency.Observe(int64(res.Duration))
	}
	if res.Err != nil {
		tm.EngineJobErrors.Inc()
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			tm.EngineCanceled.Inc()
		}
		return
	}
	tm.TransduceSpans.Add(int64(len(res.Spans)))
	tm.TransduceOutputBytes.Add(res.OutputBytes)
	switch res.Lane {
	case LaneMulticore:
		tm.EngineMulticore.Inc()
	case LaneSpeculative:
		tm.EngineSpeculative.Inc()
	default:
		tm.EngineSingleCore.Inc()
	}
}
