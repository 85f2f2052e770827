package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/trace"
)

// The chunk executor: the one implementation of the Figure 5 schedule
// behind every Runner entry point.
//
//  1. Split the input into at most procs chunks of at least minChunk
//     bytes (splitChunks).
//  2. Summarize, in parallel, every chunk whose start state is not
//     known, while chunk 0 — whose start is known — runs alongside.
//  3. Resolve the chunk start states left to right through the
//     summaries (the paper's short sequential phase 2).
//  4. Optionally replay chunks 1..P-1 from their resolved starts
//     through a ChunkFunc (phase 3). Final-state queries skip it: the
//     answer is already determined by phase 2 (§3.4).
//
// A chunk summary is a partial map from the chunk's start state to its
// end state, filled by one of two back-ends:
//
//   - enumerative: all n entries, the plan strategy's composition
//     vector (Figures 3–11);
//   - speculative: one entry, guess → end, walked with the scalar
//     table — the §7 baseline, whose verification step is the
//     width-one case of the composition vector.
//
// Resolution looks up each chunk's true start. A miss, which only a
// speculative summary can produce, re-runs the chunk from the true
// start — through the replay when there is one, so that replay is the
// authoritative one and the chunk is not replayed again in phase 3.
//
// Cancellation is cooperative and chunked: when ctx can be canceled,
// every kernel and replay advances in blocks of ctxCheckBytes and
// polls ctx between blocks, and the first worker to see it fire stops
// its siblings. Folding is exact, not approximate: composition is
// associative, so running block by block from the carried state, or
// gather-merging per-block composition vectors, gives bit-identical
// results to the one-shot loops. The only cost is that the
// convergence strategies restart from the n-wide identity at each
// block boundary; with 64 KiB blocks and machines that converge within
// a few hundred symbols (§5.2) that is well under a percent. A context
// that can never be canceled and carries no trace costs nothing: the
// run takes the same calls as a context-free one.
const ctxCheckBytes = 64 << 10

// ChunkFunc processes one input chunk whose true start state has been
// resolved, and returns the state after the chunk. off is the global
// offset of chunk[0].
type ChunkFunc func(off int, chunk []byte, start fsm.State) fsm.State

// SpecStats reports what the speculative back-end did on one run.
type SpecStats struct {
	Chunks     int // chunks the input was split into
	Misses     int // speculated chunks whose guess was wrong and re-ran
	ReRunBytes int // bytes processed a second time
}

// execMode selects what a run resolves.
type execMode uint8

const (
	modeFinal  execMode = iota // the state after the input; no replay
	modeReplay                 // replay every chunk through f from its resolved start
	modeVector                 // the whole input's composition vector; no start state
)

// job is one execution's parameters.
type job struct {
	input []byte
	start fsm.State
	mode  execMode
	f     ChunkFunc // modeReplay only
	// spec selects the speculative back-end, summarizing from guess.
	spec  bool
	guess fsm.State
}

// summary is a chunk's partial start → end map: the full composition
// vector (enumerative), or the single entry from → to (speculative,
// or any back-end run from a known start).
type summary struct {
	vec      []fsm.State
	from, to fsm.State
}

func (s *summary) lookup(q fsm.State) (fsm.State, bool) {
	if s.vec != nil {
		return s.vec[q], true
	}
	return s.to, q == s.from
}

// splitChunks divides n input bytes into at most p ranges no smaller
// than minChunk, reducing p if necessary. The ranges tile [0, n) in
// order, there is always at least one, and none is empty unless n
// itself is zero.
func splitChunks(n, p, minChunk int) [][2]int {
	if n <= 0 {
		return [][2]int{{0, 0}}
	}
	if minChunk < 1 {
		// A non-positive minimum would divide by zero below.
		minChunk = 1
	}
	p = min(p, n/minChunk, n)
	if p < 1 {
		p = 1
	}
	chunks := make([][2]int, p)
	for i := range chunks {
		chunks[i] = [2]int{i * n / p, (i + 1) * n / p}
	}
	return chunks
}

// useMulticore reports whether an input of n bytes fans out under the
// runner's own split floor.
func (r *Runner) useMulticore(n int) bool {
	return r.procs > 1 && n >= 2*r.minChunk
}

// exec runs one job. It returns the final state, or in modeVector the
// composition vector. On cancellation it returns ctx.Err(); the state
// is then the start state, or on one chunk the state at the last
// completed block boundary.
func (r *Runner) exec(ctx context.Context, x job) (fsm.State, []fsm.State, SpecStats, error) {
	if err := ctxErr(ctx); err != nil {
		return x.start, nil, SpecStats{}, err
	}
	r.noteEntry(len(x.input))
	// The enumerative back-end has nothing to summarize with on a
	// Sequential runner (Figure 1(c) is its whole algorithm), so only
	// speculation and composition vectors fan it out.
	if !r.useMulticore(len(x.input)) || !(x.spec || x.mode == modeVector || r.strategy != Sequential) {
		return r.execOne(ctx, x)
	}
	return r.execChunks(ctx, x, splitChunks(len(x.input), r.procs, r.minChunk))
}

// execOne is the one-chunk path. It starts no goroutine and, untraced,
// allocates nothing beyond what the kernel itself does.
func (r *Runner) execOne(ctx context.Context, x job) (fsm.State, []fsm.State, SpecStats, error) {
	stats := SpecStats{Chunks: 1}
	if x.mode == modeVector {
		return 0, r.compVecSingle(x.input, nil), stats, nil
	}
	if len(x.input) == 0 {
		return x.start, nil, stats, nil
	}
	name := SpanSingle
	if x.mode == modeReplay {
		name = SpanChunked
	}
	var sp *trace.Span
	var rs *runStats
	if ctx != nil {
		_, sp = trace.Start(ctx, name)
	}
	if sp != nil {
		sp.SetAttrs(trace.Str(AttrStrategy, r.strategyName(x)), trace.Int(AttrBytes, int64(len(x.input))))
		if x.mode == modeReplay {
			sp.SetAttrs(trace.Int(AttrChunks, 1))
		} else {
			rs = newRunStats()
		}
	}
	var q fsm.State
	var err error
	if x.mode == modeReplay {
		q, err = fold(ctx, nil, 0, x.input, x.start, x.f)
	} else {
		q, err = fold(ctx, nil, 0, x.input, x.start, func(off int, b []byte, q fsm.State) fsm.State {
			return r.walk(x.spec, b, q, rs, off)
		})
	}
	if rs != nil {
		sp.SetAttrs(rs.attrs()...)
	}
	sp.End()
	return q, nil, stats, err
}

// execChunks is the fan-out path: the four steps of the schedule.
func (r *Runner) execChunks(ctx context.Context, x job, chunks [][2]int) (fsm.State, []fsm.State, SpecStats, error) {
	r.noteMulticore(chunks)
	n := len(chunks)
	stats := SpecStats{Chunks: n}
	tel := r.tel
	var sp *trace.Span
	if ctx != nil && x.mode != modeVector {
		name := SpanMulticore
		if x.mode == modeReplay {
			name = SpanChunked
		}
		_, sp = trace.Start(ctx, name)
		if sp != nil {
			sp.SetAttrs(
				trace.Str(AttrStrategy, r.strategyName(x)),
				trace.Int(AttrBytes, int64(len(x.input))),
				trace.Int(AttrChunks, int64(n)),
			)
			defer sp.End()
		}
	}
	chunk := func(p int) []byte { return x.input[chunks[p][0]:chunks[p][1]] }

	// Steps 1–2. With a replay, chunk 0 runs it straight from the known
	// start, overlapping the other chunks' summaries: this shaves 1/P of
	// the enumerative work, which is what makes the two-pass structure
	// pay even at low core counts. Without one, chunk 0 is summarized
	// from the known start like any other chunk.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var end0 fsm.State
	first := 0
	if x.mode == modeReplay {
		first = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tel != nil {
				defer tel.Phase3Time.Start().Stop()
			}
			csp := chunkSpan(sp, SpanPhase3Chunk0, 0, chunks[0])
			end0, _ = fold(ctx, &stop, 0, chunk(0), x.start, x.f)
			csp.End()
		}()
	}
	sums := make([]summary, n)
	for p := first; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if tel != nil {
				defer tel.Phase1Time.Start().Stop()
			}
			csp := chunkSpan(sp, SpanPhase1Chunk, p, chunks[p])
			var rs *runStats
			if csp != nil {
				rs = newRunStats()
			}
			sums[p] = r.summarize(ctx, &stop, x, p == 0 && x.mode == modeFinal, chunk(p), rs)
			if rs != nil {
				csp.SetAttrs(rs.attrs()...)
			}
			csp.End()
		}(p)
	}
	wg.Wait()
	if err := ctxErr(ctx); err != nil {
		return x.start, nil, stats, err
	}

	// Step 3.
	var p2 *trace.Span
	if sp != nil {
		p2 = sp.Child(SpanPhase2)
	}
	var t2 time.Time
	if tel != nil {
		t2 = time.Now()
	}
	if x.mode == modeVector {
		total := sums[0].vec
		for _, s := range sums[1:] {
			gather.Into(total, total, s.vec)
		}
		if tel != nil {
			tel.Phase2Time.ObserveSince(t2)
			tel.Gathers.Add(int64(n - 1))
			tel.Phase3Skips.Inc()
		}
		return 0, total, stats, nil
	}
	st := x.start
	if x.mode == modeReplay {
		st = end0
	}
	starts := make([]fsm.State, n)
	var replayed []bool
	for p := first; p < n; p++ {
		starts[p] = st
		if end, ok := sums[p].lookup(st); ok {
			st = end
			continue
		}
		stats.Misses++
		stats.ReRunBytes += len(chunk(p))
		var err error
		if x.mode == modeReplay {
			if replayed == nil {
				replayed = make([]bool, n)
			}
			replayed[p] = true
			st, err = fold(ctx, nil, chunks[p][0], chunk(p), st, x.f)
		} else {
			st, err = fold(ctx, nil, 0, chunk(p), st, func(off int, b []byte, q fsm.State) fsm.State {
				return r.walk(true, b, q, nil, off)
			})
		}
		if err != nil {
			p2.End()
			return x.start, nil, stats, err
		}
	}
	if tel != nil {
		tel.Phase2Time.ObserveSince(t2)
	}
	p2.End()
	if x.mode == modeFinal {
		if tel != nil {
			tel.Phase3Skips.Inc()
		}
		return st, nil, stats, nil
	}

	// Step 4.
	for p := 1; p < n; p++ {
		if replayed != nil && replayed[p] {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if tel != nil {
				defer tel.Phase3Time.Start().Stop()
			}
			csp := chunkSpan(sp, SpanPhase3Chunk, p, chunks[p])
			fold(ctx, &stop, chunks[p][0], chunk(p), starts[p], x.f)
			csp.End()
		}(p)
	}
	wg.Wait()
	return st, nil, stats, ctxErr(ctx)
}

// summarize fills one chunk's summary. known marks chunk 0 of a
// final-state query, whose start is the run's own.
func (r *Runner) summarize(ctx context.Context, stop *atomic.Bool, x job, known bool, chunk []byte, rs *runStats) summary {
	if known || x.spec {
		from := x.guess
		if known {
			from = x.start
		}
		to, _ := fold(ctx, stop, 0, chunk, from, func(off int, b []byte, q fsm.State) fsm.State {
			return r.walk(x.spec, b, q, rs, off)
		})
		return summary{from: from, to: to}
	}
	if !polls(ctx) {
		return summary{vec: r.compVecSingle(chunk, rs)}
	}
	var total []fsm.State
	for off := 0; off < len(chunk); off += ctxCheckBytes {
		if halted(ctx, stop) {
			return summary{}
		}
		block := chunk[off:min(off+ctxCheckBytes, len(chunk))]
		var v []fsm.State
		if rs == nil {
			v = r.compVecSingle(block, nil)
		} else {
			brs := newRunStats()
			v = r.compVecSingle(block, brs)
			rs.merge(brs, off)
		}
		if total == nil {
			total = v
			continue
		}
		gather.Into(total, total, v)
		if rs != nil {
			rs.gathers++
		}
		if t := r.tel; t != nil {
			t.Gathers.Inc()
		}
	}
	return summary{vec: total}
}

// walk runs input from the known state q with one start state's
// kernel: the scalar table for the speculative back-end and the
// Sequential strategy, the plan strategy otherwise. rs, when non-nil,
// receives the pass's accounting at offset off.
func (r *Runner) walk(scalar bool, input []byte, q fsm.State, rs *runStats, off int) fsm.State {
	if scalar || r.strategy == Sequential {
		return r.d.RunUnrolled(input, q)
	}
	if rs == nil {
		return r.finalSingle(input, q, nil)
	}
	brs := newRunStats()
	q = r.finalSingle(input, q, brs)
	rs.merge(brs, off)
	return q
}

// strategyName is the strategy attribute of a run's spans.
func (r *Runner) strategyName(x job) string {
	if x.spec {
		return "speculative"
	}
	return r.strategy.String()
}

// polls reports whether ctx can be canceled, i.e. whether runs under
// it advance block by block.
func polls(ctx context.Context) bool { return ctx != nil && ctx.Done() != nil }

func ctxErr(ctx context.Context) error {
	if !polls(ctx) {
		return nil
	}
	return ctx.Err()
}

// halted polls ctx, raising stop for the sibling workers once it has
// fired; a raised stop halts without polling.
func halted(ctx context.Context, stop *atomic.Bool) bool {
	if stop != nil && stop.Load() {
		return true
	}
	if ctx.Err() != nil {
		if stop != nil {
			stop.Store(true)
		}
		return true
	}
	return false
}

// fold advances q over chunk (global offset lo) through step. Under a
// context that can be canceled it calls step once per ctxCheckBytes
// block, in order, polling between blocks; otherwise it calls step
// once.
func fold(ctx context.Context, stop *atomic.Bool, lo int, chunk []byte, q fsm.State, step ChunkFunc) (fsm.State, error) {
	if !polls(ctx) {
		return step(lo, chunk, q), nil
	}
	for off := 0; off < len(chunk); off += ctxCheckBytes {
		if halted(ctx, stop) {
			return q, ctx.Err()
		}
		q = step(lo+off, chunk[off:min(off+ctxCheckBytes, len(chunk))], q)
	}
	return q, nil
}

// chunkSpan opens one chunk's span under parent, or returns nil when
// untraced.
func chunkSpan(parent *trace.Span, name string, p int, ch [2]int) *trace.Span {
	if parent == nil {
		return nil
	}
	sp := parent.Child(name)
	sp.SetAttrs(
		trace.Int(AttrChunk, int64(p)),
		trace.Int(AttrOffset, int64(ch[0])),
		trace.Int(AttrBytes, int64(ch[1]-ch[0])),
	)
	return sp
}

// noteMulticore records one fan-out execution over the given chunks.
func (r *Runner) noteMulticore(chunks [][2]int) {
	if t := r.tel; t != nil {
		t.MulticoreRuns.Inc()
		t.Chunks.Add(int64(len(chunks)))
		for _, ch := range chunks {
			t.ChunkBytes.Observe(int64(ch[1] - ch[0]))
		}
	}
}

// Final returns the state reached from start after consuming input.
func (r *Runner) Final(input []byte, start fsm.State) fsm.State {
	q, _, _, _ := r.exec(context.Background(), job{input: input, start: start})
	return q
}

// FinalCtx is Final with deadline/cancellation support: it returns
// early with ctx.Err() when ctx is canceled, checking between input
// blocks. On error on one chunk the returned state is the state
// reached at the last completed block boundary. If ctx carries a trace
// (trace.NewContext), per-phase spans with the run's convergence and
// shuffle accounting are attached to it.
func (r *Runner) FinalCtx(ctx context.Context, input []byte, start fsm.State) (fsm.State, error) {
	q, _, _, err := r.exec(ctx, job{input: input, start: start})
	return q, err
}

// Accepts reports whether the machine accepts input from its start
// state.
func (r *Runner) Accepts(input []byte) bool {
	return r.d.Accepting(r.Final(input, r.d.Start()))
}

// AcceptsCtx is Accepts with cancellation; ok is meaningless when err
// is non-nil.
func (r *Runner) AcceptsCtx(ctx context.Context, input []byte) (bool, error) {
	final, err := r.FinalCtx(ctx, input, r.d.Start())
	return err == nil && r.d.Accepting(final), err
}

// Run consumes input from start, invoking phi for every symbol with the
// position, symbol, and reached state, and returns the final state.
// When the Runner is multicore, chunks invoke phi concurrently and out
// of order across chunks (the paper's Mealy assumption, §2.1); phi must
// be safe for concurrent use in that case.
func (r *Runner) Run(input []byte, start fsm.State, phi fsm.Phi) fsm.State {
	if phi == nil {
		return r.Final(input, start)
	}
	return r.RunChunked(input, start, func(off int, chunk []byte, st fsm.State) fsm.State {
		return r.runSingle(chunk, off, st, phi)
	})
}

// RunChunked is the Figure 5 decomposition with a caller-supplied
// phase 3: the start state of every chunk is resolved with the
// runner's enumerative strategy, then f runs once per chunk — in
// parallel, so f must be safe for concurrent calls on distinct chunks.
// Clients whose outputs depend on *transitions* rather than reached
// states (Huffman decoding emits the symbols along each edge, §6.2;
// tokenizers emit token boundaries) use this to run their own
// sequential decoder per chunk once the start state is known. Returns
// the final state.
func (r *Runner) RunChunked(input []byte, start fsm.State, f ChunkFunc) fsm.State {
	q, _, _, _ := r.exec(context.Background(), job{input: input, start: start, mode: modeReplay, f: f})
	return q
}

// RunChunkedCtx is RunChunked with deadline/cancellation. Under a
// context that can be canceled, f runs once per 64 KiB block of each
// chunk, in order, with the context polled between blocks. On
// cancellation some chunks may already have run f (in particular
// chunk 0, whose replay overlaps the summaries), so callers must treat
// f's side effects as partial when err is non-nil; the returned state
// is then unspecified. A trace on ctx receives the full Figure 5 span
// decomposition: chunk 0's overlapped phase 3, per-chunk phase-1
// spans, the sequential phase-2 scan, and the phase-3 re-runs.
func (r *Runner) RunChunkedCtx(ctx context.Context, input []byte, start fsm.State, f ChunkFunc) (fsm.State, error) {
	q, _, _, err := r.exec(ctx, job{input: input, start: start, mode: modeReplay, f: f})
	return q, err
}

// CompositionVector returns the composed transition function of the
// whole input: element q is the state reached from start state q. This
// is the quantity phase 1 of the multicore algorithm computes per
// chunk.
func (r *Runner) CompositionVector(input []byte) []fsm.State {
	_, vec, _, _ := r.exec(context.Background(), job{input: input, mode: modeVector})
	return vec
}

// Speculate runs the schedule with the speculative back-end (§7):
// chunks 1..P-1 are walked once from guess with the scalar table, and
// a chunk whose resolved start differs from the guess re-runs from it.
// f nil asks for the final state only; otherwise every chunk is
// replayed through f from its verified start, exactly as in
// RunChunkedCtx. The result is exact whatever the guess; a wrong guess
// costs only the re-run work SpecStats reports.
func (r *Runner) Speculate(ctx context.Context, input []byte, start, guess fsm.State, f ChunkFunc) (fsm.State, SpecStats, error) {
	x := job{input: input, start: start, spec: true, guess: guess}
	if f != nil {
		x.mode, x.f = modeReplay, f
	}
	q, _, stats, err := r.exec(ctx, x)
	return q, stats, err
}

// FirstAccepting returns the earliest position i such that the machine
// is in an accepting state after consuming input[0..i], or -1 if it
// never is. With sticky-accept machines (the regex package's default
// "contains" compilation) this is the end position of the first match
// — what a grep-style tool reports. Multicore runners resolve chunk
// start states enumeratively and scan chunks concurrently; the
// earliest hit wins.
func (r *Runner) FirstAccepting(input []byte, start fsm.State) int {
	pos, _ := r.FirstAcceptingCtx(context.Background(), input, start)
	return pos
}

// FirstAcceptingCtx is FirstAccepting with deadline/cancellation; the
// position is meaningless when err is non-nil.
func (r *Runner) FirstAcceptingCtx(ctx context.Context, input []byte, start fsm.State) (int, error) {
	var mu sync.Mutex
	best := -1
	_, _, _, err := r.exec(ctx, job{input: input, start: start, mode: modeReplay,
		f: func(off int, chunk []byte, st fsm.State) fsm.State {
			mu.Lock()
			skip := best >= 0 && best < off
			mu.Unlock()
			// The last block's end state is the run's final state,
			// which FirstAccepting discards: its scan may stop at the
			// first hit, and a block after a known hit need not run.
			last := off+len(chunk) == len(input)
			if skip {
				if last {
					return st
				}
				return r.d.Run(chunk, st)
			}
			q := st
			for i, b := range chunk {
				q = r.d.Next(q, b)
				if r.d.Accepting(q) {
					mu.Lock()
					if best < 0 || off+i < best {
						best = off + i
					}
					mu.Unlock()
					if last {
						return q
					}
					return r.d.Run(chunk[i+1:], q)
				}
			}
			return q
		}})
	return best, err
}
