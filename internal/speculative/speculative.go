// Package speculative implements the speculative parallelization the
// paper positions itself against (§7, citing Luchaup et al. and Klein
// & Wiseman): instead of enumerating all start states for a chunk,
// *guess* one, run the chunk sequentially, and verify the guess
// against the true end state of the previous chunk; on a mismatch,
// re-run the chunk from the correct state. The verification step is
// the degenerate form of the paper's composition vectors — a vector of
// width one, carrying only the guessed entry.
//
// The paper's two criticisms are reproduced here as measurable
// behavior:
//
//  1. efficacy is input-dependent — the guess is only right when the
//     machine converges onto the guessed state, and "the probability
//     of such cascading misspeculations increases with the number of
//     processors"; and
//  2. even when speculation succeeds, per-chunk work is the plain
//     sequential loop, so a single core gains nothing.
//
// The schedule itself is core's chunk executor with its speculative
// summarize back-end (core.Runner.Speculate): chunk 0 runs from the
// true start, chunks 1..P-1 walk from the guess with the scalar table,
// and resolution re-runs every chunk whose guess was wrong. This
// package owns only the guessing policy and the statistics. It backs
// the engine's speculative dispatch lane: the engine updates the guess
// live from the machine's hot-state profile (SetGuess) and runs under a
// cancelable context (FinalCtx).
// Verification is exact either way, so results always match the
// sequential run.
//
// Guessing policy: New seeds the guess with the most frequently
// reached state in a short warmup prefix (a common heuristic in the
// literature); an attached perf profile can override it at any time
// with the machine's observed dominant final state.
package speculative

import (
	"context"
	"sync/atomic"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
)

// Stats reports what speculation did on one input.
type Stats struct {
	Chunks        int
	Misspeculated int // chunks whose guess was wrong and were re-run
	ReRunBytes    int // bytes processed a second time
}

// Runner executes a machine speculatively across chunks. The guess is
// atomic, so a live profiler may retarget it while jobs are running.
type Runner struct {
	r     *core.Runner
	guess atomic.Int64
}

// New builds a speculative runner over r, which supplies the machine,
// the chunk count (its procs), the split floor and the telemetry sink.
// warmup bytes of representative input seed the guess (the state most
// often occupied); an empty warmup guesses the start state.
func New(r *core.Runner, warmup []byte) *Runner {
	d := r.Machine()
	sr := &Runner{r: r}
	guess := d.Start()
	if len(warmup) > 0 {
		counts := make([]int, d.NumStates())
		q := d.Start()
		for _, b := range warmup {
			q = d.Next(q, b)
			counts[q]++
		}
		best := 0
		for s, c := range counts {
			if c > counts[best] {
				best = s
			}
		}
		guess = fsm.State(best)
	}
	sr.guess.Store(int64(guess))
	return sr
}

// Guess reports the state the runner currently speculates chunks
// start in.
func (r *Runner) Guess() fsm.State { return fsm.State(r.guess.Load()) }

// SetGuess retargets the speculated start state. Safe to call while
// runs are in flight: each run snapshots the guess once at entry, so
// its verification always checks the same state its chunks ran from.
func (r *Runner) SetGuess(s fsm.State) { r.guess.Store(int64(s)) }

// Final runs the machine from start over input, speculating chunk
// start states, and returns the exact final state plus speculation
// statistics.
func (r *Runner) Final(input []byte, start fsm.State) (fsm.State, Stats) {
	st, stats, _ := r.RunChunkedCtx(context.Background(), input, start, nil)
	return st, stats
}

// FinalCtx is Final under a context: a canceled run returns ctx's
// error with an undefined state.
func (r *Runner) FinalCtx(ctx context.Context, input []byte, start fsm.State) (fsm.State, Stats, error) {
	return r.RunChunkedCtx(ctx, input, start, nil)
}

// RunChunkedCtx is the speculative analogue of core's RunChunkedCtx: f
// replays every chunk from its verified start state, so the result is
// exact regardless of guess quality. A misspeculated chunk is replayed
// through f during verification (the corrected state is in hand, and
// that replay is the authoritative one), the verified hits in parallel
// afterwards. f nil makes it FinalCtx. f must be safe for concurrent
// calls on distinct chunks.
func (r *Runner) RunChunkedCtx(ctx context.Context, input []byte, start fsm.State, f core.ChunkFunc) (fsm.State, Stats, error) {
	st, cs, err := r.r.Speculate(ctx, input, start, r.Guess(), f)
	return st, Stats{Chunks: cs.Chunks, Misspeculated: cs.Misses, ReRunBytes: cs.ReRunBytes}, err
}

// HitRate reports the fraction of speculated chunks whose guess held.
func (s Stats) HitRate() float64 {
	spec := s.Chunks - 1
	if spec <= 0 {
		return 1
	}
	return float64(spec-s.Misspeculated) / float64(spec)
}
