package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpfsm/internal/fsm"
	"dpfsm/internal/trace"
)

// ctxStrategies is the matrix every cancellation test runs over.
var ctxStrategies = []Strategy{
	Sequential, Base, BaseILP, Convergence, RangeCoalesced, RangeConvergence,
}

// TestExecutorMatrix checks every entry point of the executor against
// the scalar oracle: entry point × {plain, cancellable, traced} context
// × procs {1, 3} × back-end {enumerative under every strategy,
// speculative with a good and a poisoned guess}, for inputs straddling
// the 64 KiB cancellation-block boundary.
func TestExecutorMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.2)
	sizes := []int{0, 1, 100, ctxCheckBytes + 1, 2*ctxCheckBytes + 17}
	inputs := make([][]byte, len(sizes))
	for i, n := range sizes {
		inputs[i] = d.RandomInput(rng, n)
	}
	ctxs := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"plain", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
		{"cancellable", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
		{"traced", func() (context.Context, context.CancelFunc) {
			return trace.NewContext(context.Background(), trace.New()), func() {}
		}},
	}
	type backend struct {
		name  string
		strat Strategy
		spec  bool
		guess func(in []byte) fsm.State
	}
	var backends []backend
	for _, s := range ctxStrategies {
		backends = append(backends, backend{name: s.String(), strat: s})
	}
	good := func(in []byte) fsm.State { return d.Run(in, d.Start()) }
	backends = append(backends,
		backend{name: "spec-good", strat: Sequential, spec: true, guess: good},
		backend{name: "spec-poisoned", strat: Sequential, spec: true,
			guess: func(in []byte) fsm.State { return (good(in) + 1) % fsm.State(d.NumStates()) }},
	)
	// Each entry point returns the final state (and, for first
	// accepting, the position in place of it) under ctx.
	type entry func(r *Runner, b backend, ctx context.Context, in []byte, st fsm.State) (int, error)
	replay := func(off int, chunk []byte, st fsm.State) fsm.State { return d.Run(chunk, st) }
	entries := []struct {
		name string
		run  entry
		want func(in []byte, st fsm.State) int
	}{
		{"final", func(r *Runner, b backend, ctx context.Context, in []byte, st fsm.State) (int, error) {
			if b.spec {
				q, _, err := r.Speculate(ctx, in, st, b.guess(in), nil)
				return int(q), err
			}
			q, err := r.FinalCtx(ctx, in, st)
			return int(q), err
		}, func(in []byte, st fsm.State) int { return int(d.Run(in, st)) }},
		{"chunked", func(r *Runner, b backend, ctx context.Context, in []byte, st fsm.State) (int, error) {
			if b.spec {
				q, _, err := r.Speculate(ctx, in, st, b.guess(in), replay)
				return int(q), err
			}
			q, err := r.RunChunkedCtx(ctx, in, st, replay)
			return int(q), err
		}, func(in []byte, st fsm.State) int { return int(d.Run(in, st)) }},
		{"first-accepting", func(r *Runner, b backend, ctx context.Context, in []byte, st fsm.State) (int, error) {
			if b.spec {
				return -2, nil // enumerative only; skipped below
			}
			return r.FirstAcceptingCtx(ctx, in, st)
		}, func(in []byte, st fsm.State) int { return naiveFirstAccepting(d, in, st) }},
	}
	for _, b := range backends {
		for _, procs := range []int{1, 3} {
			r, err := New(d, WithStrategy(b.strat), WithProcs(procs), WithMinChunk(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if b.spec && e.name == "first-accepting" {
					continue
				}
				for _, c := range ctxs {
					for _, in := range inputs {
						name := fmt.Sprintf("%s/procs=%d/%s/%s/n=%d", b.name, procs, e.name, c.name, len(in))
						ctx, cancel := c.ctx()
						got, err := e.run(r, b, ctx, in, d.Start())
						cancel()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want := e.want(in, d.Start()); got != want {
							t.Errorf("%s: got %d, oracle %d", name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFinalCtxCanceled checks that an already-canceled context stops
// the run before any work and that a mid-run cancel returns promptly
// with ctx.Err().
func TestFinalCtxCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.2)
	input := d.RandomInput(rng, 8<<20)

	for _, procs := range []int{1, 4} {
		r, err := New(d, WithProcs(procs))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.FinalCtx(ctx, input, d.Start()); err != context.Canceled {
			t.Errorf("procs=%d pre-canceled: err=%v", procs, err)
		}

		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel2()
		t0 := time.Now()
		for {
			_, err := r.FinalCtx(ctx2, input, d.Start())
			if err != nil {
				if err != context.DeadlineExceeded {
					t.Errorf("procs=%d: err=%v", procs, err)
				}
				break
			}
			if time.Since(t0) > 5*time.Second {
				t.Fatalf("procs=%d: deadline never fired", procs)
			}
		}
	}
}

// TestAcceptsCtx exercises the accept wrapper on both outcomes.
func TestAcceptsCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := fsm.RandomConverging(rng, 30, 4, 5, 0.3)
	r, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	input := d.RandomInput(rng, 4096)
	want := r.Accepts(input)
	got, err := r.AcceptsCtx(context.Background(), input)
	if err != nil || got != want {
		t.Errorf("AcceptsCtx=(%v,%v) Accepts=%v", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.AcceptsCtx(ctx, input); err != context.Canceled {
		t.Errorf("canceled AcceptsCtx err=%v", err)
	}
}

// TestRunChunkedCtx checks that a canceled context surfaces its error
// from the replaying entry points on both back-ends, single- and
// multicore, and that a cancel lands mid-replay rather than after the
// whole input.
func TestRunChunkedCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := fsm.RandomConverging(rng, 40, 8, 6, 0.2)
	input := d.RandomInput(rng, 64<<10)
	seq := func(off int, chunk []byte, st fsm.State) fsm.State {
		return d.Run(chunk, st)
	}
	for _, procs := range []int{1, 4} {
		r, err := New(d, WithProcs(procs), WithMinChunk(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.RunChunkedCtx(ctx, input, d.Start(), seq); err != context.Canceled {
			t.Errorf("procs=%d: canceled RunChunkedCtx err=%v", procs, err)
		}
		if _, _, err := r.Speculate(ctx, input, d.Start(), 0, seq); err != context.Canceled {
			t.Errorf("procs=%d: canceled Speculate err=%v", procs, err)
		}
		if _, err := r.FirstAcceptingCtx(ctx, input, d.Start()); err != context.Canceled {
			t.Errorf("procs=%d: canceled FirstAcceptingCtx err=%v", procs, err)
		}

		// A replay that cancels its own context after the first block:
		// the executor must stop before replaying the rest.
		ctx2, cancel2 := context.WithCancel(context.Background())
		var replayed int
		_, err = r.RunChunkedCtx(ctx2, d.RandomInput(rng, 1<<20), d.Start(), func(off int, chunk []byte, st fsm.State) fsm.State {
			cancel2()
			replayed += len(chunk) // only chunk 0 replays before the cancel lands
			return d.Run(chunk, st)
		})
		if err != context.Canceled {
			t.Errorf("procs=%d: mid-run cancel err=%v", procs, err)
		}
		if procs == 1 && replayed != ctxCheckBytes {
			t.Errorf("replayed %d bytes after cancel, want one %d-byte block", replayed, ctxCheckBytes)
		}
	}
}
