package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dpfsm/internal/fsm"
	"dpfsm/internal/telemetry"
)

// TestSnapshotAgreesWithProfile is the acceptance check for the live
// telemetry layer: on seed-style workloads, the runtime's own shuffle
// accounting must agree with the offline ProfileInput replay to within
// ±10%. The two models are not identical — ProfileInput factors
// eagerly every symbol, the runtime factors on the §5.2 heuristics —
// so exact equality is not expected, but on converging machines both
// collapse to the same per-symbol block counts almost immediately.
func TestSnapshotAgreesWithProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	cases := []struct {
		name     string
		d        *fsm.DFA
		strategy Strategy
		model    func(Profile) float64
	}{
		{"converging-40-conv", fsm.RandomConverging(rng, 40, 6, 5, 0.3), Convergence, Profile.ConvPerSymbol},
		{"converging-200-conv", fsm.RandomConverging(rng, 200, 8, 9, 0.3), Convergence, Profile.ConvPerSymbol},
		{"converging-600-conv16", fsm.RandomConverging(rng, 600, 8, 11, 0.3), Convergence, Profile.ConvPerSymbol},
		{"converging-40-range", fsm.RandomConverging(rng, 40, 6, 5, 0.3), RangeCoalesced, Profile.RangePerSymbol},
		{"converging-200-range", fsm.RandomConverging(rng, 200, 8, 9, 0.3), RangeCoalesced, Profile.RangePerSymbol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.d.RandomInput(rng, 100_000)
			var m telemetry.Metrics
			r := newRunner(t, tc.d, tc.strategy, WithTelemetry(&m))
			r.Final(input, tc.d.Start())

			snap := m.Snapshot()
			if snap.Runs != 1 || snap.Symbols != int64(len(input)) {
				t.Fatalf("entry accounting: %+v", snap)
			}
			want := tc.model(ProfileInput(tc.d, input))
			got := snap.ShufflesPerSymbol
			if want == 0 {
				t.Fatal("profile model returned 0")
			}
			if rel := math.Abs(got-want) / want; rel > 0.10 {
				t.Errorf("shuffles/symbol: live %v vs profile %v (%.1f%% apart, want ≤10%%)",
					got, want, 100*rel)
			}
		})
	}
}

func TestTelemetryRunnerCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	d := fsm.RandomConverging(rng, 64, 6, 5, 0.3)
	input := d.RandomInput(rng, 20_000)
	var m telemetry.Metrics
	r := newRunner(t, d, Convergence, WithTelemetry(&m))
	if r.Telemetry() != &m {
		t.Fatal("Telemetry() should return the attached sink")
	}
	r.Final(input, d.Start())
	snap := m.Snapshot()
	if snap.StrategySelected["convergence"] != 1 {
		t.Errorf("StrategySelected = %v", snap.StrategySelected)
	}
	if snap.StrategyRuns["convergence"] != 1 {
		t.Errorf("StrategyRuns = %v", snap.StrategyRuns)
	}
	if snap.ActiveHighWater != 64 {
		t.Errorf("ActiveHighWater = %d, want 64 (the state count)", snap.ActiveHighWater)
	}
	// RandomConverging machines collapse well under 16 active states.
	if snap.ActiveFinalMax <= 0 || snap.ActiveFinalMax > 16 {
		t.Errorf("ActiveFinalMax = %d, want in (0,16]", snap.ActiveFinalMax)
	}
	if snap.FactorCalls == 0 || snap.FactorWins == 0 || snap.FactorWins > snap.FactorCalls {
		t.Errorf("factor accounting: calls %d wins %d", snap.FactorCalls, snap.FactorWins)
	}
	if snap.Gathers == 0 || snap.Shuffles == 0 {
		t.Errorf("gather accounting: %+v", snap)
	}

	// A second runner sharing the sink accumulates into the same
	// counters under its own strategy label.
	r2 := newRunner(t, d, RangeCoalesced, WithTelemetry(&m))
	r2.Final(input, d.Start())
	snap = m.Snapshot()
	if snap.Runs != 2 || snap.StrategyRuns["range"] != 1 {
		t.Errorf("shared sink: %+v", snap)
	}
}

func TestTelemetryMulticorePhases(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	d := fsm.RandomConverging(rng, 40, 6, 5, 0.3)
	input := d.RandomInput(rng, 400_000)
	var m telemetry.Metrics
	r := newRunner(t, d, Convergence, WithTelemetry(&m), WithProcs(4), WithMinChunk(1<<12))

	// Final-state query: phases 1–2 only, phase 3 skipped (§3.4).
	want := d.Run(input, d.Start())
	if got := r.Final(input, d.Start()); got != want {
		t.Fatalf("Final = %d, want %d", got, want)
	}
	snap := m.Snapshot()
	if snap.MulticoreRuns != 1 || snap.Chunks != 4 {
		t.Fatalf("multicore accounting: %+v", snap)
	}
	if snap.Phase3Skips != 1 {
		t.Errorf("Phase3Skips = %d, want 1", snap.Phase3Skips)
	}
	if snap.Phase1.Count != 4 || snap.Phase1.TotalNs == 0 {
		t.Errorf("phase1 accounting: %+v", snap.Phase1)
	}
	if snap.Phase2.Count != 1 {
		t.Errorf("phase2 accounting: %+v", snap.Phase2)
	}
	if snap.ChunkBytesP50 == 0 {
		t.Errorf("ChunkBytesP50 = 0")
	}

	// φ-bearing run: phase 3 re-runs every chunk (chunk 0's pass runs
	// concurrently with phase 1 but is still phase-3 work).
	var count int
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	r.Run(input, d.Start(), func(pos int, sym byte, q fsm.State) {
		<-mu
		count++
		mu <- struct{}{}
	})
	snap = m.Snapshot()
	if count != len(input) {
		t.Fatalf("phi invoked %d times, want %d", count, len(input))
	}
	if snap.MulticoreRuns != 2 {
		t.Errorf("MulticoreRuns = %d, want 2", snap.MulticoreRuns)
	}
	if snap.Phase3.Count != 4 {
		t.Errorf("phase3 count = %d, want 4 chunks", snap.Phase3.Count)
	}
	if snap.Phase3Skips != 1 {
		t.Errorf("Phase3Skips = %d, want still 1", snap.Phase3Skips)
	}
}

// TestTelemetryCtxPhasesMatchPlain pins that a multicore FinalCtx under
// a cancellable context records the same phase accounting as plain
// Final: one Phase1Time sample per chunk, one Phase2Time sample, one
// Phase3Skip.
func TestTelemetryCtxPhasesMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	d := fsm.RandomConverging(rng, 40, 6, 5, 0.3)
	input := d.RandomInput(rng, 400_000)
	phases := func(run func(r *Runner) fsm.State) telemetry.Snapshot {
		var m telemetry.Metrics
		r := newRunner(t, d, Convergence, WithTelemetry(&m), WithProcs(4), WithMinChunk(1<<12))
		if got, want := run(r), d.Run(input, d.Start()); got != want {
			t.Fatalf("final %d, want %d", got, want)
		}
		return m.Snapshot()
	}
	plain := phases(func(r *Runner) fsm.State { return r.Final(input, d.Start()) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := phases(func(r *Runner) fsm.State {
		q, err := r.FinalCtx(ctx, input, d.Start())
		if err != nil {
			t.Fatal(err)
		}
		return q
	})
	for _, s := range []telemetry.Snapshot{plain, withCtx} {
		if s.Phase1.Count != 4 || s.Phase2.Count != 1 || s.Phase3Skips != 1 {
			t.Errorf("phase1 %d, phase2 %d, phase3 skips %d; want 4, 1, 1",
				s.Phase1.Count, s.Phase2.Count, s.Phase3Skips)
		}
	}
	if plain.Phase1.Count != withCtx.Phase1.Count || plain.Phase2.Count != withCtx.Phase2.Count ||
		plain.Phase3Skips != withCtx.Phase3Skips {
		t.Errorf("ctx phases %+v/%+v/%d, plain %+v/%+v/%d", withCtx.Phase1, withCtx.Phase2, withCtx.Phase3Skips,
			plain.Phase1, plain.Phase2, plain.Phase3Skips)
	}
}

func TestTelemetryStreamCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d := fsm.RandomConverging(rng, 30, 4, 5, 0.3)
	input := d.RandomInput(rng, 10_000)
	var m telemetry.Metrics
	r := newRunner(t, d, Convergence, WithTelemetry(&m))
	s := r.NewStream(nil, 1024)
	s.Write(input)
	s.State()
	snap := m.Snapshot()
	if snap.StreamBytes != int64(len(input)) {
		t.Errorf("StreamBytes = %d, want %d", snap.StreamBytes, len(input))
	}
	// 10_000 bytes in 1024-blocks: 9 full flushes + the tail.
	if snap.StreamBlocks != 10 {
		t.Errorf("StreamBlocks = %d, want 10", snap.StreamBlocks)
	}
}

// TestTelemetryDisabledIsInert pins the zero-overhead contract: no
// sink attached means no counters anywhere, and every path (single,
// multicore, stream, φ) still runs correctly with a nil tel.
func TestTelemetryDisabledIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	d := fsm.RandomConverging(rng, 40, 6, 5, 0.3)
	input := d.RandomInput(rng, 100_000)
	for _, strat := range []Strategy{Base, BaseILP, Convergence, RangeCoalesced, RangeConvergence, Sequential} {
		r := newRunner(t, d, strat, WithProcs(4), WithMinChunk(1<<12))
		if r.Telemetry() != nil {
			t.Fatal("telemetry should default to nil")
		}
		want := d.Run(input, d.Start())
		if got := r.Final(input, d.Start()); got != want {
			t.Fatalf("%v: Final = %d want %d", strat, got, want)
		}
		r.Run(input, d.Start(), func(int, byte, fsm.State) {})
		s := r.NewStream(nil, 4096)
		s.Write(input)
		if got := s.State(); got != want {
			t.Fatalf("%v: stream state = %d want %d", strat, got, want)
		}
	}
}

// TestSplitChunksMinChunkGuard is the regression test for the
// divide-by-zero: a Runner whose minChunk ended up non-positive must
// neither panic nor emit empty chunks.
func TestSplitChunksMinChunkGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	d := fsm.RandomConverging(rng, 10, 3, 3, 0.3)
	r := newRunner(t, d, Convergence, WithProcs(4))

	// New must clamp a degenerate configured value...
	if r.minChunk < 1 {
		t.Fatalf("New left minChunk = %d", r.minChunk)
	}
	// ...and splitChunks must guard even a directly corrupted field.
	r.minChunk = 0
	for _, n := range []int{1, 3, 8, 1000} {
		chunks := splitChunks(n, r.procs, r.minChunk) // would panic before the guard
		if len(chunks) == 0 {
			t.Fatalf("n=%d: no chunks", n)
		}
		pos := 0
		for _, ch := range chunks {
			if ch[0] != pos || ch[1] <= ch[0] {
				t.Fatalf("n=%d: bad chunk %v (chunks %v)", n, ch, chunks)
			}
			pos = ch[1]
		}
		if pos != n {
			t.Fatalf("n=%d: chunks cover %d bytes", n, pos)
		}
	}

	// WithMinChunk ignores non-positive values (documented behaviour):
	// the default must survive.
	r2 := newRunner(t, d, Convergence, WithProcs(2), WithMinChunk(-7))
	if r2.minChunk != defaultMinChunk {
		t.Errorf("WithMinChunk(-7) changed minChunk to %d", r2.minChunk)
	}
	// And a multicore run with a tiny input must stay correct.
	in := d.RandomInput(rng, 64)
	r.minChunk = 1
	if got, want := r.Final(in, d.Start()), d.Run(in, d.Start()); got != want {
		t.Errorf("tiny multicore run: %d want %d", got, want)
	}
}

func TestTelemetryExpvarAndPrometheusEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	d := fsm.RandomConverging(rng, 40, 6, 5, 0.3)
	var m telemetry.Metrics
	r := newRunner(t, d, Auto, WithTelemetry(&m))
	r.Accepts(d.RandomInput(rng, 5000))
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{"dpfsm_runs_total 1", "dpfsm_shuffles_per_symbol"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if !strings.Contains(m.String(), `"shuffles_per_symbol"`) {
		t.Error("expvar JSON missing shuffles_per_symbol")
	}
}
