package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dpfsm/internal/fsm"
)

// Multicore runners use tiny chunks so tests actually exercise the
// three-phase path on small inputs.
func multicoreRunner(t testing.TB, d *fsm.DFA, strat Strategy, procs int) *Runner {
	t.Helper()
	return newRunner(t, d, strat, WithProcs(procs), WithMinChunk(16))
}

func TestMulticoreFinalMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, d := range machines(t, rng) {
		for _, strat := range []Strategy{Base, Convergence, RangeCoalesced, RangeConvergence} {
			if (strat == RangeCoalesced || strat == RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			for _, procs := range []int{2, 3, 5} {
				r := multicoreRunner(t, d, strat, procs)
				in := d.RandomInput(rng, 500)
				st := fsm.State(rng.Intn(d.NumStates()))
				if got, want := r.Final(in, st), d.Run(in, st); got != want {
					t.Fatalf("%v procs=%d: %d want %d", strat, procs, got, want)
				}
			}
		}
	}
}

func TestMulticoreRunPhiCompleteAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := fsm.RandomConverging(rng, 50, 8, 6, 0.3)
	in := d.RandomInput(rng, 1000)
	st := d.Start()

	wantStates := d.Trace(in, st)

	for _, strat := range []Strategy{Base, Convergence, RangeCoalesced, RangeConvergence} {
		r := multicoreRunner(t, d, strat, 4)
		var mu sync.Mutex
		got := make([]fsm.State, len(in))
		seen := make([]bool, len(in))
		final := r.Run(in, st, func(pos int, sym byte, q fsm.State) {
			mu.Lock()
			defer mu.Unlock()
			if seen[pos] {
				t.Errorf("duplicate φ for pos %d", pos)
			}
			seen[pos] = true
			got[pos] = q
			if sym != in[pos] {
				t.Errorf("φ pos %d got sym %d want %d", pos, sym, in[pos])
			}
		})
		if final != wantStates[len(in)-1] {
			t.Fatalf("%v: final %d want %d", strat, final, wantStates[len(in)-1])
		}
		for i := range in {
			if !seen[i] {
				t.Fatalf("%v: missing φ at %d", strat, i)
			}
			if got[i] != wantStates[i] {
				t.Fatalf("%v: φ state at %d = %d want %d", strat, i, got[i], wantStates[i])
			}
		}
	}
}

func TestMulticoreCompositionVector(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := fsm.RandomConverging(rng, 30, 4, 5, 0.3)
	in := d.RandomInput(rng, 700)
	r := multicoreRunner(t, d, Convergence, 4)
	vec := r.CompositionVector(in)
	for q := 0; q < d.NumStates(); q++ {
		if want := d.Run(in, fsm.State(q)); vec[q] != want {
			t.Fatalf("vec[%d] = %d want %d", q, vec[q], want)
		}
	}
}

func TestMulticoreFallsBackOnShortInput(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := fsm.RandomConverging(rng, 20, 4, 4, 0.3)
	r := newRunner(t, d, Convergence, WithProcs(8)) // default minChunk 4096
	in := d.RandomInput(rng, 100)                   // too short for multicore
	if r.useMulticore(len(in)) {
		t.Error("short input should not take the multicore path")
	}
	if got, want := r.Final(in, 0), d.Run(in, 0); got != want {
		t.Fatalf("fallback: %d want %d", got, want)
	}
}

func TestSplitChunksCoverInput(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	d := fsm.MustNew(2, 2)
	f := func(nSeed uint16, procs uint8) bool {
		n := int(nSeed)
		p := 1 + int(procs)%16
		r, err := New(d, WithStrategy(Base), WithProcs(p), WithMinChunk(8))
		if err != nil {
			return false
		}
		chunks := splitChunks(n, r.procs, r.minChunk)
		if len(chunks) < 1 {
			return false
		}
		prev := 0
		for _, ch := range chunks {
			if ch[0] != prev || ch[1] < ch[0] {
				return false
			}
			prev = ch[1]
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPhase2Propagation resolves a start state through hand-built
// summaries of both back-ends: an enumerative vector maps every start,
// a speculative entry only the guess it was walked from.
func TestPhase2Propagation(t *testing.T) {
	sums := []summary{
		{vec: []fsm.State{1, 2, 0}},
		{from: 1, to: 2},
	}
	st := fsm.State(0)
	for p := range sums {
		end, ok := sums[p].lookup(st)
		if !ok {
			t.Fatalf("chunk %d: miss on start %d", p, st)
		}
		st = end
	}
	if st != 2 { // vec[0] = 1, then the guess 1 holds and ends in 2
		t.Errorf("resolved final %d, want 2", st)
	}
	if _, ok := sums[1].lookup(0); ok {
		t.Error("speculative summary hit on a start it was not walked from")
	}
}

func TestMulticoreManyProcsFewBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	d := fsm.RandomConverging(rng, 16, 4, 4, 0.3)
	r := newRunner(t, d, Convergence, WithProcs(16), WithMinChunk(1))
	in := d.RandomInput(rng, 37) // more procs than sensible chunks
	st := fsm.State(5)
	if got, want := r.Final(in, st), d.Run(in, st); got != want {
		t.Fatalf("%d want %d", got, want)
	}
	calls := 0
	var mu sync.Mutex
	r.Run(in, st, func(int, byte, fsm.State) { mu.Lock(); calls++; mu.Unlock() })
	if calls != len(in) {
		t.Fatalf("φ calls %d want %d", calls, len(in))
	}
}
