package main

import (
	"fmt"
	"math/rand"

	"dpfsm/internal/analysis"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/speculative"
	"dpfsm/internal/workload"
)

// permMachine builds a deterministic permutation machine; its sizes
// mirror the seed index.
func permMachine(seed int64) *fsm.DFA {
	rng := rand.New(rand.NewSource(seed))
	sizes := map[int64]int{1: 8, 2: 32, 3: 128}
	return fsm.RandomPermutation(rng, sizes[seed], 256, 0.3)
}

// specRunner is the §7 baseline: the executor's speculative back-end
// over a Sequential runner fanning out to procs chunks.
func specRunner(d *fsm.DFA, procs int, warmup []byte) (*speculative.Runner, error) {
	r, err := core.New(d, core.WithStrategy(core.Sequential), core.WithProcs(procs))
	if err != nil {
		return nil, err
	}
	return speculative.New(r, warmup), nil
}

// speculation quantifies the §7 comparison: speculative chunk-start
// guessing versus the enumerative approach, over the regex corpus on
// natural text and on adversarial (non-converging) machines. The
// paper's argument — "the efficacy of a speculative approach is
// difficult to predict … the probability of cascading misspeculations
// increases with the number of processors" — shows up as the spread of
// hit rates and as re-run work growing with chunk count.
func speculation(opt *options) {
	header("§7 — speculative parallelization baseline vs enumerative")
	ms, _ := corpus(opt)
	sample := sampleMachines(ms, opt.sample)
	input := workload.WikiText(opt.seed+40, 1<<20)

	for _, procs := range []int{4, 8, 16} {
		hitBuckets := map[string]int{}
		totalReRun := 0
		for _, d := range sample {
			r, err := specRunner(d, procs, input[:4096])
			if err != nil {
				continue
			}
			_, stats := r.Final(input, d.Start())
			totalReRun += stats.ReRunBytes
			hr := stats.HitRate()
			switch {
			case hr >= 0.999:
				hitBuckets["all hit"]++
			case hr >= 0.5:
				hitBuckets["mostly hit"]++
			case hr > 0:
				hitBuckets["mostly miss"]++
			default:
				hitBuckets["all miss"]++
			}
		}
		fmt.Printf("procs=%-3d  all-hit %3d   mostly-hit %3d   mostly-miss %3d   all-miss %3d   re-run %.1f%% of input\n",
			procs, hitBuckets["all hit"], hitBuckets["mostly hit"], hitBuckets["mostly miss"], hitBuckets["all miss"],
			100*float64(totalReRun)/float64(len(sample)*len(input)))
	}

	// The adversarial side of the §7 argument: on machines whose
	// transition functions are permutations (or on crafted inputs that
	// avoid convergence — Figure 8's tail), the guess is wrong for
	// almost every chunk and the work cascades back to sequential.
	fmt.Println("\nadversarial (permutation) machines:")
	rngMachines := []struct {
		name string
		seed int64
	}{{"perm-8", 1}, {"perm-32", 2}, {"perm-128", 3}}
	for _, spec := range rngMachines {
		d := permMachine(spec.seed)
		r, err := specRunner(d, 8, input[:4096])
		if err != nil {
			continue
		}
		_, stats := r.Final(input, d.Start())
		fmt.Printf("  %-10s hit rate %5.1f%%   re-run %5.1f%% of input\n",
			spec.name, 100*stats.HitRate(),
			100*float64(stats.ReRunBytes)/float64(len(input)))
	}

	// Why speculation misses: most machines converge to >1 active
	// state, so no single guessed state can be right for all inputs.
	multi := 0
	for _, d := range sample {
		if analysis.ActiveStatesAt(d, input[:2000]) > 1 {
			multi++
		}
	}
	fmt.Printf("\n%d/%d machines hold >1 active state after 2000 natural-text symbols —\n", multi, len(sample))
	fmt.Println("on those, speculation depends on luck while enumeration is exact (§7).")
}
