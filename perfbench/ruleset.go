package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/regex"
	"dpfsm/internal/workload"
)

// Rule-set shape. The seed picks the patterns; the shape is fixed so
// that two seeds cost the same to compile and serve. Left to chance,
// the number of long-counter rules (the Figure 12 tail) swings set-up
// time by 3x between seeds. The fixed mix follows the generator's own
// proportions: one rule in ten is a counter rule, and the extreme tail
// gets one rule.
const (
	numRules    = 200
	numCounters = 19   // counter rules with bounds spread over [64, 400]
	heavyBound  = 1200 // counter bound of the one extreme-tail rule
	poolSize    = 4000 // generated candidates the rule set is drawn from
)

var counterRe = regexp.MustCompile(`\{(\d+),\}$`)

// rule is one served machine plus what the benchmark needs to check it.
type rule struct {
	name    string
	pattern string
	dfa     *fsm.DFA
	plan    *core.Plan
	// witness is a shortest input that drives the machine from its start
	// state into an accepting state. Acceptance is sticky, so planting it
	// in a body (at offset 0 for an anchored rule) makes the body match.
	witness  []byte
	anchored bool
	// compileNs and planNs are what regex.Compile and core.CompilePlan
	// took for this rule in the driver.
	compileNs, planNs int64
}

// ruleSet is the generated rule set.
type ruleSet struct {
	rules   []*rule
	skipped int // generated patterns that failed to compile
}

// genRules draws numRules distinct Snort-shaped patterns from seed and
// compiles each the way fsmserve does. The /i flag is dropped because a
// patterns file cannot express it.
func genRules(seed int64) (*ruleSet, error) {
	var heavy, counters, others []string
	seen := map[string]bool{}
	counterBound := map[string]int{}
	for _, s := range workload.SnortRegexes(seed, poolSize) {
		if seen[s.Pattern] {
			continue
		}
		seen[s.Pattern] = true
		m := counterRe.FindStringSubmatch(s.Pattern)
		if m == nil {
			others = append(others, s.Pattern)
			continue
		}
		n, _ := strconv.Atoi(m[1])
		counterBound[s.Pattern] = n
		if n >= 800 {
			heavy = append(heavy, s.Pattern)
		} else {
			counters = append(counters, s.Pattern)
		}
	}
	// Counter rules nearest to evenly spaced bounds, so the counter
	// rules' state counts barely move between seeds.
	targets := []int{heavyBound}
	for i := 0; i < numCounters; i++ {
		targets = append(targets, 64+(2*i+1)*(400-64)/(2*numCounters))
	}
	rs := &ruleSet{}
	add := func(pattern string) bool {
		t0 := time.Now()
		d, err := regex.Compile(pattern, regex.Options{})
		t1 := time.Now()
		if err != nil {
			rs.skipped++
			return false
		}
		p, err := core.CompilePlan(d)
		if err != nil {
			rs.skipped++
			return false
		}
		rs.rules = append(rs.rules, &rule{
			pattern:   pattern,
			dfa:       d,
			plan:      p,
			witness:   witness(d),
			anchored:  strings.HasPrefix(pattern, "^"),
			compileNs: t1.Sub(t0).Nanoseconds(),
			planNs:    time.Since(t1).Nanoseconds(),
		})
		return true
	}
	for i, target := range targets {
		pool := &counters
		if i == 0 {
			pool = &heavy
		}
		for len(*pool) > 0 {
			best := 0
			for j, p := range *pool {
				if abs(counterBound[p]-target) < abs(counterBound[(*pool)[best]]-target) {
					best = j
				}
			}
			p := (*pool)[best]
			*pool = append((*pool)[:best], (*pool)[best+1:]...)
			if add(p) {
				break
			}
		}
	}
	for _, p := range others {
		if len(rs.rules) == numRules {
			break
		}
		add(p)
	}
	if len(rs.rules) != numRules {
		return nil, fmt.Errorf("seed %d: only %d of %d rules compiled", seed, len(rs.rules), numRules)
	}
	// Interleave the counter rules with the rest, so a batch, whose lines
	// follow the rule order, does not visit all the large tables back to
	// back.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rs.rules), func(i, j int) { rs.rules[i], rs.rules[j] = rs.rules[j], rs.rules[i] })
	for i, r := range rs.rules {
		r.name = fmt.Sprintf("r%03d", i)
	}
	return rs, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// witness returns a shortest input from the start state to an accepting
// state, preferring printable bytes, or nil if no state accepts.
func witness(d *fsm.DFA) []byte {
	var order []byte
	for b := 0x20; b < 0x7f; b++ {
		order = append(order, byte(b))
	}
	for b := 0; b < 256; b++ {
		if b < 0x20 || b >= 0x7f {
			order = append(order, byte(b))
		}
	}
	type step struct {
		prev int32
		sym  byte
	}
	n := d.NumStates()
	from := make([]step, n)
	for i := range from {
		from[i].prev = -2
	}
	start := d.Start()
	from[start].prev = -1
	queue := []fsm.State{start}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if d.Accepting(q) {
			var w []byte
			for s := q; from[s].prev >= 0; s = fsm.State(from[s].prev) {
				w = append(w, from[s].sym)
			}
			for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
				w[i], w[j] = w[j], w[i]
			}
			return w
		}
		for _, a := range order {
			r := d.Next(q, a)
			if from[r].prev == -2 {
				from[r] = step{prev: int32(q), sym: a}
				queue = append(queue, r)
			}
		}
	}
	return nil
}

// patternsFile renders the rule set in fsmserve's NAME=REGEX format.
func (rs *ruleSet) patternsFile() string {
	var sb strings.Builder
	for _, r := range rs.rules {
		fmt.Fprintf(&sb, "%s=%s\n", r.name, r.pattern)
	}
	return sb.String()
}

// shape summarises the rule set: state-count quantiles and table bytes.
type shape struct {
	Rules        int   `json:"rules"`
	Skipped      int   `json:"skipped_patterns"`
	StatesP50    int   `json:"states_p50"`
	StatesP90    int   `json:"states_p90"`
	StatesMax    int   `json:"states_max"`
	TableBytes   int   `json:"table_bytes_total"`
	CompileNs    int64 `json:"regex_compile_ns_total"`
	PlanNs       int64 `json:"plan_compile_ns_total"`
	WitnessFails int   `json:"rules_without_witness"`
}

func (rs *ruleSet) shape() shape {
	sh := shape{Rules: len(rs.rules), Skipped: rs.skipped}
	var states []int
	for _, r := range rs.rules {
		states = append(states, r.dfa.NumStates())
		sh.TableBytes += r.plan.TableBytes()
		sh.CompileNs += r.compileNs
		sh.PlanNs += r.planNs
		if r.witness == nil {
			sh.WitnessFails++
		}
	}
	sort.Ints(states)
	sh.StatesP50 = states[len(states)/2]
	sh.StatesP90 = states[len(states)*9/10]
	sh.StatesMax = states[len(states)-1]
	return sh
}

// byStates returns the rules picked by state count for run-large: n
// rules at evenly spaced ranks from the smallest to the largest.
func (rs *ruleSet) byStates(n int) []*rule {
	sorted := append([]*rule(nil), rs.rules...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].dfa.NumStates() < sorted[j].dfa.NumStates()
	})
	picked := make([]*rule, n)
	for i := range picked {
		picked[i] = sorted[i*(len(sorted)-1)/(n-1)]
	}
	return picked
}
