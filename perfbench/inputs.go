package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"

	"dpfsm/internal/conformance"
	"dpfsm/internal/fsm"
	"dpfsm/internal/serverapi"
	"dpfsm/internal/workload"
)

// Input shape of the two workloads.
const (
	largeBody    = 2 << 20
	largeRules   = 8
	largeBodies  = 5 // bodies cycle against 8 rules: 40 distinct pairs
	largePlanted = 2 // large bodies carrying the witnesses of all 8 rules
	batchPayload = 4 << 10
	batchCount   = 10 // distinct batch payloads, cycled
	batchPlanted = 20 // rules whose witness each batch payload carries
)

// op is one pre-built /v1/run request and its oracle answer.
type op struct {
	rule    *rule
	body    []byte
	final   fsm.State
	accepts bool
}

// batchOp is one pre-encoded /v1/batch request: one payload against
// every rule, with the oracle answer for each line.
type batchOp struct {
	payload []byte
	body    []byte // NDJSON, line i names rules[i]
	want    []expect
}

type expect struct {
	final   fsm.State
	accepts bool
}

func oracle(r *rule, body []byte) expect {
	q := conformance.OracleFinal(r.dfa, body, r.dfa.Start())
	return expect{final: q, accepts: r.dfa.Accepting(q)}
}

// plant copies body with w written into it: at offset 0 for an anchored
// rule, at a random offset otherwise. Bodies shorter than w stay as is.
func plant(rng *rand.Rand, body, w []byte, anchored bool) []byte {
	out := append([]byte(nil), body...)
	if len(w) == 0 || len(w) > len(out) {
		return out
	}
	off := 0
	if !anchored {
		off = rng.Intn(len(out) - len(w) + 1)
	}
	copy(out[off:], w)
	return out
}

// largeOpsFor builds the run-large requests: 2 MiB bodies against the
// rules picked by state count.
func largeOpsFor(seed int64, picked []*rule) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x1a76e))
	stream := workload.HTTPTraffic(seed, largeBody+largeBodies*(largeBody/8))
	bodies := make([][]byte, largeBodies)
	for i := range bodies {
		off := i * largeBody / 8
		bodies[i] = stream[off : off+largeBody : off+largeBody]
		if i < largePlanted {
			for _, r := range picked {
				bodies[i] = plant(rng, bodies[i], r.witness, r.anchored)
			}
		}
	}
	ops := make([]op, len(picked)*largeBodies)
	for k := range ops {
		r, body := picked[k%len(picked)], bodies[k%largeBodies]
		e := oracle(r, body)
		ops[k] = op{rule: r, body: body, final: e.final, accepts: e.accepts}
	}
	return ops
}

// batchOpsFor builds the batch-ruleset requests: one 4 KiB payload per
// batch, scanned against all rules.
func batchOpsFor(seed int64, rs *ruleSet) ([]batchOp, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xba7c4))
	stream := workload.HTTPTraffic(seed+1, 1<<20)
	ops := make([]batchOp, batchCount)
	for i := range ops {
		off := rng.Intn(len(stream) - batchPayload)
		payload := stream[off : off+batchPayload : off+batchPayload]
		for _, j := range rng.Perm(len(rs.rules))[:batchPlanted] {
			r := rs.rules[j]
			payload = plant(rng, payload, r.witness, r.anchored)
		}
		b64 := base64.StdEncoding.EncodeToString(payload)
		var body []byte
		want := make([]expect, len(rs.rules))
		for j, r := range rs.rules {
			// Base64 keeps witness bytes that are not UTF-8 exact.
			line, err := json.Marshal(serverapi.BatchJob{Machine: r.name, InputB64: b64})
			if err != nil {
				return nil, fmt.Errorf("encoding batch line: %w", err)
			}
			body = append(append(body, line...), '\n')
			want[j] = oracle(r, payload)
		}
		ops[i] = batchOp{payload: payload, body: body, want: want}
	}
	return ops, nil
}
