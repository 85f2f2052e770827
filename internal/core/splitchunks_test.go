package core

import (
	"math/rand"
	"testing"
)

// TestSplitChunksTable pins the chunking invariants across the edge
// cases a generator-minded review surfaces: zero-length input, input
// shorter than the worker count, inputs right at the minChunk
// boundaries, and the ordinary large case.
func TestSplitChunksTable(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		procs      int
		minChunk   int
		wantChunks int // 0 = don't pin the count, just the invariants
	}{
		{"zero-input", 0, 4, 1, 1},
		{"negative-input", -3, 4, 1, 1},
		{"one-byte", 1, 4, 1, 1},
		{"shorter-than-workers", 3, 8, 1, 3},
		{"equal-to-workers", 8, 8, 1, 8},
		{"below-min-chunk", 63, 4, 64, 1},
		{"at-min-chunk", 64, 4, 64, 1},
		{"two-min-chunks", 128, 4, 64, 2},
		{"all-procs-engage", 256, 4, 64, 4},
		{"uneven-split", 1000, 3, 64, 3},
		{"single-proc", 1 << 16, 1, 64, 1},
		{"zero-min-chunk-guard", 5, 16, 0, 5},
		{"large", 1 << 20, 8, 4096, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Runner{procs: tc.procs, minChunk: tc.minChunk}
			chunks := splitChunks(tc.n, r.procs, r.minChunk)
			if len(chunks) == 0 {
				t.Fatal("no chunks")
			}
			if tc.wantChunks > 0 && len(chunks) != tc.wantChunks {
				t.Errorf("got %d chunks, want %d: %v", len(chunks), tc.wantChunks, chunks)
			}
			n := tc.n
			if n < 0 {
				n = 0
			}
			pos := 0
			for i, ch := range chunks {
				if ch[0] != pos {
					t.Fatalf("chunk %d starts at %d, want %d: %v", i, ch[0], pos, chunks)
				}
				if ch[1] < ch[0] {
					t.Fatalf("chunk %d inverted: %v", i, ch)
				}
				if n > 0 && ch[1] == ch[0] {
					t.Fatalf("chunk %d empty with %d input bytes: %v", i, n, chunks)
				}
				if tc.minChunk > 0 && len(chunks) > 1 && ch[1]-ch[0] < tc.minChunk {
					t.Fatalf("chunk %d is %d bytes, below minChunk %d: %v", i, ch[1]-ch[0], tc.minChunk, chunks)
				}
				pos = ch[1]
			}
			if pos != n {
				t.Fatalf("chunks cover %d of %d bytes: %v", pos, n, chunks)
			}
		})
	}
}

// TestSplitChunksRandomized sweeps random (n, procs, minChunk) triples
// for the same invariants.
func TestSplitChunksRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	for i := 0; i < trials; i++ {
		n := rng.Intn(1 << 14)
		r := &Runner{procs: 1 + rng.Intn(32), minChunk: rng.Intn(512)}
		chunks := splitChunks(n, r.procs, r.minChunk)
		if len(chunks) == 0 {
			t.Fatalf("n=%d procs=%d minChunk=%d: no chunks", n, r.procs, r.minChunk)
		}
		pos := 0
		for _, ch := range chunks {
			if ch[0] != pos || ch[1] < ch[0] || (n > 0 && ch[1] == ch[0]) {
				t.Fatalf("n=%d procs=%d minChunk=%d: bad chunks %v", n, r.procs, r.minChunk, chunks)
			}
			pos = ch[1]
		}
		if pos != n {
			t.Fatalf("n=%d procs=%d minChunk=%d: cover %d: %v", n, r.procs, r.minChunk, pos, chunks)
		}
	}
}
