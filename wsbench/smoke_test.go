package main

import (
	"encoding/json"
	"testing"
	"time"
)

// The benchmark's own tests: every workload end to end at a tiny
// scale, and the negative cases the correctness checks must catch.

func tinyPass(t *testing.T, workload, inject string) *outcome {
	t.Helper()
	var all map[string]json.RawMessage
	if err := json.Unmarshal(workloadsJSON, &all); err != nil {
		t.Fatal(err)
	}
	var cfg workloadConfig
	if err := json.Unmarshal(all[workload], &cfg); err != nil {
		t.Fatal(err)
	}
	out, err := runPass(passOptions{name: workload, cfg: cfg, seed: 7, seconds: 2, scale: 0.05,
		inject: inject, workdir: t.TempDir(), drain: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			out := tinyPass(t, w, "")
			if !out.correct() {
				t.Fatalf("failed %d of %d: %v %v", out.failed, out.attempted, out.reasons, out.notes)
			}
			for _, m := range out.e2e {
				if m.value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestCorruptedEchoFails(t *testing.T) {
	for _, w := range []string{"rpc-relay", "async-fanout"} {
		t.Run(w, func(t *testing.T) {
			out := tinyPass(t, w, "corrupt")
			if out.correct() || out.reasons["corrupted echo body"] == 0 {
				t.Fatalf("corrupted echo not caught: failed %d, reasons %v", out.failed, out.reasons)
			}
		})
	}
}

func TestDroppedReplyFails(t *testing.T) {
	out := tinyPass(t, "async-fanout", "drop")
	if out.correct() || out.reasons["missing reply"] == 0 {
		t.Fatalf("dropped reply not caught: failed %d, reasons %v", out.failed, out.reasons)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
