// Allocation-budget regression gates for the hot paths pinned by
// BENCH_BASELINE.json: the Kalman predict/correct step must stay
// allocation-free even as instrumentation accretes around it. CI runs
// these as plain tests so a regression fails the build instead of
// silently drifting a benchmark number.
package streamkf_test

import (
	"encoding/json"
	"os"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

func filterStepBudgets(t *testing.T) map[string]int64 {
	t.Helper()
	raw, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse BENCH_BASELINE.json: %v", err)
	}
	out := make(map[string]int64, len(doc.Benchmarks))
	for name, b := range doc.Benchmarks {
		out[name] = b.AllocsPerOp
	}
	return out
}

func TestFilterStepAllocBudget(t *testing.T) {
	budgets := filterStepBudgets(t)
	cases := []struct {
		name string
		m    model.Model
		z    []float64
	}{
		{"BenchmarkFilterStep/scalar", model.Constant(1, 0.05, 0.05), []float64{1.5}},
		{"BenchmarkFilterStep/smoothing", model.Smoothing(1e-3, 1), []float64{1.5}},
		{"BenchmarkFilterStep/linear1d", model.Linear(1, 1, 0.05, 0.05), []float64{1.5}},
		{"BenchmarkFilterStep/linear2d", model.Linear(2, 0.1, 0.05, 0.05), []float64{1.5, -0.5}},
	}
	for _, tc := range cases {
		budget, ok := budgets[tc.name]
		if !ok {
			t.Fatalf("BENCH_BASELINE.json has no %s entry", tc.name)
		}
		f, err := tc.m.NewFilter(tc.z)
		if err != nil {
			t.Fatal(err)
		}
		z := mat.Vec(tc.z...)
		// Warm up so one-time lazy allocations do not count.
		for i := 0; i < 3; i++ {
			if err := f.Step(z); err != nil {
				t.Fatal(err)
			}
		}
		got := int64(testing.AllocsPerRun(200, func() {
			if err := f.Step(z); err != nil {
				t.Fatal(err)
			}
		}))
		if got > budget {
			t.Errorf("%s allocates %d/op, budget %d/op (BENCH_BASELINE.json)", tc.name, got, budget)
		}
	}
}

// sourceProcessAllocs measures the steady-state suppressed-path
// allocation cost of SourceNode.Process, optionally with a flight
// recorder attached.
func sourceProcessAllocs(t *testing.T, traced bool) float64 {
	t.Helper()
	node, err := core.NewSourceNode(core.Config{
		SourceID: "s1",
		Model:    model.Linear(1, 1, 0.05, 0.05),
		Delta:    1e9, // everything after bootstrap is suppressed
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		node.SetTrace(trace.New(trace.Options{}))
	}
	r := stream.Reading{Values: []float64{1}}
	seq := 0
	offer := func() {
		r.Seq = seq
		r.Time = float64(seq)
		r.Values[0] = float64(seq)
		seq++
		u, _, err := node.Process(r)
		if err != nil {
			t.Fatal(err)
		}
		if u != nil && seq > 1 {
			t.Fatalf("reading %d transmitted under δ=1e9", seq-1)
		}
	}
	// Bootstrap plus warm-up so lazy one-time allocations do not count.
	for i := 0; i < 5; i++ {
		offer()
	}
	return testing.AllocsPerRun(200, offer)
}

// TestSourceProcessTraceAllocBudget pins the tracing zero-cost
// contract at the source. The suppressed path's only allocation is the
// VecSlice copy of the returned estimate (pre-tracing baseline);
// attaching a recorder — which logs predict and decision events for
// every suppressed reading — must not add a single allocation on top.
func TestSourceProcessTraceAllocBudget(t *testing.T) {
	base := sourceProcessAllocs(t, false)
	if base > 1 {
		t.Errorf("untraced suppressed Process allocates %v/op, want <= 1 (estimate copy)", base)
	}
	if got := sourceProcessAllocs(t, true); got != base {
		t.Errorf("traced suppressed Process allocates %v/op, untraced %v/op — tracing must be free", got, base)
	}
}
