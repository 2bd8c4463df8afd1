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
	"streamkf/internal/gen"
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

// sourceProcessAllocs measures the steady-state allocation cost of
// SourceNode.Process for model m at precision delta, optionally with a
// flight recorder attached. wantSent says which path every reading
// after the bootstrap must take: a huge δ suppresses them all, a tiny δ
// with a quadratic input transmits them all.
func sourceProcessAllocs(t *testing.T, m model.Model, delta float64, wantSent, traced bool) float64 {
	t.Helper()
	node, err := core.NewSourceNode(core.Config{SourceID: "s1", Model: m, Delta: delta})
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
		r.Values[0] = float64(seq) * float64(seq)
		seq++
		u, est, err := node.Process(r)
		if err != nil {
			t.Fatal(err)
		}
		if seq > 1 && (u != nil) != wantSent {
			t.Fatalf("reading %d: sent=%v under δ=%v, want %v", seq-1, u != nil, delta, wantSent)
		}
		if len(est) != 1 {
			t.Fatalf("reading %d: estimate has %d values", seq-1, len(est))
		}
	}
	// Bootstrap plus warm-up so lazy one-time allocations do not count.
	for i := 0; i < 5; i++ {
		offer()
	}
	return testing.AllocsPerRun(200, offer)
}

// processAllocModels are the one-attribute catalogue shapes the source
// hot path is gated on: the paper's linear ramp model and the constant
// model of the transport benchmarks.
var processAllocModels = []struct {
	name string
	m    model.Model
}{
	{"linear", model.Linear(1, 1, 0.05, 0.05)},
	{"constant", model.Constant(1, 0.05, 0.05)},
}

// TestSourceProcessTraceAllocBudget pins the suppressed path of
// SourceNode.Process at 0 allocs/op, with and without a flight recorder
// that logs predict and decision events for every reading: the
// returned estimate is the node's own buffer, and tracing is free.
func TestSourceProcessTraceAllocBudget(t *testing.T) {
	for _, tc := range processAllocModels {
		for _, traced := range []bool{false, true} {
			if got := sourceProcessAllocs(t, tc.m, 1e9, false, traced); got != 0 {
				t.Errorf("%s: suppressed Process (traced=%v) allocates %v/op, want 0", tc.name, traced, got)
			}
		}
	}
}

// TestSourceProcessSendAllocBudget pins the transmit path at 0
// allocs/op, traced and untraced: the update Process returns is the
// node's own, its Values filled by copy, so a source that sends every
// reading makes no garbage either.
func TestSourceProcessSendAllocBudget(t *testing.T) {
	for _, tc := range processAllocModels {
		for _, traced := range []bool{false, true} {
			if got := sourceProcessAllocs(t, tc.m, 1e-6, true, traced); got != 0 {
				t.Errorf("%s: transmitting Process (traced=%v) allocates %v/op, want 0", tc.name, traced, got)
			}
		}
	}
}

// TestDKFStepAllocBudget gates one full protocol step — source
// decision, transmission, server advance and answer — on the budget
// BENCH_BASELINE.json pins for BenchmarkDKFStepLinear2D. The source
// side allocates nothing; the one allocation left is the copy
// ServerNode.Estimate hands the caller.
func TestDKFStepAllocBudget(t *testing.T) {
	budget, ok := filterStepBudgets(t)["BenchmarkDKFStepLinear2D"]
	if !ok {
		t.Fatal("BENCH_BASELINE.json has no BenchmarkDKFStepLinear2D entry")
	}
	sess, err := core.NewSession(core.Config{SourceID: "s1", Model: model.Linear(2, 0.1, 0.05, 0.05), Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.MovingObject(gen.DefaultMovingObject())
	i := 0
	step := func() {
		r := data[i%len(data)]
		r.Seq = i
		i++
		if _, err := sess.Step(r); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 5; j++ {
		step()
	}
	if got := int64(testing.AllocsPerRun(500, step)); got > budget {
		t.Errorf("DKF step allocates %d/op, budget %d/op (BENCH_BASELINE.json)", got, budget)
	}
	if sess.Metrics().Updates < 2 {
		t.Fatalf("only %d updates over %d steps: the gate never timed a send", sess.Metrics().Updates, i)
	}
}
