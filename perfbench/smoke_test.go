package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

// The streamed inputs are the gen package's series, reading for reading.
func TestInputsMatchGen(t *testing.T) {
	const n = 5000
	cases := []struct {
		name string
		in   input
		want []stream.Reading
	}{
		{"ramp", newRampInput(0, 2, 0.3, 42), gen.Ramp(n, 0, 2, 0.3, 42)},
		{"walk", newWalkInput(0, 1, 42), gen.RandomWalk(n, 0, 1, 42)},
	}
	for _, c := range cases {
		for k, w := range c.want {
			r := c.in.next()
			if r.Seq != w.Seq || r.Time != w.Time || math.Float64bits(r.Values[0]) != math.Float64bits(w.Values[0]) {
				t.Fatalf("%s reading %d = %+v, gen gives %+v", c.name, k, r, w)
			}
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 3, seconds: 0.4, trace: traced, workdir: t.TempDir(), withhold: -1}
}

// Every workload runs at tiny size, passes its correctness check, and
// prints exactly the metrics BENCHMARK.json names, each with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			rep, err := runSpec(tinyOptions(t, name, traced), specs[name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.checkErr != nil {
				t.Fatalf("%s trace=%v: correctness check failed: %v", name, traced, rep.checkErr)
			}
			if rep.attempted < 1 {
				t.Fatalf("%s trace=%v: attempted %d operations", name, traced, rep.attempted)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", name, traced, m.name, m.value)
				}
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
			for _, w := range want {
				if unit, ok := got[w.Name]; !ok || unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q (present %v), want %q", name, traced, w.Name, unit, ok, w.Unit)
				}
			}
		}
	}
}

// Withholding one update from the reference makes every workload's
// correctness check fail.
func TestCheckFiresOnPerturbedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		o := tinyOptions(t, name, false)
		o.withhold = 1
		rep, err := runSpec(o, specs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.checkErr == nil {
			t.Errorf("%s: check passed with one update withheld from the reference", name)
		} else {
			t.Logf("%s: check fired: %v", name, rep.checkErr)
		}
	}
}
