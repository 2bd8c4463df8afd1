package main

import (
	"fmt"
	"math"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/kalman"
)

// e2eResult is what one untraced workload run measured.
type e2eResult struct {
	setupS        float64
	readings      int64 // completed by the closed-loop load
	sent          int64 // updates the load transmitted
	elapsed       time.Duration
	cpu           time.Duration
	meter         *meter
	mallocs       uint64
	probe         probeResult
	heapPerSource float64
	attempted     int64
	failed        int64
	checkErr      error
	// layers holds per-layer figures only the live run can see, such as
	// the UDP path's dedup discards; the traced run reports them in
	// place of its replay's figures.
	layers map[string]float64
}

func (r *e2eResult) endToEnd() *report {
	rep := &report{attempted: r.attempted, failed: r.failed, checkErr: r.checkErr}
	rep.add("setup_s", r.setupS, "s")
	rep.add("readings_per_s", median(r.meter.rates), "1/s")
	rep.add("cpu_us_per_reading", median(r.meter.cpuUs), "us")
	rep.add("send_ratio", float64(r.sent)/float64(r.readings), "ratio")
	rep.add("heap_bytes_per_source", r.heapPerSource, "B")
	rep.add("ok_ratio", 1-float64(r.failed)/float64(r.attempted), "ratio")
	return rep
}

// describe prints the run's context lines: sample counts, how late the
// open-loop generator ran, and the failure breakdown.
func (r *e2eResult) describe() {
	fmt.Printf("load: %d readings, %d sent, %.3fs, cpu %.3fs, %d mallocs, %d intervals\n",
		r.readings, r.sent, r.elapsed.Seconds(), r.cpu.Seconds(), r.mallocs, len(r.meter.rates))
	fmt.Printf("probe: %d samples at %.0f/s, %d failed, p50 %.1fus p90 %.1fus, generator late p50 %.1fus p90 %.1fus\n",
		r.probe.samples, r.probe.rate, r.probe.failed, r.probe.p50, r.probe.p90, r.probe.lateP50, r.probe.lateP90)
	fmt.Printf("operations: %d attempted, %d failed\n", r.attempted, r.failed)
}

// probeResult holds an open-loop probe's latencies, each timed from
// the moment the call was due.
type probeResult struct {
	rate      float64
	latUs     []float64
	lateUs    []float64 // how far behind schedule each call started
	attempted int64
	failed    int64

	// Filled by summarize, which releases the samples.
	samples          int
	p50, p90         float64
	lateP50, lateP90 float64
}

// summarize reduces the samples to their quantiles and drops them, so
// that they do not count in the live heap measured afterwards.
func (p *probeResult) summarize() {
	p.samples = len(p.latUs)
	p.p50, p.p90 = quantile(p.latUs, 0.5), quantile(p.latUs, 0.9)
	p.lateP50, p.lateP90 = quantile(p.lateUs, 0.5), quantile(p.lateUs, 0.9)
	p.latUs, p.lateUs = nil, nil
}

// openLoop calls op at a fixed rate until stop closes, and returns the
// probe's timings once it has stopped. A call that overruns its slot
// delays the next ones; timing from the due time charges that wait to
// the later calls, as an independent user would see it.
func openLoop(rate float64, stop <-chan struct{}, op func() error) probeResult {
	res := probeResult{rate: rate}
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return res
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return res
			default:
			}
		}
		began := time.Now()
		res.attempted++
		if err := op(); err != nil {
			res.failed++
			continue
		}
		res.latUs = append(res.latUs, float64(time.Since(due).Nanoseconds())/1e3)
		res.lateUs = append(res.lateUs, float64(began.Sub(due).Nanoseconds())/1e3)
	}
}

// meter cuts the measured phase into fixed intervals and records each
// one's throughput and CPU time per reading; the reported figures are
// the medians, so a short stall on a shared machine moves one interval,
// not the result.
type meter struct {
	every   time.Duration
	last    time.Time
	lastCPU time.Duration
	lastN   int64
	rates   []float64 // readings per second
	cpuUs   []float64 // process CPU µs per reading
}

const meterInterval = 250 * time.Millisecond

func newMeter() *meter {
	return &meter{every: meterInterval, last: time.Now(), lastCPU: cpuTime()}
}

// tick closes the current interval if it has run its length, or, when
// final is set, if it has run at least half of it. n is the number of
// readings completed so far.
func (m *meter) tick(n int64, final bool) {
	now := time.Now()
	d := now.Sub(m.last)
	if d < m.every && !(final && d >= m.every/2) {
		return
	}
	cpu := cpuTime()
	if dn := n - m.lastN; dn > 0 {
		m.rates = append(m.rates, float64(dn)/d.Seconds())
		m.cpuUs = append(m.cpuUs, float64((cpu-m.lastCPU).Nanoseconds())/1e3/float64(dn))
	}
	m.last, m.lastCPU, m.lastN = now, cpu, n
}

// closedLoop offers readings from in to agent until the deadline, then
// drains the pipeline so every sent update is applied and acknowledged.
// onSend sees the seq of every transmitted reading.
func closedLoop(agent *dsms.RemoteAgent, in input, seconds float64, m *meter, onSend func(seq int)) (readings, sent int64, err error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		for i := 0; i < 1024; i++ {
			r := in.next()
			ok, err := agent.Offer(r)
			if err != nil {
				return readings, sent, fmt.Errorf("offer seq %d: %w", r.Seq, err)
			}
			readings++
			if ok {
				sent++
				onSend(r.Seq)
			}
		}
		if time.Now().After(deadline) {
			break
		}
		m.tick(readings, false)
	}
	if err := agent.Drain(); err != nil {
		return readings, sent, fmt.Errorf("drain: %w", err)
	}
	m.tick(readings, true)
	return readings, sent, nil
}

// measure runs body as the measured phase, recording wall time, process
// CPU time and allocations around it; body ticks the meter.
func measure(res *e2eResult, body func(m *meter) error) error {
	m0, c0, t0 := mallocs(), cpuTime(), time.Now()
	res.meter = newMeter()
	err := body(res.meter)
	res.elapsed = time.Since(t0)
	res.cpu = cpuTime() - c0
	res.mallocs = mallocs() - m0
	res.probe.summarize()
	return err
}

// refStream is the in-process reference for one TCP stream: a
// core.SourceNode/ServerNode pair fed the same seeded readings as the
// system under test.
type refStream struct {
	readings, sent int
	lastSeq        int
	server         *core.ServerNode
}

// reference replays n readings from in through a fresh SourceNode and
// ServerNode built from cfg. After every reading it asserts that the
// two filters hold bit-identical state and that a suppressed reading is
// within δ of the server's answer. withhold >= 0 drops that transmitted
// update on its way to the reference server: the smoke test's
// perturbation, which the check must catch.
func reference(cfg core.Config, in input, n int64, withhold int) (*refStream, error) {
	src, err := core.NewSourceNode(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServerNode(cfg)
	if err != nil {
		return nil, err
	}
	ref := &refStream{server: srv, lastSeq: -1}
	for i := int64(0); i < n; i++ {
		r := in.next()
		u, est, err := src.Process(r)
		if err != nil {
			return nil, fmt.Errorf("reference process seq %d: %w", r.Seq, err)
		}
		ref.readings++
		ref.lastSeq = r.Seq
		if u != nil {
			if ref.sent != withhold {
				if err := srv.ApplyUpdate(*u); err != nil {
					return nil, fmt.Errorf("reference apply seq %d: %w", r.Seq, err)
				}
			}
			ref.sent++
		} else {
			for k, v := range r.Values {
				if math.Abs(est[k]-v) > cfg.Delta {
					return nil, fmt.Errorf("reference answer %v at seq %d is more than δ=%v from reading %v", est[k], r.Seq, cfg.Delta, v)
				}
			}
		}
		srv.AdvanceTo(r.Seq)
		if srv.Filter() == nil || !kalman.StateEqual(src.Mirror(), srv.Filter()) {
			return nil, fmt.Errorf("reference mirror and server filter differ at seq %d", r.Seq)
		}
	}
	return ref, nil
}

// checkStream compares one TCP stream of the system under test with its
// reference: the exact send count, the server's update count, and the
// final answer bit for bit.
func checkStream(ref *refStream, agentStats core.SourceStats, srv *dsms.Server, queryID, sourceID string) error {
	if agentStats.Readings != ref.readings || agentStats.Updates != ref.sent {
		return fmt.Errorf("%s: agent sent %d of %d readings, reference sent %d of %d",
			sourceID, agentStats.Updates, agentStats.Readings, ref.sent, ref.readings)
	}
	var serverUpdates = -1
	for _, st := range srv.Stats() {
		if st.SourceID == sourceID {
			serverUpdates = st.Updates
		}
	}
	if serverUpdates != agentStats.Updates {
		return fmt.Errorf("%s: server applied %d updates, agent sent %d", sourceID, serverUpdates, agentStats.Updates)
	}
	got, err := srv.Answer(queryID, ref.lastSeq)
	if err != nil {
		return fmt.Errorf("%s: final answer: %w", sourceID, err)
	}
	ref.server.AdvanceTo(ref.lastSeq)
	want, _ := ref.server.Estimate()
	if len(got) != len(want) {
		return fmt.Errorf("%s: final answer has %d values, reference %d", sourceID, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: final answer %v at seq %d, reference %v", sourceID, got, ref.lastSeq, want)
		}
	}
	return nil
}
