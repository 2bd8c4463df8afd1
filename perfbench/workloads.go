package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/cluster"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// spec describes one workload: its stream model and inputs (which the
// traced replay reuses), the layers on its blocking path, and its
// untraced end-to-end run of one segment.
type spec struct {
	name  string
	model string
	delta float64
	probe string // what the open-loop probe times: "answer" or "commit"
	input func(seed int64) input
	path  []layer // the blocking path summed in the traced run's table
	e2e   func(o options, seconds float64) (*e2eResult, error)
	// stress, if set, is a load beyond the workload's own that the traced
	// run adds; its per-layer figures replace the live run's.
	stress func(o options) (map[string]float64, error)
}

// specs maps --workload names to workloads. The e2e runs are attached
// here because they read their own spec.
var specs = map[string]*spec{}

func init() {
	edgeSpec.e2e, routedSpec.e2e, faninSpec.e2e = edgeE2E, routedE2E, faninE2E
	faninSpec.stress = faninStress
	for _, sp := range []*spec{edgeSpec, routedSpec, faninSpec} {
		specs[sp.name] = sp
	}
}

// segmentSeconds is the length of one segment. A run is a series of
// segments, each a fresh topology fed its own seeded stream, and
// reports the median over them: how the scheduler happens to place a
// topology's goroutines on the two CPUs sticks for that topology's
// life, so fresh ones sample it instead of betting the run on one.
const segmentSeconds = 1.0

// segmentSeed is the input seed of segment k of a run seeded with seed.
func segmentSeed(seed int64, k int) int64 { return seed*64 + int64(k) }

// runSpec runs a workload untraced for the whole time (--trace 0), or
// for half of it followed by the traced layer replay (--trace 1).
func runSpec(o options, sp *spec) (*report, error) {
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	n := int(seconds/segmentSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	segs := make([]*e2eResult, 0, n)
	for k := 0; k < n; k++ {
		so := o
		so.seed = segmentSeed(o.seed, k)
		if k > 0 {
			so.withhold = -1
		}
		res, err := sp.e2e(so, seconds/float64(n))
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		res.describe()
		segs = append(segs, res)
	}
	if !o.trace {
		rep := mergeEndToEnd(segs)
		// The probe's latencies and the error ratio are printed for the
		// reader but not reported: see README.md, "Known findings".
		var p50, p90 []float64
		for _, s := range segs {
			p50, p90 = append(p50, s.probe.p50), append(p90, s.probe.p90)
		}
		fmt.Printf("info %s_p50_us %.1f us (median over segments)\n", sp.probe, median(p50))
		fmt.Printf("info %s_p90_us %.1f us (median over segments)\n", sp.probe, median(p90))
		fmt.Printf("info error_ratio %.6g (%d of %d operations failed)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
		return rep, nil
	}
	live := mergeLive(segs)
	if sp.stress != nil {
		so := o
		so.seed, so.withhold = segmentSeed(o.seed, n), -1
		layers, err := sp.stress(so)
		if err != nil {
			return nil, fmt.Errorf("stress: %w", err)
		}
		for k, v := range layers {
			live.layers[k] = v
		}
	}
	return replay(o, sp, seconds, live)
}

// mergeEndToEnd reports each end-to-end metric as its median over the
// segments, with the operations and checks of all of them.
func mergeEndToEnd(segs []*e2eResult) *report {
	rep := &report{}
	values := map[string][]float64{}
	for _, s := range segs {
		r := s.endToEnd()
		for _, m := range r.metrics {
			if values[m.name] == nil {
				rep.metrics = append(rep.metrics, m)
			}
			values[m.name] = append(values[m.name], m.value)
		}
		rep.attempted += r.attempted
		rep.failed += r.failed
		if rep.checkErr == nil {
			rep.checkErr = r.checkErr
		}
	}
	for i := range rep.metrics {
		rep.metrics[i].value = median(values[rep.metrics[i].name])
	}
	return rep
}

// mergeLive sums the segments' counts and times and takes the median of
// their live layer figures, for the traced run's table.
func mergeLive(segs []*e2eResult) *e2eResult {
	out := &e2eResult{layers: map[string]float64{}}
	layers := map[string][]float64{}
	for _, s := range segs {
		out.readings += s.readings
		out.elapsed += s.elapsed
		out.mallocs += s.mallocs
		out.attempted += s.attempted
		out.failed += s.failed
		if out.checkErr == nil {
			out.checkErr = s.checkErr
		}
		for k, v := range s.layers {
			layers[k] = append(layers[k], v)
		}
		layers["probe_p50_us"] = append(layers["probe_p50_us"], s.probe.p50)
		layers["probe_p90_us"] = append(layers["probe_p90_us"], s.probe.p90)
	}
	for k, v := range layers {
		out.layers[k] = median(v)
	}
	return out
}

// The catalog's time step matches the inputs' one-second reading
// interval.
func newCatalog() *dsms.Catalog { return dsms.DefaultCatalog(1) }

func resolveConfig(sourceID, modelName string, delta float64) (core.Config, error) {
	m, err := newCatalog().Resolve(modelName)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{SourceID: sourceID, Model: m, Delta: delta}, nil
}

// warmUp offers readings until the agent has transmitted at least
// `sends` updates, then drains: the filters are bootstrapped and every
// lazy structure is built before the measured phase starts.
func warmUp(agent *dsms.RemoteAgent, in input, sends int, onSend func(seq int)) error {
	for n := 0; n < sends; {
		r := in.next()
		ok, err := agent.Offer(r)
		if err != nil {
			return fmt.Errorf("warm-up offer: %w", err)
		}
		if ok {
			n++
			onSend(r.Seq)
		}
	}
	return agent.Drain()
}

// ---- edge-suppress -------------------------------------------------

const (
	edgeSource = "edge"
	edgeQuery  = "q-edge"
	edgeWindow = 64
	// askRate is the open-loop query rate next to the closed-loop load.
	askRate = 2000.0
)

// edgeSpec is the paper's regime: a predictable ramp under a linear
// model with δ = 1, so about 13.5% of readings are sent and the source
// filter dominates the cost.
var edgeSpec = &spec{
	name:  "edge-suppress",
	model: "linear",
	probe: "answer",
	delta: 1.0,
	input: func(seed int64) input { return newRampInput(0, 2, 0.3, seed) },
	path:  []layer{lCoreProcess, lWireEncode, lWireDecode, lServerApply},
}

type edgeTopo struct {
	srv   *dsms.Server
	ts    *dsms.TCPServer
	agent *dsms.RemoteAgent
	qc    *dsms.QueryClient
}

func buildEdge() (*edgeTopo, error) {
	catalog := newCatalog()
	t := &edgeTopo{srv: dsms.NewServer(catalog)}
	if err := t.srv.Register(stream.Query{ID: edgeQuery, SourceID: edgeSource, Delta: edgeSpec.delta, Model: edgeSpec.model}); err != nil {
		return nil, err
	}
	ts, err := dsms.NewTCPServer(t.srv, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.ts = ts
	go ts.Serve()
	if t.agent, err = dsms.DialSourceOptions(ts.Addr(), edgeSource, catalog, dsms.DialOptions{Window: edgeWindow}); err != nil {
		t.close()
		return nil, err
	}
	if t.qc, err = dsms.DialQuery(ts.Addr()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// closeClients closes the client side, so that the heap measured after
// it is the server's.
func (t *edgeTopo) closeClients() {
	if t.qc != nil {
		t.qc.Close()
		t.qc = nil
	}
	if t.agent != nil {
		t.agent.Close()
		t.agent = nil
	}
}

func (t *edgeTopo) close() {
	t.closeClients()
	t.ts.Close()
}

func edgeE2E(o options, seconds float64) (*e2eResult, error) {
	base := liveHeap()
	top, setupS, err := timeSetup(buildEdge, (*edgeTopo).close)
	if err != nil {
		return nil, err
	}
	defer top.close()
	res := &e2eResult{setupS: setupS}

	// Queries ask at the seq of the update sent edgeWindow sends ago:
	// with at most edgeWindow updates unacknowledged, that update is
	// applied, so the query reads the stream without advancing it past
	// an update still in flight (which the server would then reject).
	var safe atomic.Int64
	var recent [edgeWindow]int
	nsent := 0
	onSend := func(seq int) {
		if nsent >= edgeWindow {
			safe.Store(int64(recent[nsent%edgeWindow]))
		}
		recent[nsent%edgeWindow] = seq
		nsent++
	}
	in := edgeSpec.input(o.seed)
	if err := warmUp(top.agent, in, 2*edgeWindow, onSend); err != nil {
		return nil, err
	}

	err = measure(res, func(m *meter) error {
		stop, done := make(chan struct{}), make(chan probeResult)
		go func() {
			done <- openLoop(askRate, stop, func() error {
				_, err := top.qc.Ask(edgeQuery, int(safe.Load()))
				return err
			})
		}()
		var err error
		res.readings, res.sent, err = closedLoop(top.agent, in, seconds, m, onSend)
		close(stop)
		res.probe = <-done
		return err
	})
	if err != nil {
		return nil, err
	}
	st := top.agent.Stats()
	top.closeClients()
	res.heapPerSource = float64(liveHeap()) - float64(base)

	res.attempted = int64(st.Readings) + res.probe.attempted
	res.failed = res.probe.failed
	cfg, err := resolveConfig(edgeSource, edgeSpec.model, edgeSpec.delta)
	if err != nil {
		return nil, err
	}
	ref, err := reference(cfg, edgeSpec.input(o.seed), int64(st.Readings), o.withhold)
	if err == nil {
		err = checkStream(ref, st, top.srv, edgeQuery, edgeSource)
	}
	res.checkErr = err
	return res, nil
}

// ---- routed-durable ------------------------------------------------

const (
	routedShards = 2
	loadSource   = "load"
	// commitRate is the window-1 probe's open-loop rate.
	commitRate = 1000.0
)

// routedSpec sends every reading (δ = 1e-6 on a random walk) through a
// router to durable shards: transport, hop and log do the work, source
// suppression does none.
var routedSpec = &spec{
	name:  "routed-durable",
	model: "linear",
	probe: "commit",
	delta: 1e-6,
	input: func(seed int64) input { return newWalkInput(0, 1, seed) },
	path:  []layer{lCoreProcess, lWireEncode, lWireDecode, lServerApplyDurable},
}

// probeInput is the probe stream's own seeded random walk.
func probeInput(seed int64) input { return newWalkInput(0, 1, seed^0x5eed) }

type routedTopo struct {
	dirs    []string
	shards  []*dsms.Server
	tss     []*dsms.TCPServer
	router  *cluster.Router
	load    *dsms.RemoteAgent
	probe   *dsms.RemoteAgent
	probeID string
}

func buildRouted(workdir string) (*routedTopo, error) {
	catalog := newCatalog()
	t := &routedTopo{}
	addrs := make([]string, routedShards)
	for i := range addrs {
		dir, err := os.MkdirTemp(workdir, "shard-")
		if err != nil {
			t.close()
			return nil, err
		}
		t.dirs = append(t.dirs, dir)
		s, err := dsms.Open(catalog, dir, dsms.DurabilityOptions{Sync: wal.SyncInterval, CheckpointEvery: 10000})
		if err != nil {
			t.close()
			return nil, err
		}
		s.SetShardInfo(i, 0)
		t.shards = append(t.shards, s)
		ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.tss = append(t.tss, ts)
		go ts.Serve()
		addrs[i] = ts.Addr()
	}
	r, err := cluster.NewRouter("127.0.0.1:0", addrs, cluster.Options{})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = r
	go r.Serve()
	// Place the probe on the other shard than the load, so both shards
	// and both upstream connections carry traffic.
	t.probeID = "probe"
	for i := 1; r.Ring().Owner(t.probeID) == r.Ring().Owner(loadSource); i++ {
		t.probeID = fmt.Sprintf("probe-%d", i)
	}
	for _, id := range []string{loadSource, t.probeID} {
		if err := r.RegisterQuery(stream.Query{ID: "q-" + id, SourceID: id, Delta: routedSpec.delta, Model: routedSpec.model}); err != nil {
			t.close()
			return nil, err
		}
	}
	if t.load, err = dsms.DialSourceOptions(r.Addr(), loadSource, catalog, dsms.DialOptions{Window: 64}); err != nil {
		t.close()
		return nil, err
	}
	if t.probe, err = dsms.DialSourceOptions(r.Addr(), t.probeID, catalog, dsms.DialOptions{Window: 1}); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *routedTopo) closeClients() {
	for _, a := range []*dsms.RemoteAgent{t.load, t.probe} {
		if a != nil {
			a.Close()
		}
	}
	t.load, t.probe = nil, nil
}

func (t *routedTopo) close() {
	t.closeClients()
	if t.router != nil {
		t.router.Close()
	}
	for _, ts := range t.tss {
		ts.Close()
	}
	for _, s := range t.shards {
		s.Close()
	}
	for _, d := range t.dirs {
		os.RemoveAll(d)
	}
}

func routedE2E(o options, seconds float64) (*e2eResult, error) {
	base := liveHeap()
	top, setupS, err := timeSetup(func() (*routedTopo, error) { return buildRouted(o.workdir) }, (*routedTopo).close)
	if err != nil {
		return nil, err
	}
	defer top.close()
	res := &e2eResult{setupS: setupS}

	noop := func(int) {}
	in, pin := routedSpec.input(o.seed), probeInput(o.seed)
	if err := warmUp(top.load, in, 128, noop); err != nil {
		return nil, err
	}
	if err := warmUp(top.probe, pin, 8, noop); err != nil {
		return nil, err
	}

	err = measure(res, func(m *meter) error {
		stop, done := make(chan struct{}), make(chan probeResult)
		go func() {
			// One commit: the update is applied, logged and acked.
			done <- openLoop(commitRate, stop, func() error {
				if _, err := top.probe.Offer(pin.next()); err != nil {
					return err
				}
				return top.probe.Drain()
			})
		}()
		var err error
		res.readings, res.sent, err = closedLoop(top.load, in, seconds, m, noop)
		close(stop)
		res.probe = <-done
		return err
	})
	if err != nil {
		return nil, err
	}
	ls, ps := top.load.Stats(), top.probe.Stats()
	top.closeClients()
	res.heapPerSource = (float64(liveHeap()) - float64(base)) / 2

	res.attempted = int64(ls.Readings) + res.probe.attempted
	res.failed = res.probe.failed
	res.checkErr = routedCheck(o, top, ls, ps)
	return res, nil
}

// routedCheck compares both streams with their references, reading the
// final answers from the shard that owns each stream.
func routedCheck(o options, top *routedTopo, ls, ps core.SourceStats) error {
	streams := []struct {
		id    string
		in    input
		stats core.SourceStats
		hold  int
	}{
		{loadSource, routedSpec.input(o.seed), ls, o.withhold},
		{top.probeID, probeInput(o.seed), ps, -1},
	}
	for _, s := range streams {
		cfg, err := resolveConfig(s.id, routedSpec.model, routedSpec.delta)
		if err != nil {
			return err
		}
		ref, err := reference(cfg, s.in, int64(s.stats.Readings), s.hold)
		if err != nil {
			return err
		}
		owner := top.shards[top.router.Ring().Owner(s.id)]
		if err := checkStream(ref, s.stats, owner, "q-"+s.id, s.id); err != nil {
			return err
		}
	}
	return nil
}

// ---- udp-fanin -----------------------------------------------------

const (
	faninSources = 4096
	// faninRing is the workload's per-(lane, shard) engine ring
	// capacity: a whole round fits in one ring, so a load that keeps at
	// most one round unsettled never asks the engine to shed.
	faninRing = faninSources
	// faninCheck is how many sends pass between backlog samples and, in
	// the stress segment, window checks.
	faninCheck   = 256
	faninAskRate = 1000.0
	// faninStressWindow bounds sent − settled updates in the stress
	// segment: dkf-bench -fanin's window, against default engine rings.
	faninStressWindow = 2048
)

// faninSpec is 4096 simulated sources, each sending every reading,
// MTU-packed through one UDP batcher: the datagram transport, the shard
// engine and server-side apply do the work.
var faninSpec = &spec{
	name:  "udp-fanin",
	model: "constant",
	probe: "answer",
	delta: 1e-6,
	input: func(seed int64) input { return newWalkInput(0, 1, seed) },
	path:  []layer{lUDPSend, lWireDecode, lEngineOffer, lServerApply},
}

type faninTopo struct {
	srv     *dsms.Server
	us      *dsms.UDPServer
	ts      *dsms.TCPServer
	batcher *dsms.UDPBatcher
	qc      *dsms.QueryClient
}

func faninIDs() []string {
	ids := make([]string, faninSources)
	for i := range ids {
		ids[i] = fmt.Sprintf("src-%05d", i)
	}
	return ids
}

func buildFanIn(ids []string, eo dsms.EngineOptions) (*faninTopo, error) {
	t := &faninTopo{srv: dsms.NewServer(newCatalog())}
	for _, id := range ids {
		if err := t.srv.Register(stream.Query{ID: "q-" + id, SourceID: id, Delta: faninSpec.delta, Model: faninSpec.model}); err != nil {
			return nil, err
		}
	}
	us, err := dsms.NewUDPServer(t.srv, "127.0.0.1:0", dsms.UDPServerOptions{Engine: eo})
	if err != nil {
		return nil, err
	}
	t.us = us
	go us.Serve()
	if t.ts, err = dsms.NewTCPServer(t.srv, "127.0.0.1:0"); err != nil {
		t.close()
		return nil, err
	}
	go t.ts.Serve()
	if t.batcher, err = dsms.DialUDPBatcherOpts(us.Addr().String(), dsms.UDPBatcherOptions{}); err != nil {
		t.close()
		return nil, err
	}
	if t.qc, err = dsms.DialQuery(t.ts.Addr()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *faninTopo) closeClients() {
	if t.qc != nil {
		t.qc.Close()
		t.qc = nil
	}
	if t.batcher != nil {
		t.batcher.Close()
		t.batcher = nil
	}
}

func (t *faninTopo) close() {
	t.closeClients()
	if t.ts != nil {
		t.ts.Close()
	}
	t.us.Close()
	if e := t.srv.Engine(); e != nil {
		e.Close()
	}
}

// settled counts updates the engine has finished with: handed to the
// server (applied, or discarded there as duplicates) or shed at a full
// ring.
func settled(e *engine.Engine) uint64 {
	n := e.Applied()
	for _, st := range e.Stats() {
		n += st.Dropped
	}
	return n
}

var errStalled = errors.New("udp-fanin: engine stopped making progress; datagrams were lost")

// waitSettled blocks until the engine has settled `want` updates.
func waitSettled(e *engine.Engine, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for settled(e) < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (%d of %d settled)", errStalled, settled(e), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	e.Quiesce()
	return nil
}

// faninGen streams the simulated sources' readings round-robin: each
// source is a seeded random walk, and round k carries every source's
// reading k (round 0 bootstraps).
type faninGen struct {
	ids  []string
	rng  *rand.Rand
	vals []float64
	src  int
	seq  int
	u    core.Update
}

func newFaninGen(ids []string, seed int64) *faninGen {
	g := &faninGen{ids: ids, rng: rand.New(rand.NewSource(seed)), vals: make([]float64, len(ids))}
	for i := range g.vals {
		g.vals[i] = 100 * g.rng.NormFloat64()
	}
	g.u.Values = make([]float64, 1)
	return g
}

func (g *faninGen) next() *core.Update {
	g.vals[g.src] += g.rng.NormFloat64()
	g.u.SourceID, g.u.Seq, g.u.Time = g.ids[g.src], g.seq, float64(g.seq)
	g.u.Values[0] = g.vals[g.src]
	g.u.Bootstrap = g.seq == 0
	if g.src++; g.src == len(g.ids) {
		g.src, g.seq = 0, g.seq+1
	}
	return &g.u
}

func faninE2E(o options, seconds float64) (*e2eResult, error) {
	return faninRun(o, seconds, true)
}

// faninStress runs one segment as dkf-bench -fanin loads the engine:
// sources overlap rounds and up to faninStressWindow updates are
// unsettled, so the rings can shed and the reader lanes can reorder a
// source's updates, which the server then discards as stale. It reports
// those shares; they are figures of the engine under overload, not
// failed operations of the benchmark.
func faninStress(o options) (map[string]float64, error) {
	res, err := faninRun(o, segmentSeconds, false)
	if err == nil {
		err = res.checkErr
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("stress: shed ratio %.6g, dedup ratio %.6g\n", res.layers["engine.shed_ratio"], res.layers["engine.dedup_ratio"])
	return map[string]float64{
		"engine.shed_ratio":  res.layers["engine.shed_ratio"],
		"engine.dedup_ratio": res.layers["engine.dedup_ratio"],
	}, nil
}

// faninRun is one udp-fanin segment. paced selects the workload's own
// load; otherwise it is faninStress's.
func faninRun(o options, seconds float64, paced bool) (*e2eResult, error) {
	ids := faninIDs()
	base := liveHeap()
	eo := dsms.EngineOptions{RingSize: faninRing}
	if !paced {
		eo = dsms.EngineOptions{}
	}
	top, setupS, err := timeSetup(func() (*faninTopo, error) { return buildFanIn(ids, eo) }, (*faninTopo).close)
	if err != nil {
		return nil, err
	}
	defer top.close()
	res := &e2eResult{setupS: setupS}
	eng := top.srv.Engine()
	gen := newFaninGen(ids, o.seed)

	// Datagrams carry no acks, so the sender flow-controls itself. A
	// round starts only once the previous one has settled, so no source
	// ever has two updates in flight and the reader lanes cannot reorder
	// a source's updates: each source sends its next reading after the
	// server has its last one, as a sensor would. The stress segment
	// instead waits, after every faninCheck sends, until no more than
	// faninStressWindow are unsettled.
	var sent uint64
	var backlog []float64
	sendWindow := func() error {
		if paced && gen.src == 0 {
			if err := top.batcher.Flush(); err != nil {
				return err
			}
			if err := waitSettled(eng, sent, 10*time.Second); err != nil {
				return err
			}
		}
		for i := 0; i < faninCheck; i++ {
			if err := top.batcher.Send(*gen.next()); err != nil {
				return err
			}
			sent++
		}
		backlog = append(backlog, float64(eng.Offered()-eng.Applied()))
		for spin := time.Now(); !paced && settled(eng)+faninStressWindow < sent; {
			if time.Since(spin) > 10*time.Second {
				return errStalled
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	// Warm-up: bootstrap every source and apply one more round, settling
	// each small batch before the next so no bootstrap is shed (a source
	// whose bootstrap is lost never starts streaming).
	for sent < 2*faninSources {
		for i := 0; i < faninCheck; i++ {
			if err := top.batcher.Send(*gen.next()); err != nil {
				return nil, err
			}
			sent++
		}
		if err := top.batcher.Flush(); err != nil {
			return nil, err
		}
		if err := waitSettled(eng, sent, 10*time.Second); err != nil {
			return nil, err
		}
	}
	warm := sent
	backlog = backlog[:0]

	probeQuery := "q-" + ids[int(uint64(o.seed)%faninSources)]
	err = measure(res, func(m *meter) error {
		stop, done := make(chan struct{}), make(chan probeResult)
		go func() {
			// Seq 0 is at or behind every stream, so the query never
			// advances a filter past updates still in flight.
			done <- openLoop(faninAskRate, stop, func() error {
				_, err := top.qc.Ask(probeQuery, 0)
				return err
			})
		}()
		defer func() { close(stop); res.probe = <-done }()
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			if err := sendWindow(); err != nil {
				return err
			}
			m.tick(int64(sent-warm), false)
		}
		if err := top.batcher.Flush(); err != nil {
			return err
		}
		err := waitSettled(eng, sent, 10*time.Second)
		m.tick(int64(sent-warm), true)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.readings = int64(sent - warm)
	res.sent = res.readings
	top.closeClients()
	res.heapPerSource = (float64(liveHeap()) - float64(base)) / faninSources

	z := top.srv.Streamz().Engine
	var applied, dedup, shed int64
	for _, sh := range z.PerShard {
		applied += sh.Applied
		dedup += sh.Dedup
		shed += sh.Dropped
	}
	dropped := z.PreBootstrap + z.UnknownSource + z.Rejected
	res.attempted = int64(sent) + res.probe.attempted
	res.failed = dedup + shed + dropped + res.probe.failed
	fmt.Printf("udp: %d sent, %d applied, %d dedup-discarded, %d shed, %d pre-bootstrap, %d unknown, %d rejected, %d datagrams\n",
		sent, applied, dedup, shed, z.PreBootstrap, z.UnknownSource, z.Rejected, z.DatagramsRx)
	res.layers = map[string]float64{
		"engine.shed_ratio":             float64(shed) / float64(sent),
		"engine.dedup_ratio":            float64(dedup) / float64(sent),
		"engine.backlog_p90":            quantile(backlog, 0.9),
		"dsms.udp.updates_per_datagram": float64(z.FramesRx) / float64(z.DatagramsRx),
	}

	// Every update sent is accounted for exactly once, and the server's
	// per-stream update counters agree with the engine's applies. The
	// smoke test's perturbation withholds one update from the expected
	// count.
	want := int64(sent)
	if o.withhold >= 0 {
		want--
	}
	if got := applied + dedup + shed + dropped; got != want {
		res.checkErr = fmt.Errorf("udp-fanin: applied %d + dedup %d + shed %d + dropped %d = %d, sent %d", applied, dedup, shed, dropped, got, want)
		return res, nil
	}
	var updates int64
	for _, st := range top.srv.Stats() {
		updates += int64(st.Updates)
	}
	if updates != applied {
		res.checkErr = fmt.Errorf("udp-fanin: server counted %d updates, engine applied %d", updates, applied)
	}
	return res, nil
}
