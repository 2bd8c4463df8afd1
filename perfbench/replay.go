package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/cluster"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// layer names a span: one public call into one of the repository's
// modules, timed from the benchmark's side of the call.
type layer uint8

const (
	lReading            layer = iota // root span: one replayed reading
	lKalmanStep                      // kalman.Filter Predict+Correct
	lKalmanPredict                   // kalman.Filter.Predict
	lCoreProcess                     // core.SourceNode.Process
	lTCPOffer                        // dsms.RemoteAgent.Offer
	lWireEncode                      // wire.AppendUpdateFrame
	lWireDecode                      // wire.NextFrame + DecodeUpdateInto
	lCoreApply                       // core.ServerNode.ApplyUpdate
	lServerApply                     // dsms.Server.HandleUpdate, in memory
	lServerApplyDurable              // dsms.Server.HandleUpdate, durable
	lWALAppend                       // wal.Log.Append
	lEngineOffer                     // engine.Producer.Offer
	lUDPSend                         // dsms.UDPBatcher.Send
	nLayers
)

var layerNames = [nLayers]string{
	"reading", "kalman.step", "kalman.predict", "core.process", "dsms.tcp.offer",
	"wire.encode", "wire.decode", "core.apply", "dsms.server.apply",
	"dsms.server.apply_durable", "wal.append", "engine.offer", "dsms.udp.send",
}

// span is one recorded call. id is the replayed reading's index, shared
// by every span of that reading; parent indexes the enclosing span in
// the recorded slice (-1 for a root).
type span struct {
	id         int64
	parent     int32
	name       layer
	start, end int64 // ns since the tracer started
}

type openSpan struct {
	name    layer
	start   int64
	childNs int64
	idx     int32
}

// tracer keeps spans in memory (up to a cap) and every layer's call
// count, total time and self time: a span's duration minus the part its
// child spans cover.
type tracer struct {
	t0     time.Time
	id     int64
	spans  []span
	stack  []openSpan
	calls  [nLayers]int64
	totNs  [nLayers]int64
	selfNs [nLayers]int64
}

// maxSpans caps the spans kept for the span file; counts and times
// keep accumulating past it.
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), stack: make([]openSpan, 0, 4)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(l layer) {
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{id: t.id, parent: parent, name: l})
	}
	t.stack = append(t.stack, openSpan{name: l, idx: idx, start: t.now()})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	end := t.now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - o.start
	t.calls[o.name]++
	t.totNs[o.name] += d
	t.selfNs[o.name] += d - o.childNs
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].start, t.spans[o.idx].end = o.start, end
	}
	return d
}

func (t *tracer) selfMean(l layer) float64 {
	if t.calls[l] == 0 {
		return 0
	}
	return float64(t.selfNs[l]) / float64(t.calls[l])
}

func (t *tracer) totMean(l layer) float64 {
	if t.calls[l] == 0 {
		return 0
	}
	return float64(t.totNs[l]) / float64(t.calls[l])
}

// writeSpans writes the kept spans as CSV.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "reading_id,span,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.id, i, s.parent, layerNames[s.name], s.start, s.end)
	}
	return bw.Flush()
}

// replayRig is every component the replay calls into, each a separate
// instance so that one source's updates reach each layer exactly once.
type replayRig struct {
	cfg     core.Config
	src     *core.SourceNode
	node    *core.ServerNode
	mem     *dsms.Server // HandleUpdate and Answer, in memory
	dur     *dsms.Server // HandleUpdate, durable
	ts      *dsms.TCPServer
	agent   *dsms.RemoteAgent
	log     *wal.Log
	engSrv  *dsms.Server
	udpSrv  *dsms.Server
	us      *dsms.UDPServer
	batcher *dsms.UDPBatcher
	dirs    []string
}

const replaySource = "replay"

func newReplayRig(o options, sp *spec) (*replayRig, error) {
	cfg, err := resolveConfig(replaySource, sp.model, sp.delta)
	if err != nil {
		return nil, err
	}
	g := &replayRig{cfg: cfg}
	fail := func(err error) (*replayRig, error) { g.close(); return nil, err }
	if g.src, err = core.NewSourceNode(cfg); err != nil {
		return fail(err)
	}
	if g.node, err = core.NewServerNode(cfg); err != nil {
		return fail(err)
	}
	q := stream.Query{ID: "q-" + replaySource, SourceID: replaySource, Delta: sp.delta, Model: sp.model}
	register := func(s *dsms.Server) error {
		if err := s.Register(q); err != nil {
			return err
		}
		_, err := s.InstallFor(replaySource)
		return err
	}
	mkdir := func() (string, error) {
		d, err := os.MkdirTemp(o.workdir, "replay-")
		if err == nil {
			g.dirs = append(g.dirs, d)
		}
		return d, err
	}

	g.mem = dsms.NewServer(newCatalog())
	if err := register(g.mem); err != nil {
		return fail(err)
	}
	dir, err := mkdir()
	if err != nil {
		return fail(err)
	}
	if g.dur, err = dsms.Open(newCatalog(), dir, dsms.DurabilityOptions{Sync: wal.SyncInterval, CheckpointEvery: 10000}); err != nil {
		return fail(err)
	}
	if err := register(g.dur); err != nil {
		return fail(err)
	}
	if dir, err = mkdir(); err != nil {
		return fail(err)
	}
	if g.log, err = wal.Open(dir, wal.Options{Sync: wal.SyncInterval}); err != nil {
		return fail(err)
	}

	tcpSrv := dsms.NewServer(newCatalog())
	if err := tcpSrv.Register(q); err != nil {
		return fail(err)
	}
	if g.ts, err = dsms.NewTCPServer(tcpSrv, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	go g.ts.Serve()
	if g.agent, err = dsms.DialSourceOptions(g.ts.Addr(), replaySource, newCatalog(), dsms.DialOptions{Window: 64}); err != nil {
		return fail(err)
	}

	g.engSrv = dsms.NewServer(newCatalog())
	if err := g.engSrv.Register(q); err != nil {
		return fail(err)
	}
	g.engSrv.StartEngine(dsms.EngineOptions{})

	g.udpSrv = dsms.NewServer(newCatalog())
	if err := g.udpSrv.Register(q); err != nil {
		return fail(err)
	}
	if g.us, err = dsms.NewUDPServer(g.udpSrv, "127.0.0.1:0", dsms.UDPServerOptions{}); err != nil {
		return fail(err)
	}
	go g.us.Serve()
	if g.batcher, err = dsms.DialUDPBatcherOpts(g.us.Addr().String(), dsms.UDPBatcherOptions{}); err != nil {
		return fail(err)
	}
	return g, nil
}

func (g *replayRig) close() {
	if g.batcher != nil {
		g.batcher.Close()
	}
	if g.us != nil {
		g.us.Close()
	}
	for _, s := range []*dsms.Server{g.engSrv, g.udpSrv} {
		if s != nil && s.Engine() != nil {
			s.Engine().Close()
		}
	}
	if g.agent != nil {
		g.agent.Close()
	}
	if g.ts != nil {
		g.ts.Close()
	}
	if g.log != nil {
		g.log.Close()
	}
	if g.dur != nil {
		g.dur.Close()
	}
	for _, d := range g.dirs {
		os.RemoveAll(d)
	}
}

// layerStats is what the replay measured beyond the tracer's per-layer
// times.
type layerStats struct {
	readings      int64
	processSentNs []float64
	offerNs       []float64
	backlog       []float64
	updateBytes   int
	lastSeq       int
	payloads      [walBatch][]byte // the latest encoded update payloads
}

// replay drives the readings of the run's first segment through every
// layer's public calls, one reading at a time, for the given time, and
// turns the spans into the per-layer report.
func replay(o options, sp *spec, seconds float64, live *e2eResult) (*report, error) {
	seed := segmentSeed(o.seed, 0)
	allocs, err := processAllocs(sp, seed)
	if err != nil {
		return nil, err
	}
	g, err := newReplayRig(o, sp)
	if err != nil {
		return nil, err
	}
	defer g.close()

	tr := newTracer()
	st := &layerStats{}
	if err := g.run(tr, st, sp.input(seed), seconds); err != nil {
		return nil, err
	}
	extra, err := g.postLoops(tr, st)
	if err != nil {
		return nil, err
	}
	rttUs, hopUs, err := idleRTT(sp)
	if err != nil {
		return nil, err
	}

	rep := &report{attempted: live.attempted, failed: live.failed, checkErr: live.checkErr}
	// Figures the live run saw replace the replay's.
	add := func(name string, v float64, unit string) {
		if lv, ok := live.layers[name]; ok {
			v = lv
		}
		rep.add(name, v, unit)
	}
	add("kalman.predict_ns", tr.totMean(lKalmanPredict), "ns")
	add("kalman.step_ns", tr.totMean(lKalmanStep), "ns")
	add("core.process_ns", tr.selfMean(lCoreProcess), "ns")
	add("core.process_sent_ns", mean(st.processSentNs), "ns")
	add("core.process_allocs", allocs, "count")
	add("core.apply_ns", tr.selfMean(lCoreApply), "ns")
	add("wire.encode_ns", tr.selfMean(lWireEncode), "ns")
	add("wire.decode_ns", tr.selfMean(lWireDecode), "ns")
	add("wire.update_bytes", float64(st.updateBytes), "B")
	add("dsms.tcp.offer_p50_ns", quantile(st.offerNs, 0.5), "ns")
	add("dsms.tcp.offer_p90_ns", quantile(st.offerNs, 0.9), "ns")
	add("dsms.tcp.rtt_idle_us", rttUs, "us")
	add("dsms.udp.send_ns", tr.selfMean(lUDPSend), "ns")
	add("dsms.udp.updates_per_datagram", extra["dsms.udp.updates_per_datagram"], "count")
	add("engine.offer_ns", tr.selfMean(lEngineOffer), "ns")
	add("engine.backlog_p90", quantile(st.backlog, 0.9), "count")
	add("engine.shed_ratio", extra["engine.shed_ratio"], "ratio")
	add("engine.dedup_ratio", extra["engine.dedup_ratio"], "ratio")
	add("dsms.server.apply_ns", tr.selfMean(lServerApply), "ns")
	add("dsms.server.apply_durable_ns", tr.selfMean(lServerApplyDurable), "ns")
	add("dsms.server.answer_ns", extra["dsms.server.answer_ns"], "ns")
	add("wal.append_ns", tr.selfMean(lWALAppend), "ns")
	add("wal.append_batch_ns_per_record", extra["wal.append_batch_ns_per_record"], "ns")
	add("wal.sync_ns", extra["wal.sync_ns"], "ns")
	add("cluster.hop_us", hopUs, "us")
	rep.add("probe_p50_us", live.layers["probe_p50_us"], "us")
	rep.add("probe_p90_us", live.layers["probe_p90_us"], "us")
	add("gc.allocs_per_reading", float64(live.mallocs)/float64(live.readings), "count")

	// The layer table: each step of the workload's blocking path, at
	// its measured calls per reading, against the live run's wall time
	// per reading.
	e2eNs := float64(live.elapsed.Nanoseconds()) / float64(live.readings)
	var table []tableRow
	sum := 0.0
	for _, l := range sp.path {
		row := tableRow{name: layerNames[l], perCall: tr.selfMean(l), perReading: float64(tr.calls[l]) / float64(st.readings)}
		sum += row.perCall * row.perReading
		table = append(table, row)
	}
	rep.add("trace.e2e_ns_per_reading", e2eNs, "ns")
	rep.add("trace.layer_sum_ns", sum, "ns")
	rep.add("unattributed_ns", e2eNs-sum, "ns")

	base := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d", sp.name, o.seed))
	if err := writeTable(os.Stdout, sp.name, tr, st, table, sum, e2eNs); err != nil {
		return nil, err
	}
	if err := writeFile(base+".layers.txt", func(w io.Writer) error { return writeTable(w, sp.name, tr, st, table, sum, e2eNs) }); err != nil {
		return nil, err
	}
	if err := writeFile(base+".spans.csv", tr.writeSpans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d readings replayed, %d spans kept in %s.spans.csv\n", st.readings, len(tr.spans), base)
	return rep, nil
}

// run is the replay loop proper.
func (g *replayRig) run(tr *tracer, st *layerStats, in input, seconds float64) error {
	var filter *kalman.Filter
	z := mat.New(g.cfg.Model.MeasDim, 1)
	var frame []byte
	var du core.Update
	intern := func(b []byte) string {
		if string(b) == replaySource {
			return replaySource
		}
		return string(b)
	}
	prod := g.engSrv.Engine().Producer()
	shard := g.engSrv.Engine().ShardFor(replaySource)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for ; ; st.readings++ {
		if st.readings&255 == 0 && time.Now().After(deadline) {
			break
		}
		r := in.next()
		tr.id = st.readings
		tr.begin(lReading)

		// The same model's filter stepped on every reading: the kalman
		// layer on its own, outside SourceNode's bookkeeping.
		if filter == nil {
			f, err := g.cfg.Model.NewFilter(r.Values)
			if err != nil {
				return err
			}
			filter = f
		} else {
			for i, v := range r.Values {
				z.Set(i, 0, v)
			}
			tr.begin(lKalmanStep)
			tr.begin(lKalmanPredict)
			filter.Predict()
			tr.end()
			err := filter.Correct(z)
			tr.end()
			if err != nil {
				return err
			}
		}

		tr.begin(lCoreProcess)
		u, _, err := g.src.Process(r)
		d := tr.end()
		if err != nil {
			return err
		}
		if u != nil {
			st.processSentNs = append(st.processSentNs, float64(d))
		}

		tr.begin(lTCPOffer)
		_, err = g.agent.Offer(r)
		st.offerNs = append(st.offerNs, float64(tr.end()))
		if err != nil {
			return err
		}

		if u != nil {
			if err := g.applyAll(tr, st, u, &frame, &du, intern, prod, shard); err != nil {
				return err
			}
		}
		tr.end()
		st.lastSeq = r.Seq
	}
	if err := g.agent.Drain(); err != nil {
		return err
	}
	if err := g.batcher.Flush(); err != nil {
		return err
	}
	return nil
}

// walTag is the record tag dsms logs updates under.
const walTag byte = 0x11

// walBatch is the group size of the wal.append_batch measurement.
const walBatch = 64

// applyAll takes one transmitted update through every server-side
// layer and both transports' send calls.
func (g *replayRig) applyAll(tr *tracer, st *layerStats, u *core.Update, frame *[]byte, du *core.Update,
	intern func([]byte) string, prod *engine.Producer, shard int) error {
	var err error
	tr.begin(lWireEncode)
	*frame, err = wire.AppendUpdateFrame((*frame)[:0], u)
	tr.end()
	if err != nil {
		return err
	}
	st.updateBytes = len(*frame)

	tr.begin(lWireDecode)
	_, payload, _, err := wire.NextFrame(*frame, 0)
	if err == nil {
		err = wire.DecodeUpdateInto(payload, du, intern)
	}
	tr.end()
	if err != nil {
		return err
	}

	tr.begin(lCoreApply)
	err = g.node.ApplyUpdate(*du)
	tr.end()
	if err != nil {
		return fmt.Errorf("core apply: %w", err)
	}
	tr.begin(lServerApply)
	err = g.mem.HandleUpdate(*du)
	tr.end()
	if err != nil {
		return fmt.Errorf("server apply: %w", err)
	}
	tr.begin(lServerApplyDurable)
	err = g.dur.HandleUpdate(*du)
	tr.end()
	if err != nil {
		return fmt.Errorf("durable server apply: %w", err)
	}
	tr.begin(lWALAppend)
	err = g.log.Append(walTag, payload)
	tr.end()
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	tr.begin(lEngineOffer)
	ok := prod.Offer(shard, du)
	tr.end()
	if !ok {
		return fmt.Errorf("engine offer: engine closed")
	}
	tr.begin(lUDPSend)
	err = g.batcher.Send(*du)
	tr.end()
	if err != nil {
		return fmt.Errorf("udp send: %w", err)
	}

	e := g.engSrv.Engine()
	st.backlog = append(st.backlog, float64(e.Offered()-e.Applied()))
	i := tr.calls[lWALAppend] % walBatch
	st.payloads[i] = append(st.payloads[i][:0], payload...)
	return nil
}

// postLoops measures the layers that are not called once per update:
// query answers, group commit and fsync, and the asynchronous engine
// and UDP paths' counters once they have drained.
func (g *replayRig) postLoops(tr *tracer, st *layerStats) (map[string]float64, error) {
	out := map[string]float64{}
	const answers = 20000
	start := time.Now()
	for i := 0; i < answers; i++ {
		if _, err := g.mem.Answer("q-"+replaySource, st.lastSeq); err != nil {
			return nil, err
		}
	}
	out["dsms.server.answer_ns"] = float64(time.Since(start).Nanoseconds()) / answers

	const batches = 500
	start = time.Now()
	for i := 0; i < batches; i++ {
		if err := g.log.AppendBatch(walTag, st.payloads[:]); err != nil {
			return nil, err
		}
	}
	out["wal.append_batch_ns_per_record"] = float64(time.Since(start).Nanoseconds()) / (batches * walBatch)

	syncs := make([]float64, 0, 21)
	for i := 0; i < cap(syncs); i++ {
		if err := g.log.Append(walTag, st.payloads[0]); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := g.log.Sync(); err != nil {
			return nil, err
		}
		syncs = append(syncs, float64(time.Since(start).Nanoseconds()))
	}
	out["wal.sync_ns"] = median(syncs)

	// Both asynchronous paths must settle before their counters are read.
	if err := waitSettled(g.engSrv.Engine(), uint64(tr.calls[lEngineOffer]), 10*time.Second); err != nil {
		return nil, err
	}
	sent := float64(tr.calls[lUDPSend])
	if err := waitSettled(g.udpSrv.Engine(), uint64(sent), 10*time.Second); err != nil {
		return nil, err
	}
	z := g.udpSrv.Streamz().Engine
	var dedup, shed int64
	for _, sh := range z.PerShard {
		dedup += sh.Dedup
		shed += sh.Dropped
	}
	out["engine.dedup_ratio"] = float64(dedup) / sent
	out["engine.shed_ratio"] = float64(shed) / sent
	out["dsms.udp.updates_per_datagram"] = float64(z.FramesRx) / float64(z.DatagramsRx)
	return out, nil
}

// processAllocs counts heap allocations per SourceNode.Process call
// over the workload's first readings, with nothing else running.
func processAllocs(sp *spec, seed int64) (float64, error) {
	cfg, err := resolveConfig(replaySource, sp.model, sp.delta)
	if err != nil {
		return 0, err
	}
	src, err := core.NewSourceNode(cfg)
	if err != nil {
		return 0, err
	}
	in := sp.input(seed)
	const n = 20000
	before := mallocs()
	for i := 0; i < n; i++ {
		if _, _, err := src.Process(in.next()); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / n, nil
}

// idleRTT returns the median window-1 commit round trip, in µs, of an
// otherwise idle in-memory server, and how much a 2-shard router in
// front of it adds. Every reading is sent (δ = 1e-6), so each Offer
// plus Drain is one update applied and acknowledged.
func idleRTT(sp *spec) (directUs, hopUs float64, err error) {
	const rounds = 400
	q := stream.Query{ID: "q-rtt", SourceID: "rtt", Delta: 1e-6, Model: sp.model}
	probe := func(addr string) (float64, error) {
		agent, err := dsms.DialSourceOptions(addr, "rtt", newCatalog(), dsms.DialOptions{Window: 1})
		if err != nil {
			return 0, err
		}
		defer agent.Close()
		in := newWalkInput(0, 1, 7)
		lat := make([]float64, 0, rounds)
		for i := 0; i < rounds+rounds/4; i++ {
			start := time.Now()
			if _, err := agent.Offer(in.next()); err != nil {
				return 0, err
			}
			if err := agent.Drain(); err != nil {
				return 0, err
			}
			if i >= rounds/4 { // the first quarter warms the path up
				lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		return median(lat), nil
	}

	var servers []*dsms.TCPServer
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	serve := func(register bool) (string, error) {
		s := dsms.NewServer(newCatalog())
		if register {
			if err := s.Register(q); err != nil {
				return "", err
			}
		}
		ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		servers = append(servers, ts)
		go ts.Serve()
		return ts.Addr(), nil
	}
	direct, err := serve(true)
	if err != nil {
		return 0, 0, err
	}
	if directUs, err = probe(direct); err != nil {
		return 0, 0, err
	}
	shards := make([]string, 2)
	for i := range shards {
		if shards[i], err = serve(false); err != nil {
			return 0, 0, err
		}
	}
	r, err := cluster.NewRouter("127.0.0.1:0", shards, cluster.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	go r.Serve()
	if err := r.RegisterQuery(q); err != nil {
		return 0, 0, err
	}
	routedUs, err := probe(r.Addr())
	if err != nil {
		return 0, 0, err
	}
	return directUs, routedUs - directUs, nil
}

// tableRow is one step of a workload's blocking path.
type tableRow struct {
	name       string
	perCall    float64 // self ns per call
	perReading float64 // calls per reading
}

// writeTable prints every layer's replay figures, then the workload's
// blocking path as self time per reading, their sum, the live run's
// wall time per reading, and the unattributed remainder.
func writeTable(w io.Writer, workload string, tr *tracer, st *layerStats, path []tableRow, sum, e2eNs float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "layers (%s, %d readings replayed):\n", workload, st.readings)
	fmt.Fprintf(bw, "  %-28s %10s %12s %12s\n", "span", "calls", "self ns", "total ns")
	for l := layer(0); l < nLayers; l++ {
		fmt.Fprintf(bw, "  %-28s %10d %12.1f %12.1f\n", layerNames[l], tr.calls[l], tr.selfMean(l), tr.totMean(l))
	}
	fmt.Fprintf(bw, "path (%s):\n", workload)
	fmt.Fprintf(bw, "  %-28s %12s %12s %12s\n", "layer", "ns/call", "calls/read", "ns/reading")
	for _, r := range path {
		fmt.Fprintf(bw, "  %-28s %12.1f %12.4f %12.1f\n", r.name, r.perCall, r.perReading, r.perCall*r.perReading)
	}
	fmt.Fprintf(bw, "  %-28s %12s %12s %12.1f\n", "layer sum", "", "", sum)
	fmt.Fprintf(bw, "  %-28s %12s %12s %12.1f\n", "e2e wall per reading", "", "", e2eNs)
	fmt.Fprintf(bw, "  %-28s %12s %12s %12.1f\n", "unattributed", "", "", e2eNs-sum)
	return bw.Flush()
}

func writeFile(path string, body func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := body(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
