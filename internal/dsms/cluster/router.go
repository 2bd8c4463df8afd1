package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sort"
	"sync"

	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// The Router is the cluster's front door. Sources speak the unmodified
// v2 wire protocol to it — hello/install, pipelined updates, cumulative
// acks, queries — and the router forwards each stream to its owning
// shard (consistent-hash ring, ring.go) over one pooled, pipelined
// upstream connection per shard. Forwards travel in TagForward
// envelopes carrying a route index so the shard's cumulative
// ForwardAcks can be demultiplexed back to the right source; the ack a
// source sees is therefore end-to-end (its update reached the shard's
// filter), and the source's send window gives the cluster end-to-end
// flow control with zero source-side changes.
//
// Concurrency invariants (the whole file leans on these):
//   - route.mu (outer) serialises a stream's forward path against its
//     migration; route.pendMu (inner) guards only the pending window.
//   - The upstream ack pump takes ONLY pendMu, never route.mu, so a
//     migration blocked in an RPC can never deadlock against the acks
//     that RPC's flush produces.
//   - Each upstream has at most ONE outstanding RPC (rpcMu); the
//     reader goroutine routes any non-ForwardAck frame to the waiting
//     RPC, and treats such a frame with no waiter as a fatal upstream
//     error (sticky, surfaced on the next call).
//   - All writes to a downstream source conn go through its downConn
//     mutex, because upstream readers relay acks concurrently with the
//     handler's own replies.

const defaultMaxFrame = 1 << 20

// Options configures a Router.
type Options struct {
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// MaxFrame bounds wire frame sizes (0 = 1 MiB).
	MaxFrame int
	// AggSuppress is the cluster budget split β ∈ [0,1): shards run
	// their partials at (1-β)Δ and the router re-suppresses outbound
	// answers within βΔ of the last one it released. β = 0 (the
	// default) reproduces the single-server answer bit-for-bit.
	AggSuppress float64
	// Registry receives router metrics (nil = a fresh registry).
	Registry *telemetry.Registry
	// Logger, nil for silent.
	Logger *slog.Logger
	// Trace enables the router's own flight recorders: each route gets
	// a seqlock event ring recording fwd_rx/fwd_tx/fwd_ack for traced
	// updates, and forwards to hop-capable shards carry the router's
	// timestamps (wire.FeatHopTrace) so the shard can splice the hop
	// into the stream's own trail.
	Trace bool
	// TraceRing is the per-route event capacity (0 = trace default).
	TraceRing int
	// ShardAdmins lists each shard's admin endpoint address (host:port,
	// parallel to the shard address list). Optional; when set, the
	// router's /clusterz federates shard health and /tracez/stream/{id}
	// splices the owning shard's trail into the router's hop events.
	ShardAdmins []string
	// EventCap bounds the topology event ring (0 = 256).
	EventCap int
}

// Router accepts v2-protocol sources and fronts a set of shard servers.
type Router struct {
	ring      *Ring
	opts      Options
	tel       *routerTelemetry
	log       *slog.Logger
	maxFrame  int
	upstreams []*upstream
	downFeats byte // features advertised to sources

	events *eventLog

	ln      net.Listener
	udp     net.PacketConn
	wg      sync.WaitGroup
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool

	routeMu sync.RWMutex
	routes  map[string]*route
	byIdx   []*route

	regMu   sync.Mutex
	queries map[string]stream.Query
	aggs    map[string]*routerAgg
}

// routerAgg is the router's record of a cross-shard aggregate: the
// original query, the member split by owning shard, and the last
// released answer (the outbound re-suppression state).
type routerAgg struct {
	q        dsms.AggregateQuery
	shards   []int            // shards holding members, sorted
	perShard map[int][]string // shard -> member source ids

	mu       sync.Mutex
	cached   float64
	cachedOK bool
	scratch  []float64
}

// pendEntry is one forwarded-but-unacked update: its seq, the verbatim
// update payload (kept for replay after shard failure or migration
// cutover), and the monotonic send stamp for the latency histogram.
// traceID is nonzero when the forward carried hop-trace evidence; the
// ack pump then records the fwd_ack event under the same id.
type pendEntry struct {
	seq     int64
	sentNs  int64
	traceID int64
	buf     []byte
}

// route is the per-stream forwarding state.
type route struct {
	idx      uint32 // dense index, the ForwardAck demux key
	sourceID string

	mu    sync.Mutex // outer: forward path vs migration/reconnect
	shard int
	epoch int64

	pendMu  sync.Mutex // inner: the ONLY lock the ack pump takes
	pending []pendEntry
	free    [][]byte
	down    *downConn

	// rec is the route's flight recorder (nil unless Options.Trace):
	// fwd_rx/fwd_tx/fwd_ack events for traced updates through this
	// route. Written under rt.mu (forward) and pendMu (ack pump) but
	// the recorder itself is a wait-free seqlock — no extra locking.
	rec *trace.Recorder
}

// downConn serialises writes to one downstream source connection.
type downConn struct {
	mu  sync.Mutex
	w   *wire.Writer
	err error
}

func (d *downConn) write(f func(w *wire.Writer) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if err := f(d.w); err == nil {
		err = d.w.Flush()
		d.err = err
	} else {
		d.err = err
	}
	return d.err
}

func (d *downConn) relayAck(seq int64) {
	// Best effort: if the source conn died the route outlives it and the
	// pending window was already cleared by the ack pump.
	_ = d.write(func(w *wire.Writer) error { return w.Ack(seq) })
}

type rpcReply struct {
	tag wire.Tag
	p   []byte
}

// upstream is the pooled connection to one shard.
type upstream struct {
	shard    int
	addr     string
	maxFrame int
	router   *Router

	mu    sync.Mutex // write lock: w, err, conn, feats
	conn  net.Conn
	w     *wire.Writer
	err   error
	feats byte
	alive bool

	rpcMu      sync.Mutex // one outstanding RPC per upstream
	rpcWaiting bool       // guarded by mu
	rpcCh      chan rpcReply
	dead       chan struct{} // closed when the reader for this conn exits
}

// NewRouter builds a router fronting shards[i] at addr shards[i],
// dials every shard, and starts listening for sources on listenAddr
// (empty = don't listen; useful for tests driving Register/Answer
// directly). Call Serve to accept sources, Close to shut down.
func NewRouter(listenAddr string, shardAddrs []string, opts Options) (*Router, error) {
	if len(shardAddrs) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	if opts.AggSuppress < 0 || opts.AggSuppress >= 1 {
		return nil, fmt.Errorf("cluster: AggSuppress %v outside [0,1)", opts.AggSuppress)
	}
	maxFrame := opts.MaxFrame
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	log := opts.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	tel := newRouterTelemetry(opts.Registry, len(shardAddrs))
	r := &Router{
		ring:     NewRing(len(shardAddrs), opts.VNodes),
		opts:     opts,
		tel:      tel,
		log:      log,
		maxFrame: maxFrame,
		events:   newEventLog(tel.reg, opts.EventCap),
		conns:    make(map[net.Conn]struct{}),
		routes:   make(map[string]*route),
		queries:  make(map[string]stream.Query),
		aggs:     make(map[string]*routerAgg),
	}
	for i, addr := range shardAddrs {
		up := &upstream{shard: i, addr: addr, maxFrame: maxFrame, router: r, rpcCh: make(chan rpcReply, 1)}
		if err := up.connect(); err != nil {
			r.Close()
			return nil, err
		}
		r.upstreams = append(r.upstreams, up)
	}
	// Sources get trace relay only when every shard can accept it: a
	// migration must not strand a traced stream on a shard that would
	// reject the frames. The hop-timestamp extension degrades the same
	// way: advertised downstream only when every shard accepts it, so a
	// mixed fleet falls back to plain 65-byte trace relay everywhere.
	r.downFeats = wire.FeatTrace | wire.FeatHopTrace
	for _, up := range r.upstreams {
		up.mu.Lock()
		if up.feats&wire.FeatTrace == 0 {
			r.downFeats = 0
		}
		if up.feats&wire.FeatHopTrace == 0 {
			r.downFeats &^= wire.FeatHopTrace
		}
		up.mu.Unlock()
	}
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		r.ln = ln
	}
	return r, nil
}

// Addr returns the router's source-facing TCP address.
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Ring exposes the placement ring (read-mostly; mutate only via
// Migrate and topology calls).
func (r *Router) Ring() *Ring { return r.ring }

// Telemetry returns the router's metric registry.
func (r *Router) Telemetry() *telemetry.Registry { return r.tel.reg }

// Serve accepts source connections until Close. Blocks.
func (r *Router) Serve() error {
	if r.ln == nil {
		return errors.New("cluster: router has no listener")
	}
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.connMu.Lock()
			closing := r.closing
			r.connMu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		r.connMu.Lock()
		if r.closing {
			r.connMu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.connMu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handleDown(conn)
		}()
	}
}

// Close shuts the router down: listener, source conns, upstreams.
func (r *Router) Close() error {
	r.connMu.Lock()
	if r.closing {
		r.connMu.Unlock()
		return nil
	}
	r.closing = true
	for conn := range r.conns {
		conn.Close()
	}
	r.connMu.Unlock()
	if r.ln != nil {
		r.ln.Close()
	}
	if r.udp != nil {
		r.udp.Close()
	}
	for _, up := range r.upstreams {
		up.close()
	}
	r.wg.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Upstream pool

func (up *upstream) connect() error {
	conn, err := net.Dial("tcp", up.addr)
	if err != nil {
		return fmt.Errorf("cluster: shard %d dial: %w", up.shard, err)
	}
	w := wire.NewWriter(conn, 64*1024, up.maxFrame)
	rd := wire.NewReader(conn, 0, up.maxFrame)
	fail := func(err error) error {
		conn.Close()
		return err
	}
	if err := w.WritePreambleFeatures(wire.Version, wire.FeatCluster); err != nil {
		return fail(fmt.Errorf("cluster: shard %d handshake: %w", up.shard, err))
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("cluster: shard %d handshake: %w", up.shard, err))
	}
	ver, feats, err := rd.ReadPreambleFeatures()
	if err != nil {
		return fail(fmt.Errorf("cluster: shard %d handshake: %w", up.shard, err))
	}
	if err := wire.CheckVersion(ver); err != nil {
		return fail(fmt.Errorf("cluster: shard %d: %w", up.shard, err))
	}
	if feats&wire.FeatCluster == 0 {
		return fail(fmt.Errorf("cluster: shard %d does not speak the cluster extension", up.shard))
	}
	dead := make(chan struct{})
	up.mu.Lock()
	up.conn = conn
	up.w = w
	up.err = nil
	up.feats = feats
	up.alive = true
	up.dead = dead
	up.mu.Unlock()
	up.router.tel.upstreamConns.Add(1)
	up.router.events.record(TopoEvent{Kind: EvShardConnect, Shard: up.shard, Detail: up.addr})
	go up.readLoop(rd, conn, dead)
	return nil
}

// fail records a sticky upstream error and tears the connection down.
// Routes keep their pending windows; ReconnectShard replays them.
func (up *upstream) fail(err error) {
	up.mu.Lock()
	if !up.alive {
		up.mu.Unlock()
		return
	}
	up.alive = false
	if up.err == nil {
		up.err = err
	}
	conn := up.conn
	up.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	up.router.tel.upstreamConns.Add(-1)
	up.router.events.record(TopoEvent{Kind: EvShardDisconnect, Shard: up.shard, Detail: err.Error()})
	up.router.log.Warn("upstream shard lost", "shard", up.shard, "err", err)
}

func (up *upstream) close() { up.fail(errors.New("cluster: router closed")) }

// readLoop demultiplexes one upstream connection: ForwardAcks go to the
// ack pump, everything else is the reply to the (single) pending RPC.
func (up *upstream) readLoop(rd *wire.Reader, conn net.Conn, dead chan struct{}) {
	defer close(dead)
	for {
		tag, p, err := rd.Next()
		if err != nil {
			up.fail(fmt.Errorf("cluster: shard %d recv: %w", up.shard, err))
			return
		}
		if tag == wire.TagForwardAck {
			idx, seq, err := wire.DecodeForwardAck(p)
			if err != nil {
				up.fail(fmt.Errorf("cluster: shard %d: %w", up.shard, err))
				return
			}
			up.router.pumpAck(up.shard, idx, seq)
			continue
		}
		up.mu.Lock()
		waiting := up.rpcWaiting
		up.mu.Unlock()
		if waiting {
			// The reply frame aliases the reader's buffer; the waiter
			// outlives this iteration, so hand it a copy.
			up.rpcCh <- rpcReply{tag: tag, p: append([]byte(nil), p...)}
			continue
		}
		if tag == wire.TagError {
			msg, _ := wire.DecodeError(p)
			up.fail(fmt.Errorf("cluster: shard %d error: %s", up.shard, msg))
			return
		}
		up.fail(fmt.Errorf("cluster: shard %d sent unexpected %v", up.shard, tag))
		return
	}
}

// rpc writes one request frame and waits for its reply. The write and
// the rpcWaiting flag flip under up.mu, so the reader (which sees the
// reply only after the request reached the shard) always observes
// waiting == true. The flush also pushes any buffered forwards first —
// FIFO ordering that migration correctness depends on.
func (up *upstream) rpc(write func(w *wire.Writer) error) (rpcReply, error) {
	up.rpcMu.Lock()
	defer up.rpcMu.Unlock()
	up.mu.Lock()
	if up.err != nil {
		err := up.err
		up.mu.Unlock()
		return rpcReply{}, err
	}
	select { // drop a stale reply from a failed predecessor
	case <-up.rpcCh:
	default:
	}
	up.rpcWaiting = true
	dead := up.dead
	err := write(up.w)
	if err == nil {
		err = up.w.Flush()
	}
	if err != nil {
		up.err = err
		up.rpcWaiting = false
		up.mu.Unlock()
		up.fail(err)
		return rpcReply{}, err
	}
	up.mu.Unlock()

	var reply rpcReply
	select {
	case reply = <-up.rpcCh:
	case <-dead:
		up.mu.Lock()
		err = up.err
		up.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("cluster: shard %d connection lost", up.shard)
		}
	}
	up.mu.Lock()
	up.rpcWaiting = false
	up.mu.Unlock()
	if err != nil {
		return rpcReply{}, err
	}
	if reply.tag == wire.TagError {
		msg, _ := wire.DecodeError(reply.p)
		return rpcReply{}, fmt.Errorf("cluster: shard %d: %s", up.shard, msg)
	}
	return reply, nil
}

// pumpAck clears a route's pending window through seq and relays the
// cumulative ack downstream. Takes ONLY pendMu — see the invariants at
// the top of the file.
func (r *Router) pumpAck(shard int, idx uint32, seq int64) {
	r.routeMu.RLock()
	var rt *route
	if int(idx) < len(r.byIdx) {
		rt = r.byIdx[idx]
	}
	r.routeMu.RUnlock()
	if rt == nil {
		return
	}
	now := nowNanos()
	hist := r.tel.fwdLatency[shard]
	rt.pendMu.Lock()
	n := 0
	var ackAt int64
	for n < len(rt.pending) && rt.pending[n].seq <= seq {
		e := &rt.pending[n]
		hist.Observe(now - e.sentNs)
		if e.traceID != 0 && rt.rec != nil {
			// One fwd_ack per traced entry the cumulative ack covers,
			// all stamped with the ack's arrival time.
			if ackAt == 0 {
				ackAt = trace.Now()
			}
			rt.rec.Record(&trace.Event{TraceID: e.traceID, Seq: e.seq, At: ackAt, Kind: trace.KindFwdAck, Aux: int64(shard)})
			r.tel.hopShard.Observe(now - e.sentNs)
		}
		rt.free = append(rt.free, e.buf[:0])
		e.buf = nil
		n++
	}
	if n > 0 {
		rt.pending = rt.pending[:copy(rt.pending, rt.pending[n:])]
	}
	down := rt.down
	rt.pendMu.Unlock()
	if down != nil {
		down.relayAck(seq)
	}
}

// ---------------------------------------------------------------------------
// Routes

// routeFor returns the stream's route, creating it (placed by the ring)
// on first sight. The common path is a read-locked map hit with no
// allocation (map[string(b)] lookup).
func (r *Router) routeFor(id []byte) *route {
	r.routeMu.RLock()
	rt := r.routes[string(id)]
	r.routeMu.RUnlock()
	if rt != nil {
		return rt
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if rt = r.routes[string(id)]; rt != nil {
		return rt
	}
	sid := string(id)
	rt = &route{
		idx:      uint32(len(r.byIdx)),
		sourceID: sid,
		shard:    r.ring.Owner(sid),
		epoch:    r.ring.Epoch(),
	}
	if r.opts.Trace {
		rt.rec = trace.New(trace.Options{RingSize: r.opts.TraceRing})
	}
	r.byIdx = append(r.byIdx, rt)
	r.routes[sid] = rt
	return rt
}

// forward ships one update payload to the route's owning shard,
// optionally preceded by the source's trace frame (written adjacently
// under the same upstream lock section so the shard sees them paired).
// The payload is always appended to the pending window — even when the
// upstream is down — because ReconnectShard and Migrate replay from it;
// upstream failure is therefore invisible to the source except as acks
// drying up until its send window backpressures.
//
// When the router traces (rt.rec != nil), a relayed trace frame is
// decoded on the stack, re-encoded with this hop's timestamps toward a
// hop-capable shard (wire.TraceHop), and recorded as fwd_rx/fwd_tx in
// the route's flight recorder. trRxNs is when the trace frame arrived
// from the source (trace clock); zero when there is none.
func (r *Router) forward(rt *route, payload, tracePayload []byte, seq, trRxNs int64, flush bool) int {
	rt.mu.Lock()
	shard := rt.shard
	up := r.upstreams[shard]
	var tid, txNs, epoch int64
	up.mu.Lock()
	if up.err == nil {
		err := error(nil)
		if tracePayload != nil && up.feats&wire.FeatTrace != 0 {
			relay := true
			if rt.rec != nil {
				if d, _, _, derr := wire.DecodeTraceExt(tracePayload); derr == nil {
					tid, txNs, epoch = d.TraceID, trace.Now(), rt.epoch
					if up.feats&wire.FeatHopTrace != 0 {
						relay = false
						err = up.w.TraceHop(&d, wire.TraceHop{
							Idx: rt.idx, Epoch: rt.epoch,
							RxUnixNs: trRxNs, TxUnixNs: txNs,
						})
					}
				}
			}
			if relay && err == nil {
				// Verbatim relay: either the router is not tracing or the
				// shard cannot take the extended payload (it still gets
				// whatever form the source produced).
				err = up.w.RawFrame(wire.TagTrace, tracePayload)
			}
		}
		if err == nil {
			err = up.w.Forward(rt.idx, rt.epoch, payload)
		}
		if err == nil && flush {
			err = up.w.Flush()
		}
		if err != nil {
			up.err = err
			up.mu.Unlock()
			up.fail(err)
			up.mu.Lock()
		}
	}
	up.mu.Unlock()
	if tid != 0 && rt.rec.Sampled(seq) {
		rt.rec.Record(&trace.Event{TraceID: tid, Seq: seq, At: trRxNs, Kind: trace.KindFwdRx, Aux: int64(rt.idx)})
		rt.rec.Record(&trace.Event{TraceID: tid, Seq: seq, At: txNs, Kind: trace.KindFwdTx, Aux: epoch})
		r.tel.hopRouter.Observe(txNs - trRxNs)
	}
	now := nowNanos()
	rt.pendMu.Lock()
	var buf []byte
	if n := len(rt.free); n > 0 {
		buf, rt.free = rt.free[n-1], rt.free[:n-1]
	}
	buf = append(buf[:0], payload...)
	rt.pending = append(rt.pending, pendEntry{seq: seq, sentNs: now, traceID: tid, buf: buf})
	rt.pendMu.Unlock()
	rt.mu.Unlock()
	r.tel.forwarded[shard].Inc()
	return shard
}

// ---------------------------------------------------------------------------
// Downstream (source-facing) connections

func (r *Router) handleDown(conn net.Conn) {
	defer func() {
		r.connMu.Lock()
		delete(r.conns, conn)
		r.connMu.Unlock()
		conn.Close()
	}()
	r.tel.downConns.Add(1)
	defer r.tel.downConns.Add(-1)

	rd := wire.NewReader(conn, 0, r.maxFrame)
	w := wire.NewWriter(conn, 0, r.maxFrame)
	dc := &downConn{w: w}

	ver, err := rd.ReadPreamble()
	if err != nil {
		return
	}
	if err := wire.CheckVersion(ver); err != nil {
		_ = dc.write(func(w *wire.Writer) error { return w.Error(err.Error()) })
		return
	}
	if err := dc.write(func(w *wire.Writer) error {
		return w.WritePreambleFeatures(wire.Version, r.downFeats)
	}); err != nil {
		return
	}

	var (
		boundRoutes []*route // routes this conn is the down side of
		pendTrace   []byte
		havePend    bool
		pendRxNs    int64 // when the stashed trace frame arrived
	)
	defer func() {
		for _, rt := range boundRoutes {
			rt.pendMu.Lock()
			if rt.down == dc {
				rt.down = nil
			}
			rt.pendMu.Unlock()
		}
	}()

	for {
		tag, p, err := rd.Next()
		if err != nil {
			return
		}
		switch tag {
		case wire.TagHello:
			id, err := wire.DecodeHello(p)
			if err != nil {
				_ = dc.write(func(w *wire.Writer) error { return w.Error(err.Error()) })
				return
			}
			rt := r.routeFor([]byte(id))
			inst, err := r.helloRoute(rt)
			if err != nil {
				_ = dc.write(func(w *wire.Writer) error { return w.Error(err.Error()) })
				return
			}
			rt.pendMu.Lock()
			rt.down = dc
			rt.pendMu.Unlock()
			boundRoutes = append(boundRoutes, rt)
			r.tel.helloTotal.Inc()
			if err := dc.write(func(w *wire.Writer) error {
				return w.Install(inst)
			}); err != nil {
				return
			}

		case wire.TagTrace:
			// Stash for the next update; relayed ahead of its forward so
			// the shard's own trace matching applies. The arrival stamp
			// becomes the hop's fwd_rx time when the router traces.
			pendTrace = append(pendTrace[:0], p...)
			havePend = true
			if r.opts.Trace {
				pendRxNs = trace.Now()
			}

		case wire.TagUpdate:
			// Peek only the routing key — u16-len sourceID then i64 seq —
			// and forward the payload verbatim; the shard does the full
			// decode.
			c := wire.NewCursor(p)
			idb := c.Take(int(c.U16()))
			seq := c.I64()
			if !c.OK() {
				_ = dc.write(func(w *wire.Writer) error { return w.Error("malformed update") })
				return
			}
			rt := r.routeFor(idb)
			var tr []byte
			var trRx int64
			if havePend {
				tr, trRx = pendTrace, pendRxNs
				havePend = false
			}
			r.forward(rt, p, tr, seq, trRx, rd.Buffered() == 0)

		case wire.TagQuery:
			qid, seq, err := rd.DecodeQuery(p)
			if err != nil {
				_ = dc.write(func(w *wire.Writer) error { return w.Error(err.Error()) })
				continue
			}
			vals, err := r.answerQuery(qid, int(seq))
			if err != nil {
				_ = dc.write(func(w *wire.Writer) error { return w.Error(err.Error()) })
				continue
			}
			if err := dc.write(func(w *wire.Writer) error { return w.Answer(qid, vals) }); err != nil {
				return
			}

		default:
			_ = dc.write(func(w *wire.Writer) error {
				return w.Error(fmt.Sprintf("cluster: unexpected frame %v", tag))
			})
			return
		}
	}
}

// helloRoute relays a source hello to the owning shard and returns the
// shard's install. Pending forwards at or below the shard's ResumeSeq
// are cleared here: the RPC's flush pushed every earlier forward ahead
// of the hello, so ResumeSeq reflects them all.
func (r *Router) helloRoute(rt *route) (wire.Install, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	up := r.upstreams[rt.shard]
	reply, err := up.rpc(func(w *wire.Writer) error { return w.Hello(rt.sourceID) })
	if err != nil {
		return wire.Install{}, err
	}
	if reply.tag != wire.TagInstall {
		return wire.Install{}, fmt.Errorf("cluster: shard %d replied %v to hello", rt.shard, reply.tag)
	}
	inst, err := wire.DecodeInstall(reply.p)
	if err != nil {
		return wire.Install{}, err
	}
	rt.pendMu.Lock()
	n := 0
	for n < len(rt.pending) && rt.pending[n].seq <= inst.ResumeSeq {
		rt.free = append(rt.free, rt.pending[n].buf[:0])
		rt.pending[n].buf = nil
		n++
	}
	if n > 0 {
		rt.pending = rt.pending[:copy(rt.pending, rt.pending[n:])]
	}
	rt.pendMu.Unlock()
	return inst, nil
}

// ---------------------------------------------------------------------------
// Queries

// RegisterQuery installs a continuous query for one stream on its
// owning shard.
func (r *Router) RegisterQuery(q stream.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	shard := r.ring.Owner(q.SourceID)
	up := r.upstreams[shard]
	reply, err := up.rpc(func(w *wire.Writer) error {
		return w.RegisterQuery(wire.ClusterQuery{ID: q.ID, SourceID: q.SourceID, Model: q.Model, Delta: q.Delta, F: q.F})
	})
	if err != nil {
		return err
	}
	if reply.tag != wire.TagRegistered {
		return fmt.Errorf("cluster: shard %d replied %v to register", shard, reply.tag)
	}
	r.regMu.Lock()
	r.queries[q.ID] = q
	r.regMu.Unlock()
	return nil
}

// RegisterAggregate splits a cross-shard aggregate into per-shard
// partial aggregates. Budget ladder: with β = AggSuppress, each shard
// runs at (1-β)Δ — scaled by its member share for sum, full width for
// avg/min/max — so the shard-local PerSourceDelta() allocation yields
// exactly the single-server δ_i when β = 0:
//
//	sum: δ_i = (1-β)Δ·(n_shard/n_total)/n_shard = (1-β)Δ/n_total
//	avg/min/max: δ_i = (1-β)Δ
func (r *Router) RegisterAggregate(q dsms.AggregateQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	beta := r.opts.AggSuppress
	per := make(map[int][]string)
	for _, src := range q.SourceIDs {
		s := r.ring.Owner(src)
		per[s] = append(per[s], src)
	}
	shards := make([]int, 0, len(per))
	for s := range per {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	nTotal := float64(len(q.SourceIDs))
	for _, s := range shards {
		members := per[s]
		shardDelta := (1 - beta) * q.Delta
		if q.Func == dsms.AggSum {
			shardDelta *= float64(len(members)) / nTotal
		}
		reply, err := r.upstreams[s].rpc(func(w *wire.Writer) error {
			return w.RegisterAggregate(wire.ClusterAggregate{
				ID: q.ID, Func: string(q.Func), Model: q.Model,
				Delta: shardDelta, F: q.F, Partial: true, SourceIDs: members,
			})
		})
		if err != nil {
			return err
		}
		if reply.tag != wire.TagRegistered {
			return fmt.Errorf("cluster: shard %d replied %v to register", s, reply.tag)
		}
	}
	r.regMu.Lock()
	r.aggs[q.ID] = &routerAgg{q: q, shards: shards, perShard: per}
	r.regMu.Unlock()
	return nil
}

// AnswerAggregate merges per-shard partials into the aggregate answer
// at seq. For sum/avg the shards ship exact-sum expansions and the
// router folds and rounds them — the bit-identical single-server value
// regardless of how members are split. With β > 0 the router serves the
// cached answer while the fresh merge stays within βΔ of it.
func (r *Router) AnswerAggregate(queryID string, seq int) (float64, error) {
	r.regMu.Lock()
	agg := r.aggs[queryID]
	r.regMu.Unlock()
	if agg == nil {
		return 0, fmt.Errorf("cluster: unknown aggregate %s", queryID)
	}
	agg.mu.Lock()
	defer agg.mu.Unlock()
	exp := agg.scratch[:0]
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, s := range agg.shards {
		reply, err := r.upstreams[s].rpc(func(w *wire.Writer) error {
			return w.Query(queryID, int64(seq))
		})
		if err != nil {
			return 0, err
		}
		if reply.tag != wire.TagAnswer {
			return 0, fmt.Errorf("cluster: shard %d replied %v to query", s, reply.tag)
		}
		_, vals, err := wire.DecodeAnswer(reply.p)
		if err != nil {
			return 0, err
		}
		switch agg.q.Func {
		case dsms.AggSum, dsms.AggAvg:
			for _, v := range vals {
				exp = dsms.AddToExpansion(exp, v)
			}
		case dsms.AggMin:
			for _, v := range vals {
				if v < minV {
					minV = v
				}
			}
		default: // AggMax
			for _, v := range vals {
				if v > maxV {
					maxV = v
				}
			}
		}
	}
	agg.scratch = exp
	var val float64
	switch agg.q.Func {
	case dsms.AggSum:
		val = dsms.RoundExpansion(exp)
	case dsms.AggAvg:
		val = dsms.RoundExpansion(exp) / float64(len(agg.q.SourceIDs))
	case dsms.AggMin:
		val = minV
	default:
		val = maxV
	}
	r.tel.aggAnswers.Inc()
	if agg.cachedOK && math.Abs(val-agg.cached) <= r.opts.AggSuppress*agg.q.Delta {
		r.tel.aggSuppressed.Inc()
		return agg.cached, nil
	}
	agg.cached, agg.cachedOK = val, true
	return val, nil
}

// answerQuery resolves a downstream TagQuery: aggregates merge across
// shards, plain queries relay to the stream's current owner.
func (r *Router) answerQuery(queryID string, seq int) ([]float64, error) {
	r.regMu.Lock()
	_, isAgg := r.aggs[queryID]
	q, isPlain := r.queries[queryID]
	r.regMu.Unlock()
	if isAgg {
		v, err := r.AnswerAggregate(queryID, seq)
		if err != nil {
			return nil, err
		}
		return []float64{v}, nil
	}
	if !isPlain {
		return nil, fmt.Errorf("cluster: unknown query %s", queryID)
	}
	shard := r.ring.Owner(q.SourceID)
	reply, err := r.upstreams[shard].rpc(func(w *wire.Writer) error {
		return w.Query(queryID, int64(seq))
	})
	if err != nil {
		return nil, err
	}
	if reply.tag != wire.TagAnswer {
		return nil, fmt.Errorf("cluster: shard %d replied %v to query", shard, reply.tag)
	}
	_, vals, err := wire.DecodeAnswer(reply.p)
	return vals, err
}

// ---------------------------------------------------------------------------
// Shard recovery

// DeadShards returns the indices of upstreams whose connection is down
// — the candidates for ReconnectShard.
func (r *Router) DeadShards() []int {
	var dead []int
	for _, up := range r.upstreams {
		up.mu.Lock()
		if !up.alive {
			dead = append(dead, up.shard)
		}
		up.mu.Unlock()
	}
	return dead
}

// ReconnectShard redials a lost shard and resynchronises: queries and
// aggregates owned by the shard are re-registered (idempotent on the
// shard side — a shard restarting from its WAL already has them), and
// every route on the shard replays its pending window past the shard's
// recovered ResumeSeq. Because the source↔router connection never
// broke, the router also relays the recovered ack downstream — that is
// what reopens the source's send window.
func (r *Router) ReconnectShard(shard int) error {
	if shard < 0 || shard >= len(r.upstreams) {
		return fmt.Errorf("cluster: no shard %d", shard)
	}
	reconnStart := trace.Now()
	up := r.upstreams[shard]
	up.fail(errors.New("cluster: reconnecting")) // idempotent if already down
	if err := up.connect(); err != nil {
		return err
	}

	// Re-register registrations owned by this shard.
	r.regMu.Lock()
	var qs []stream.Query
	var aggs []*routerAgg
	for _, q := range r.queries {
		if r.ring.Owner(q.SourceID) == shard {
			qs = append(qs, q)
		}
	}
	for _, a := range r.aggs {
		if _, ok := a.perShard[shard]; ok {
			aggs = append(aggs, a)
		}
	}
	r.regMu.Unlock()
	beta := r.opts.AggSuppress
	for _, q := range qs {
		reply, err := up.rpc(func(w *wire.Writer) error {
			return w.RegisterQuery(wire.ClusterQuery{ID: q.ID, SourceID: q.SourceID, Model: q.Model, Delta: q.Delta, F: q.F})
		})
		if err != nil {
			return err
		}
		if reply.tag != wire.TagRegistered {
			return fmt.Errorf("cluster: shard %d replied %v to register", shard, reply.tag)
		}
	}
	for _, a := range aggs {
		members := a.perShard[shard]
		shardDelta := (1 - beta) * a.q.Delta
		if a.q.Func == dsms.AggSum {
			shardDelta *= float64(len(members)) / float64(len(a.q.SourceIDs))
		}
		reply, err := up.rpc(func(w *wire.Writer) error {
			return w.RegisterAggregate(wire.ClusterAggregate{
				ID: a.q.ID, Func: string(a.q.Func), Model: a.q.Model,
				Delta: shardDelta, F: a.q.F, Partial: true, SourceIDs: members,
			})
		})
		if err != nil {
			return err
		}
		if reply.tag != wire.TagRegistered {
			return fmt.Errorf("cluster: shard %d replied %v to register", shard, reply.tag)
		}
	}

	// Resync every route on this shard.
	r.routeMu.RLock()
	routes := make([]*route, 0, len(r.byIdx))
	for _, rt := range r.byIdx {
		routes = append(routes, rt)
	}
	r.routeMu.RUnlock()
	for _, rt := range routes {
		rt.mu.Lock()
		if rt.shard != shard {
			rt.mu.Unlock()
			continue
		}
		reply, err := up.rpc(func(w *wire.Writer) error { return w.Hello(rt.sourceID) })
		if err != nil {
			rt.mu.Unlock()
			return err
		}
		if reply.tag != wire.TagInstall {
			rt.mu.Unlock()
			return fmt.Errorf("cluster: shard %d replied %v to hello", shard, reply.tag)
		}
		inst, err := wire.DecodeInstall(reply.p)
		if err != nil {
			rt.mu.Unlock()
			return err
		}
		resume := inst.ResumeSeq
		rt.pendMu.Lock()
		n := 0
		for n < len(rt.pending) && rt.pending[n].seq <= resume {
			rt.free = append(rt.free, rt.pending[n].buf[:0])
			rt.pending[n].buf = nil
			n++
		}
		if n > 0 {
			rt.pending = rt.pending[:copy(rt.pending, rt.pending[n:])]
		}
		replay := make([][]byte, len(rt.pending))
		for i := range rt.pending {
			replay[i] = rt.pending[i].buf
		}
		down := rt.down
		rt.pendMu.Unlock()
		up.mu.Lock()
		werr := up.err
		for _, buf := range replay {
			if werr != nil {
				break
			}
			werr = up.w.Forward(rt.idx, rt.epoch, buf)
		}
		if werr == nil {
			werr = up.w.Flush()
		}
		up.mu.Unlock()
		rt.mu.Unlock()
		if werr != nil {
			up.fail(werr)
			return werr
		}
		if down != nil && resume >= 0 {
			down.relayAck(resume)
		}
	}
	r.tel.reconnects.Inc()
	r.events.record(TopoEvent{
		Kind: EvShardReconnect, Shard: shard,
		DurMs: float64(trace.Now()-reconnStart) / 1e6,
	})
	return nil
}
