package dsms

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// The TCP transport speaks the length-prefixed binary framing protocol
// of internal/dsms/wire. A source connection exchanges preambles, then
// hello → install, then ships update frames *pipelined*: the agent does
// not wait for acknowledgements, the server acks cumulatively by
// sequence number, and a configurable window of unacked updates
// provides backpressure. Server-side failures arrive asynchronously as
// error frames and fail the agent's next Offer. Query clients remain
// synchronous request/response.

// DefaultWindow is the default number of unacknowledged updates a
// RemoteAgent keeps in flight before Offer blocks for acks.
const DefaultWindow = 64

// errAgentClosed reports an operation on a RemoteAgent after Close.
var errAgentClosed = errors.New("dsms: agent closed")

// DialOptions tunes a RemoteAgent connection.
type DialOptions struct {
	// Window is the maximum number of unacked updates in flight.
	// 0 means DefaultWindow; 1 reproduces the synchronous
	// ack-per-update protocol.
	Window int
	// MaxFrame caps accepted frame sizes; 0 means wire.DefaultMaxFrame.
	MaxFrame int
	// Telemetry, when non-nil, receives the agent's instrument set
	// (offers, sends, ack RTT, window occupancy) under per-source
	// labels. Recording is allocation-free, so enabling it does not
	// disturb the pipelined send path's alloc budget.
	Telemetry *telemetry.Registry
	// Trace attaches a flight recorder to the agent's source node and —
	// when the server advertises wire.FeatTrace — ships each send
	// decision's evidence ahead of its update frame so the server can
	// audit the suppression protocol end to end. Against a server
	// without the feature bit the recorder still runs locally and
	// nothing extra crosses the wire.
	Trace bool
	// TraceRing sizes the local flight recorder ring; 0 means
	// trace.DefaultRingSize. Only meaningful with Trace.
	TraceRing int
	// TraceSample records detailed per-reading events for one reading
	// in every TraceSample; <= 1 records all. Decisions that transmit
	// are always recorded. Only meaningful with Trace.
	TraceSample int
}

// ServerOptions tunes a TCPServer.
type ServerOptions struct {
	// MaxFrame caps accepted frame sizes; 0 means wire.DefaultMaxFrame.
	MaxFrame int
}

// TCPServer exposes a Server over the binary wire protocol.
type TCPServer struct {
	server   *Server
	ln       net.Listener
	maxFrame int
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	serveWG  sync.WaitGroup
}

// NewTCPServer wraps server with a listener on addr (e.g.
// "127.0.0.1:0"). Call Serve to start accepting and Close to stop.
func NewTCPServer(server *Server, addr string) (*TCPServer, error) {
	return NewTCPServerOptions(server, addr, ServerOptions{})
}

// NewTCPServerOptions is NewTCPServer with explicit limits.
func NewTCPServerOptions(server *Server, addr string, opts ServerOptions) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: listen: %w", err)
	}
	return &TCPServer{server: server, ln: ln, maxFrame: opts.MaxFrame, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listener address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// Serve accepts and handles connections until Close is called. It
// returns nil on graceful shutdown.
func (t *TCPServer) Serve() error {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			if !closed {
				// A listener failure outside Close must not leak the
				// in-flight handler goroutines past Serve's return:
				// close their connections so the handlers unwind, then
				// wait them out exactly as the graceful path does.
				for c := range t.conns {
					c.Close()
				}
			}
			t.mu.Unlock()
			t.serveWG.Wait()
			if closed {
				return nil
			}
			return fmt.Errorf("dsms: accept: %w", err)
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.serveWG.Add(1)
		go func() {
			defer t.serveWG.Done()
			t.handle(conn)
		}()
	}
}

// Close stops the listener and closes every open connection.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	return t.ln.Close()
}

func (t *TCPServer) handle(conn net.Conn) {
	tel := t.server.tel
	tel.connsTotal.Inc()
	tel.connsActive.Add(1)
	defer func() {
		conn.Close()
		tel.connsActive.Add(-1)
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	r := wire.NewReader(conn, 0, t.maxFrame)
	w := wire.NewWriter(conn, 0, t.maxFrame)
	r.OnFrame = tel.rx
	w.OnFrame = tel.tx

	// Preamble exchange: validate the client's, answer with ours. A
	// peer that is not speaking the protocol at all gets an error frame
	// on the off chance it can parse one, then the close.
	ver, err := r.ReadPreamble()
	if err != nil {
		tel.countWireError(err)
		w.Error(err.Error())
		w.Flush()
		return
	}
	// Advertise trace-frame acceptance only while tracing is on, so
	// non-tracing servers never have to parse the optional tag. Cluster
	// framing is always accepted — the handler below understands the
	// tags whether or not this server runs as a shard, and a router
	// requires the bit before it will forward upstream.
	feats := wire.FeatCluster
	if t.server.TraceEnabled() {
		// FeatHopTrace invites the extended TagTrace payloads that carry
		// decision/router-hop timestamps (see wire/hoptrace.go) so a
		// spliced cross-node trail can order events by source time.
		feats |= wire.FeatTrace | wire.FeatHopTrace
	}
	if w.WritePreambleFeatures(wire.Version, feats) != nil {
		return
	}
	if err := wire.CheckVersion(ver); err != nil {
		tel.countWireError(err)
		w.Error(fmt.Sprintf("dsms: %v", err))
		w.Flush()
		return
	}
	if w.Flush() != nil {
		return
	}

	// Per-connection decode state: the update struct and its Values
	// slice are reused across frames, so the steady-state ingest path
	// performs no allocations. pend holds decision evidence from a
	// trace frame until the update it describes arrives.
	var u core.Update
	var ackSeq int64
	pendingAck := false
	var pend trace.DecisionInfo
	havePend := false
	var pendHop wire.TraceHop
	haveHop := false

	// Forward-ack coalescing (cluster mode): a burst of forwarded
	// updates acks once per route index, not once per frame. fwdOrder
	// keeps the flush order deterministic (first-touched first).
	var fwdAcks map[uint32]int64
	var fwdOrder []uint32

	// flushAck writes the cumulative ack for everything folded so far.
	flushAck := func() bool {
		if pendingAck {
			if w.Ack(ackSeq) != nil {
				return false
			}
			pendingAck = false
		}
		for _, idx := range fwdOrder {
			if w.ForwardAck(idx, fwdAcks[idx]) != nil {
				return false
			}
			delete(fwdAcks, idx)
		}
		fwdOrder = fwdOrder[:0]
		return w.Flush() == nil
	}

	for {
		tag, p, err := r.Next()
		if err != nil {
			tel.countWireError(err)
			// Tell a well-behaved client why an oversized or malformed
			// frame killed the connection; a vanished peer gets nothing.
			var fse *wire.FrameSizeError
			if errors.As(err, &fse) || errors.Is(err, wire.ErrMalformed) {
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
			}
			return
		}
		switch tag {
		case wire.TagHello:
			id, err := wire.DecodeHello(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			cfg, err := t.server.InstallFor(id)
			if err != nil {
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			// ResumeSeq tells a reconnecting source with live mirror
			// state how far this server's (possibly crash-recovered)
			// filter has advanced: resend unacked updates past it, no
			// re-bootstrap. A fresh source ignores it and bootstraps.
			if w.Install(cfg.SourceID, cfg.Model.Name, cfg.Delta, cfg.F, t.server.ResumeSeq(id)) != nil || !flushAck() {
				return
			}
		case wire.TagUpdate:
			if err := r.DecodeUpdate(p, &u); err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			var wd *trace.DecisionInfo
			if havePend {
				havePend, haveHop = false, false
				if pend.Seq == int64(u.Seq) {
					wd = &pend
				}
			}
			if err := t.server.HandleUpdateTraced(u, wd, len(p)+5); err != nil {
				// Delivered asynchronously: the client fails its next
				// Offer. Keep reading — the client decides when to hang up.
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			ackSeq = int64(u.Seq)
			pendingAck = true
			// Coalesce acks: only flush when no further frames are
			// already buffered, so a burst of updates costs one ack
			// write-out instead of one per update.
			if r.Buffered() == 0 && !flushAck() {
				return
			}
		case wire.TagTrace:
			d, hop, hasHop, err := wire.DecodeTraceExt(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			// Not acked: the evidence travels with (and is confirmed by
			// the ack of) the update frame that follows it.
			pend, havePend = d, true
			pendHop, haveHop = hop, hasHop
		case wire.TagQuery:
			qid, seq, err := r.DecodeQuery(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			vals, err := t.server.Answer(qid, int(seq))
			if err != nil {
				// The id may name an aggregate or windowed query instead.
				// A Partial aggregate answers its mergeable partial vector
				// (what a router merges); others answer a scalar.
				if v, aggErr := t.server.AnswerAggregateVals(qid, int(seq)); aggErr == nil {
					vals, err = v, nil
				} else if v, winErr := t.server.AnswerWindow(qid, int(seq)); winErr == nil {
					vals, err = []float64{v}, nil
				}
			}
			if err != nil {
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			if w.Answer(qid, vals) != nil || !flushAck() {
				return
			}
		case wire.TagForward:
			// A router-forwarded update: the envelope carries the route
			// index the ack must name (the downstream seq alone is
			// ambiguous across sources sharing the upstream connection)
			// and the topology epoch the router routed under.
			env, err := wire.DecodeForward(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			t.server.ObserveEpoch(env.Epoch)
			if err := r.DecodeUpdate(env.Payload, &u); err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			if _, rel := t.server.SourceReleased(u.SourceID); rel {
				// A stale owner: this stream migrated away. Rejecting —
				// never folding — keeps exactly one shard authoritative.
				if w.Error(fmt.Sprintf("dsms: source %s released from this shard", u.SourceID)) != nil || !flushAck() {
					return
				}
				continue
			}
			var wd *trace.DecisionInfo
			wdHop := false
			if havePend {
				havePend = false
				if pend.Seq == int64(u.Seq) {
					wd = &pend
					wdHop = haveHop
				}
				haveHop = false
			}
			if wd != nil && wdHop {
				// Splice the router's hop into this stream's trail before
				// the apply/wal events so the ring preserves causal order.
				t.server.RecordForwardHop(u.SourceID, wd.TraceID, wd.Seq, pendHop)
			}
			if err := t.server.HandleUpdateTraced(u, wd, len(p)+5); err != nil {
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			if _, ok := fwdAcks[env.Idx]; !ok {
				if fwdAcks == nil {
					fwdAcks = make(map[uint32]int64)
				}
				fwdOrder = append(fwdOrder, env.Idx)
			}
			fwdAcks[env.Idx] = int64(u.Seq)
			if r.Buffered() == 0 && !flushAck() {
				return
			}
		case wire.TagClusterReg:
			kind, q, agg, err := wire.DecodeClusterReg(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			// Registration is idempotent-adopt: a router re-registering
			// after a shard restart finds the queries recovered from the
			// WAL and simply confirms them.
			var id string
			var regErr error
			if kind == wire.RegAggregate {
				id = agg.ID
				if !t.server.HasAggregate(agg.ID) {
					regErr = t.server.RegisterAggregate(AggregateQuery{
						ID: agg.ID, Func: AggFunc(agg.Func), Model: agg.Model,
						Delta: agg.Delta, F: agg.F, Partial: agg.Partial, SourceIDs: agg.SourceIDs,
					})
				}
			} else {
				id = q.ID
				if !t.server.HasQuery(q.ID) {
					regErr = t.server.Register(stream.Query{
						ID: q.ID, SourceID: q.SourceID, Model: q.Model, Delta: q.Delta, F: q.F,
					})
				}
			}
			if regErr != nil {
				if w.Error(regErr.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			if w.Registered(id) != nil || !flushAck() {
				return
			}
		case wire.TagSnapshot:
			srcID, epoch, err := wire.DecodeSnapshot(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			payload, resumeSeq, err := t.server.SnapshotSource(srcID, epoch)
			if err != nil {
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			if w.WriteStateAck(wire.StateAck{SourceID: srcID, ResumeSeq: resumeSeq, Epoch: epoch, Payload: payload}) != nil || !flushAck() {
				return
			}
		case wire.TagRestore:
			epoch, payload, err := wire.DecodeRestore(p)
			if err != nil {
				tel.countWireError(err)
				w.Error(fmt.Sprintf("dsms: %v", err))
				w.Flush()
				return
			}
			srcID, resumeSeq, err := t.server.RestoreSource(payload, epoch)
			if err != nil {
				if w.Error(err.Error()) != nil || !flushAck() {
					return
				}
				continue
			}
			if w.WriteStateAck(wire.StateAck{SourceID: srcID, ResumeSeq: resumeSeq, Epoch: epoch}) != nil || !flushAck() {
				return
			}
		default:
			tel.errUnknownTag.Inc()
			if w.Error(fmt.Sprintf("dsms: unknown message tag 0x%02x", byte(tag))) != nil || !flushAck() {
				return
			}
		}
	}
}

// RemoteAgent is a source agent connected to a TCPServer. It performs
// the install handshake on dial and ships updates pipelined: Offer
// returns as soon as the update frame is buffered, a background reader
// consumes the server's cumulative acks, and at most Window updates stay
// unacknowledged before Offer blocks. Server errors are sticky and fail
// every subsequent Offer, Drain, and Close.
type RemoteAgent struct {
	agent  *Agent
	window int

	// Redial state for Reconnect: how this agent was built.
	addr     string
	sourceID string
	catalog  *Catalog
	opts     DialOptions
	cfg      core.Config

	mu          sync.Mutex
	cond        *sync.Cond
	conn        net.Conn
	w           *wire.Writer
	outstanding []int64 // unacked update seqs, oldest first (monotonic)
	sendTimes   []int64 // send timestamps parallel to outstanding (telemetry only)
	// pending retains the unacked updates themselves (parallel to
	// outstanding) so a reconnect can resend exactly what a crashed
	// server may have lost. Process hands each transmitted update a
	// fresh Values slice, so retention adds no per-send allocations.
	pending   []core.Update
	lastAcked int64 // highest cumulatively acked seq (-1 before any)
	err       error // sticky transport/server error
	closing   bool  // suppresses the close-induced read error

	// wireTrace is true when both sides opted into trace frames: the
	// agent asked for tracing and the connected server advertised
	// wire.FeatTrace. Re-evaluated on every (re)connect, so a tracing
	// agent keeps interoperating with servers that lack the feature.
	wireTrace bool
	// wireHop is true when the server additionally advertised
	// wire.FeatHopTrace: trace frames then carry the decision timestamp
	// (73-byte form) so downstream recorders stamp the relayed decision
	// with source time. Re-evaluated with wireTrace on every connect.
	wireHop bool
	tracer  *trace.Recorder // local flight recorder; nil unless opts.Trace

	ins *AgentInstruments // optional; set once at dial, nil-safe

	readerDone chan struct{}
}

// DialSource connects sourceID to the server at addr with default
// options, resolving the installed model from catalog — the agent and
// server must share catalog contents by name.
func DialSource(addr, sourceID string, catalog *Catalog) (*RemoteAgent, error) {
	return DialSourceOptions(addr, sourceID, catalog, DialOptions{})
}

// dialHandshake dials addr and runs the preamble + hello → install
// exchange, returning the connection, its framed writer/reader, the
// decoded install reply, and the server's advertised feature bits. On
// error the connection is already closed.
func dialHandshake(addr, sourceID string, window int, opts DialOptions) (net.Conn, *wire.Writer, *wire.Reader, wire.Install, byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, nil, wire.Install{}, 0, fmt.Errorf("dsms: dial: %w", err)
	}
	// Size the write buffer for a full window of small update frames so
	// coalesced bursts reach the kernel in one write.
	w := wire.NewWriter(conn, 64*window, opts.MaxFrame)
	r := wire.NewReader(conn, 0, opts.MaxFrame)
	fail := func(err error) (net.Conn, *wire.Writer, *wire.Reader, wire.Install, byte, error) {
		conn.Close()
		return nil, nil, nil, wire.Install{}, 0, err
	}
	if err := w.WritePreamble(wire.Version); err != nil {
		return fail(fmt.Errorf("dsms: send: %w", err))
	}
	if err := w.Hello(sourceID); err != nil {
		return fail(fmt.Errorf("dsms: send: %w", err))
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("dsms: send: %w", wire.MapConnErr(err)))
	}
	ver, feats, err := r.ReadPreambleFeatures()
	if err != nil {
		return fail(fmt.Errorf("dsms: handshake: %w", recvErr(err)))
	}
	if err := wire.CheckVersion(ver); err != nil {
		return fail(fmt.Errorf("dsms: handshake: %w", err))
	}
	tag, p, err := r.Next()
	if err != nil {
		return fail(fmt.Errorf("dsms: handshake: %w", recvErr(err)))
	}
	if tag == wire.TagError {
		msg, _ := wire.DecodeError(p)
		return fail(fmt.Errorf("dsms: server error: %s", msg))
	}
	if tag != wire.TagInstall {
		return fail(fmt.Errorf("dsms: unexpected handshake reply %v", tag))
	}
	inst, err := wire.DecodeInstall(p)
	if err != nil {
		return fail(fmt.Errorf("dsms: handshake: %w", err))
	}
	return conn, w, r, inst, feats, nil
}

// DialSourceOptions is DialSource with an explicit ack window.
func DialSourceOptions(addr, sourceID string, catalog *Catalog, opts DialOptions) (*RemoteAgent, error) {
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	conn, w, r, inst, feats, err := dialHandshake(addr, sourceID, window, opts)
	if err != nil {
		return nil, err
	}
	m, err := catalog.Resolve(inst.Model)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ra := &RemoteAgent{
		conn:       conn,
		window:     window,
		addr:       addr,
		sourceID:   sourceID,
		catalog:    catalog,
		opts:       opts,
		w:          w,
		lastAcked:  -1,
		readerDone: make(chan struct{}),
	}
	ra.cond = sync.NewCond(&ra.mu)
	ra.cfg = core.Config{SourceID: sourceID, Model: m, Delta: inst.Delta, F: inst.F}
	agent, err := NewAgent(ra.cfg, core.TransportFunc(ra.sendUpdate))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if opts.Telemetry != nil {
		ra.ins = NewAgentInstruments(opts.Telemetry, sourceID)
		agent.Instrument(ra.ins)
	}
	if opts.Trace {
		ra.tracer = trace.New(trace.Options{RingSize: opts.TraceRing, Sample: opts.TraceSample})
		agent.SetTrace(ra.tracer)
		ra.wireTrace = feats&wire.FeatTrace != 0
		ra.wireHop = ra.wireTrace && feats&wire.FeatHopTrace != 0
	}
	ra.agent = agent
	go ra.readLoop(r)
	return ra, nil
}

// recvErr dresses a receive failure for the caller, keeping the
// clean-close/truncation distinction inspectable with errors.Is.
func recvErr(err error) error {
	if errors.Is(err, core.ErrPeerClosed) {
		return fmt.Errorf("dsms: server closed connection: %w", err)
	}
	return fmt.Errorf("dsms: receive: %w", err)
}

// readLoop consumes ack and error frames until the connection dies. It
// also implements the flush half of the self-clocking write coalescing:
// whenever acks free window space, any frames buffered since the last
// write-out are flushed, so burst batch size adapts to the ack rate the
// way TCP's self-clocking does.
func (r *RemoteAgent) readLoop(rd *wire.Reader) {
	defer close(r.readerDone)
	for {
		tag, p, err := rd.Next()
		if err != nil {
			r.fail(recvErr(err))
			return
		}
		switch tag {
		case wire.TagAck:
			seq, err := wire.DecodeAck(p)
			if err != nil {
				r.fail(fmt.Errorf("dsms: %w", err))
				return
			}
			r.mu.Lock()
			if seq > r.lastAcked {
				r.lastAcked = seq
			}
			n := 0
			for n < len(r.outstanding) && r.outstanding[n] <= seq {
				n++
			}
			if n > 0 {
				if r.ins != nil {
					now := nowNanos()
					for i := 0; i < n; i++ {
						r.ins.observeAckRTT(now - r.sendTimes[i])
					}
					r.sendTimes = r.sendTimes[:copy(r.sendTimes, r.sendTimes[n:])]
				}
				r.outstanding = r.outstanding[:copy(r.outstanding, r.outstanding[n:])]
				r.pending = r.pending[:copy(r.pending, r.pending[n:])]
				r.ins.setWindow(len(r.outstanding))
			}
			if r.err == nil && r.w.Buffered() > 0 {
				if err := r.w.Flush(); err != nil {
					r.err = fmt.Errorf("dsms: send: %w", err)
				}
			}
			r.cond.Broadcast()
			r.mu.Unlock()
		case wire.TagError:
			msg, _ := wire.DecodeError(p)
			r.fail(fmt.Errorf("dsms: server error: %s", msg))
			return
		default:
			r.fail(fmt.Errorf("dsms: unexpected %v frame from server", tag))
			return
		}
	}
}

// fail records the first transport error and wakes all waiters. A read
// failure after Close is the expected teardown, not an error.
func (r *RemoteAgent) fail(err error) {
	r.mu.Lock()
	if r.err == nil && !r.closing {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// sendUpdate implements core.Transport: buffer the frame, enforce the
// window, and flush only when no ack is in flight to trigger the flush
// from readLoop (pipelined sends coalesce into bursts).
func (r *RemoteAgent) sendUpdate(u core.Update) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.err == nil && !r.closing && len(r.outstanding) >= r.window {
		// Everything buffered must be on the wire before blocking, or
		// the acks we are waiting for can never be generated.
		if r.w.Buffered() > 0 {
			if err := r.w.Flush(); err != nil {
				r.err = fmt.Errorf("dsms: send: %w", err)
				break
			}
		}
		r.cond.Wait()
	}
	if r.closing {
		return errAgentClosed
	}
	if r.err != nil {
		// The connection is broken, but the mirror filter has already
		// folded this update in (core.SourceNode.Process mutates before
		// transmitting). Dropping it would silently desynchronize KFs
		// from KFm, so retain it for Reconnect to resend; the caller
		// sees the sticky error and decides when to redial.
		r.pending = append(r.pending, u)
		return r.err
	}
	if r.wireTrace {
		// Ship the decision evidence ahead of its update so the server
		// can attach it to the apply. LastDecision is the node's verdict
		// on the reading that produced this very send, so the sequence
		// numbers agree; a resent update (whose decision is long gone)
		// simply travels untraced.
		if d := r.agent.LastDecision(); d.Seq == int64(u.Seq) {
			var terr error
			if r.wireHop {
				// Stamp the decision with this node's trace clock; the
				// 73-byte form carries it to hop-capable peers.
				d.At = trace.Now()
				terr = r.w.TraceAt(&d)
			} else {
				terr = r.w.Trace(&d)
			}
			if terr != nil {
				r.err = fmt.Errorf("dsms: send: %w", terr)
				r.pending = append(r.pending, u)
				return r.err
			}
		}
	}
	if err := r.w.Update(&u); err != nil {
		r.err = fmt.Errorf("dsms: send: %w", err)
		r.pending = append(r.pending, u)
		return r.err
	}
	if r.tracer != nil {
		d := r.agent.LastDecision()
		r.tracer.Record(&trace.Event{TraceID: d.TraceID, Seq: int64(u.Seq), Kind: trace.KindWireTx, Aux: int64(u.WireBytes())})
	}
	r.outstanding = append(r.outstanding, int64(u.Seq))
	r.pending = append(r.pending, u)
	if r.ins != nil {
		r.sendTimes = append(r.sendTimes, nowNanos())
		r.ins.setWindow(len(r.outstanding))
	}
	if len(r.outstanding) == 1 {
		// No ack is due, so nothing will trigger a flush from the read
		// side: write out now. While acks are in flight, readLoop
		// flushes on their arrival instead, coalescing this frame with
		// its successors.
		if err := r.w.Flush(); err != nil {
			r.err = fmt.Errorf("dsms: send: %w", err)
			return r.err
		}
	}
	return nil
}

// Err returns the sticky transport error, if any — the asynchronous
// delivery point for server-side failures of pipelined updates.
func (r *RemoteAgent) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Offer processes one reading through the DKF source node, transmitting
// if required. It returns whether an update was shipped. An error
// reported asynchronously for an earlier pipelined update fails the
// next Offer.
func (r *RemoteAgent) Offer(reading stream.Reading) (bool, error) {
	if err := r.Err(); err != nil {
		return false, err
	}
	return r.agent.Offer(reading)
}

// Run drives an entire source stream, then drains the pipeline so the
// server has folded every update before Run returns.
func (r *RemoteAgent) Run(src stream.Source) error {
	if err := r.agent.Run(src); err != nil {
		return err
	}
	return r.Drain()
}

// Drain flushes buffered frames and blocks until the server has
// acknowledged every in-flight update, returning the sticky error if
// the pipeline broke.
func (r *RemoteAgent) Drain() error {
	if r.ins != nil {
		start := nowNanos()
		defer func() { r.ins.observeDrain(nowNanos() - start) }()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && r.w.Buffered() > 0 {
		if err := r.w.Flush(); err != nil {
			r.err = fmt.Errorf("dsms: send: %w", err)
		}
	}
	for r.err == nil && !r.closing && len(r.outstanding) > 0 {
		r.cond.Wait()
	}
	if r.err == nil && r.closing && len(r.outstanding) > 0 {
		return errAgentClosed
	}
	return r.err
}

// Stats exposes the source node counters.
func (r *RemoteAgent) Stats() core.SourceStats { return r.agent.Stats() }

// Tracer returns the agent's local flight recorder, or nil when the
// agent was dialed without Trace.
func (r *RemoteAgent) Tracer() *trace.Recorder { return r.tracer }

// TraceNegotiated reports whether the server advertised the trace
// feature, i.e. whether decision frames precede this agent's updates
// on the wire.
func (r *RemoteAgent) TraceNegotiated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wireTrace
}

// Reconnect re-establishes the server connection after a transport
// failure and resends every update the (possibly crash-recovered)
// server may not have durably applied. The install reply's ResumeSeq —
// the sequence the server's recovered filter has reached — decides
// what to resend: pending updates at or below it were recovered and
// are dropped, the rest are retransmitted in order. Mirror synchrony
// survives because the resent suffix is exactly the suffix the server
// missed. Reconnect fails if the server's recovered state predates an
// update it already acknowledged (state loss a resend cannot repair)
// or if the reinstalled procedure no longer matches the one this
// agent mirrors; the sticky error is cleared only on success.
func (r *RemoteAgent) Reconnect() error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return errAgentClosed
	}
	oldConn := r.conn
	r.mu.Unlock()

	// Tear down the old connection and wait out its reader so the old
	// readLoop cannot race the swap below.
	oldConn.Close()
	<-r.readerDone

	conn, w, rd, inst, feats, err := dialHandshake(r.addr, r.sourceID, r.window, r.opts)
	if err != nil {
		return err
	}
	if inst.Model != r.cfg.Model.Name || inst.Delta != r.cfg.Delta || inst.F != r.cfg.F {
		conn.Close()
		return fmt.Errorf("dsms: reconnect: server procedure changed (model %s delta=%v F=%v; agent mirrors model %s delta=%v F=%v)",
			inst.Model, inst.Delta, inst.F, r.cfg.Model.Name, r.cfg.Delta, r.cfg.F)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		conn.Close()
		return errAgentClosed
	}
	if inst.ResumeSeq < r.lastAcked {
		conn.Close()
		return fmt.Errorf("dsms: reconnect: server recovered to seq %d, behind acknowledged seq %d — durable state lost", inst.ResumeSeq, r.lastAcked)
	}
	// Drop the pending prefix the recovered server already holds.
	n := 0
	for n < len(r.pending) && int64(r.pending[n].Seq) <= inst.ResumeSeq {
		n++
	}
	r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	r.conn = conn
	r.w = w
	r.err = nil
	// The replacement server may or may not speak trace frames;
	// renegotiate rather than assume (resent updates below carry no
	// fresh decisions, so they are untraced either way).
	r.wireTrace = r.opts.Trace && feats&wire.FeatTrace != 0
	r.wireHop = r.wireTrace && feats&wire.FeatHopTrace != 0
	r.outstanding = r.outstanding[:0]
	r.sendTimes = r.sendTimes[:0]
	r.readerDone = make(chan struct{})
	// Retransmit the suffix the server missed before starting the new
	// reader, so resent frames precede anything a concurrent Offer
	// ships on the fresh connection.
	for i := range r.pending {
		u := &r.pending[i]
		if err := r.w.Update(u); err != nil {
			r.err = fmt.Errorf("dsms: send: %w", err)
			break
		}
		r.outstanding = append(r.outstanding, int64(u.Seq))
		if r.ins != nil {
			r.sendTimes = append(r.sendTimes, nowNanos())
		}
	}
	if r.err == nil && r.w.Buffered() > 0 {
		if err := r.w.Flush(); err != nil {
			r.err = fmt.Errorf("dsms: send: %w", err)
		}
	}
	r.ins.setWindow(len(r.outstanding))
	go r.readLoop(rd)
	r.cond.Broadcast()
	return r.err
}

// Close tears down the connection after a best-effort flush and waits
// for the reader to exit. Use Drain first when every update must be
// confirmed delivered.
func (r *RemoteAgent) Close() error {
	r.mu.Lock()
	r.closing = true
	if r.err == nil && r.w.Buffered() > 0 {
		r.w.Flush()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	err := r.conn.Close()
	<-r.readerDone
	return err
}

// QueryClient asks a TCPServer for current query answers over the
// binary protocol, one synchronous request/response at a time.
type QueryClient struct {
	conn net.Conn
	mu   sync.Mutex
	w    *wire.Writer
	r    *wire.Reader
}

// DialQuery connects a query client to the server at addr and validates
// the protocol preamble.
func DialQuery(addr string) (*QueryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: dial: %w", err)
	}
	q := &QueryClient{conn: conn, w: wire.NewWriter(conn, 0, 0), r: wire.NewReader(conn, 0, 0)}
	if err := q.w.WritePreamble(wire.Version); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	if err := q.w.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	ver, err := q.r.ReadPreamble()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: handshake: %w", err)
	}
	if err := wire.CheckVersion(ver); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: handshake: %w", err)
	}
	return q, nil
}

// Ask evaluates queryID at reading index seq.
func (q *QueryClient) Ask(queryID string, seq int) ([]float64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.w.Query(queryID, int64(seq)); err != nil {
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	if err := q.w.Flush(); err != nil {
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	tag, p, err := q.r.Next()
	if err != nil {
		return nil, recvErr(err)
	}
	switch tag {
	case wire.TagAnswer:
		_, vals, err := wire.DecodeAnswer(p)
		if err != nil {
			return nil, fmt.Errorf("dsms: %w", err)
		}
		return vals, nil
	case wire.TagError:
		msg, _ := wire.DecodeError(p)
		return nil, fmt.Errorf("dsms: server error: %s", msg)
	default:
		return nil, fmt.Errorf("dsms: expected answer, got %v", tag)
	}
}

// Close tears down the connection.
func (q *QueryClient) Close() error { return q.conn.Close() }
