// Connectionless UDP transport. DKF updates are small, idempotent by
// sequence number, and loss-tolerant by design — a lost update is just
// another suppressed step the server's prediction covers until the next
// transmission — so the datagram mode keeps no connection state at all:
// every datagram is the 6-byte v2 preamble plus one or more standard
// frames, parsed statelessly and handed to the shard ingest engine,
// whose seq-dedup makes duplicated and reordered datagrams harmless.
//
// What is and is not ordered: per-source apply order is guaranteed (one
// shard worker owns each source and drops anything at or below the last
// applied seq); datagram arrival order is not, and cross-source order
// never was. A source must use one transport at a time — interleaving
// TCP and UDP for the same source id is a misconfiguration (two
// producers would race the dedup boundary).
package dsms

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// UDPServerOptions configures a UDPServer.
type UDPServerOptions struct {
	// MaxDatagram caps accepted datagram sizes. 0 selects 64 KiB (the
	// UDP maximum); oversize datagrams are truncated by the kernel and
	// then rejected as malformed.
	MaxDatagram int
	// ReadBuffer asks the kernel for this SO_RCVBUF. 0 selects 4 MiB —
	// the socket buffer is the only queue between a burst and the
	// engine's rings, so it is sized generously.
	ReadBuffer int
	// RxBatch caps how many datagrams one receive syscall may drain
	// (recvmmsg on Linux). 0 selects 32. Platforms without a batched
	// receive read one datagram per call regardless.
	RxBatch int
	// Engine tunes the ingest engine when the server does not have one
	// attached yet; ignored otherwise.
	Engine EngineOptions
}

func (o UDPServerOptions) withDefaults() UDPServerOptions {
	if o.MaxDatagram <= 0 {
		o.MaxDatagram = 64 << 10
	}
	if o.ReadBuffer <= 0 {
		o.ReadBuffer = 4 << 20
	}
	if o.RxBatch <= 0 {
		o.RxBatch = 32
	}
	if !mmsgAvailable {
		// The portable read path returns one datagram per call; a batch
		// arena deeper than 1 would just be dead memory.
		o.RxBatch = 1
	}
	return o
}

// UDPServer accepts DKF datagrams on one socket and feeds the server's
// shard ingest engine from one reader goroutine. The reader drains
// whole batches per syscall where the platform allows (recvmmsg on
// Linux) and owns every piece of mutable receive state — buffer arena,
// decode scratch, intern map, engine producer — so the steady-state
// receive path (read batch, parse, intern, hand to ring) allocates
// nothing and takes no lock.
//
// One reader is what keeps each source's datagrams in order: the
// socket queue is FIFO, the reader walks each batch in order, and its
// single producer ring per shard hands them to the owning shard worker
// in that order. Readers racing on a shared socket would split one
// source's burst between them, and the shard would then discard the
// earlier updates as stale or pre-bootstrap although the source's
// mirror filter had already folded them.
type UDPServer struct {
	server   *Server
	eng      *engine.Engine
	conn     *net.UDPConn
	ins      *engineInstruments
	maxDgram int
	rd       udpReader

	mu     sync.Mutex
	closed bool
}

// udpReader is the reader goroutine's state. interned maps source-id
// bytes to their one canonical string: a datagram socket multiplexes
// every source, so the stream Reader's single-entry cache would thrash.
type udpReader struct {
	rx       *batchRx
	prod     *engine.Producer
	u        core.Update
	interned map[string]string
	internFn func([]byte) string
	reply    []byte
}

// NewUDPServer binds addr ("host:port", port 0 picks a free one) and
// attaches to server's ingest engine, starting one with opts.Engine if
// none is attached yet. Call Serve to start receiving.
func NewUDPServer(server *Server, addr string, opts UDPServerOptions) (*UDPServer, error) {
	opts = opts.withDefaults()
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp resolve: %w", err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp listen: %w", err)
	}
	// Best effort: some kernels clamp SO_RCVBUF below the request.
	_ = conn.SetReadBuffer(opts.ReadBuffer)
	rx, err := newBatchRx(conn, opts.RxBatch, opts.MaxDatagram)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp reader: %w", err)
	}
	eng := server.StartEngine(opts.Engine)
	t := &UDPServer{
		server:   server,
		eng:      eng,
		conn:     conn,
		ins:      server.engIns,
		maxDgram: opts.MaxDatagram,
		rd:       udpReader{rx: rx, prod: eng.Producer(), interned: make(map[string]string)},
	}
	t.rd.internFn = t.rd.intern
	return t, nil
}

// Addr returns the bound UDP address.
func (t *UDPServer) Addr() net.Addr { return t.conn.LocalAddr() }

// Serve receives datagrams on the calling goroutine until Close: drain
// a batch, route each datagram. It returns nil after Close and the
// socket error otherwise, closing the socket. The engine is shared and
// stays running — shutting it down is its owner's call
// (Server.Engine().Close()). Call Serve once.
func (t *UDPServer) Serve() error {
	for {
		n, err := t.rd.rx.read()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil
			}
			_ = t.Close()
			return fmt.Errorf("dsms: udp read: %w", err)
		}
		t.ins.rxBatch.Observe(int64(n))
		for i := 0; i < n; i++ {
			t.processDatagram(t.rd.rx.msg(i), t.rd.rx.addr(i))
		}
	}
}

// Close stops Serve. Updates already handed to the engine still drain.
func (t *UDPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}

// intern returns the canonical string for a source-id byte slice. The
// map lookup keyed by string(b) does not allocate; only the first
// sighting of a source id does.
func (rd *udpReader) intern(b []byte) string {
	if s, ok := rd.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	rd.interned[s] = s
	return s
}

// processDatagram parses one datagram and routes its frames: updates go
// to the owning shard's ring (TryOffer — under overload the ring sheds
// rather than blocking the socket), hellos get an install reply when
// addr is valid. Unknown tags are skipped for forward compatibility.
// Only the Serve goroutine may call it while Serve runs; tests and
// alloc gates call it directly without Serve.
func (t *UDPServer) processDatagram(p []byte, addr netip.AddrPort) {
	t.ins.datagramsRx.Inc()
	_, rest, err := wire.CheckPreamble(p)
	if err != nil {
		t.ins.datagramsBad.Inc()
		t.server.tel.countWireError(err)
		return
	}
	for len(rest) > 0 {
		tag, payload, next, err := wire.NextFrame(rest, t.maxDgram)
		if err != nil {
			t.ins.datagramsBad.Inc()
			t.server.tel.countWireError(err)
			return
		}
		t.ins.framesRx.Inc()
		t.server.tel.rx(tag, len(payload)+5)
		switch tag {
		case wire.TagUpdate:
			if err := wire.DecodeUpdateInto(payload, &t.rd.u, t.rd.internFn); err != nil {
				t.ins.datagramsBad.Inc()
				t.server.tel.countWireError(err)
				return
			}
			t.rd.prod.TryOffer(t.eng.ShardFor(t.rd.u.SourceID), &t.rd.u)
		case wire.TagHello:
			t.handleHello(payload, addr)
		}
		rest = next
	}
}

// handleHello answers a handshake datagram with an install (or error)
// datagram. Handshakes are rare, so this path may allocate.
func (t *UDPServer) handleHello(payload []byte, addr netip.AddrPort) {
	if !addr.IsValid() {
		return
	}
	id, err := wire.DecodeHello(payload)
	if err != nil {
		t.ins.datagramsBad.Inc()
		return
	}
	reply := wire.AppendPreamble(t.rd.reply[:0], wire.Version, 0)
	inst, err := t.server.InstallReply(id)
	if err != nil {
		reply, err = wire.AppendErrorFrame(reply, err.Error())
	} else {
		reply, err = wire.AppendInstallFrame(reply, inst)
	}
	t.rd.reply = reply
	if err != nil {
		return
	}
	_, _ = t.conn.WriteToUDPAddrPort(reply, addr)
}

// UDPDialOptions configures DialSourceUDP.
type UDPDialOptions struct {
	// HandshakeTimeout bounds each hello → install attempt. 0 selects
	// 500ms.
	HandshakeTimeout time.Duration
	// HandshakeRetries is how many hello datagrams to send before
	// giving up (the handshake is the one loss-sensitive exchange, so
	// it is retried; everything after is fire-and-forget). 0 selects 5.
	HandshakeRetries int
	// BootstrapCopies duplicates the bootstrap update datagram: the
	// bootstrap is the only update whose loss stalls the stream until a
	// retransmission, and the server's dedup drops the extras for free.
	// 0 selects 3.
	BootstrapCopies int
	// Telemetry, as in DialOptions.
	Telemetry *telemetry.Registry
	// Trace attaches a local flight recorder to the agent's source
	// node. Decision evidence does not cross the wire on UDP.
	Trace       bool
	TraceRing   int
	TraceSample int
}

func (o UDPDialOptions) withDefaults() UDPDialOptions {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 500 * time.Millisecond
	}
	if o.HandshakeRetries <= 0 {
		o.HandshakeRetries = 5
	}
	if o.BootstrapCopies <= 0 {
		o.BootstrapCopies = 3
	}
	return o
}

// UDPAgent is the dial-side datagram agent: the same mirror-filter
// Agent as the TCP path, sending each transmitted update as one
// self-describing datagram on a connected UDP socket. There are no
// acks and no resend queue — the DKF protocol's loss tolerance is the
// reliability layer.
type UDPAgent struct {
	conn     *net.UDPConn
	agent    *Agent
	inst     wire.Install
	sourceID string
	copies   int
	scratch  []byte
	tracer   *trace.Recorder
	ins      *AgentInstruments
}

// DialSourceUDP runs the retried hello → install handshake against the
// server at addr and returns a datagram agent for sourceID, resolving
// the installed model from catalog.
//
// If the install reply carries ResumeSeq >= 0 the server already holds
// filter state for this source (recovered from durable storage); a
// fresh agent cannot resume a mirror it never ran, so it must restart
// the stream with a bootstrap — which the server's dedup drops while
// its seq is not newer than the recovered state. Restarting sources
// against a durable server should resume where they left off or use a
// fresh source id; see DESIGN.md §14.
func DialSourceUDP(addr, sourceID string, catalog *Catalog, opts UDPDialOptions) (*UDPAgent, error) {
	opts = opts.withDefaults()
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp resolve: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	hello := wire.AppendPreamble(nil, wire.Version, 0)
	if hello, err = wire.AppendHelloFrame(hello, sourceID); err != nil {
		conn.Close()
		return nil, err
	}
	var inst wire.Install
	got := false
	buf := make([]byte, 64<<10)
attempts:
	for i := 0; i < opts.HandshakeRetries; i++ {
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			return nil, fmt.Errorf("dsms: udp hello: %w", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(opts.HandshakeTimeout))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue attempts
				}
				conn.Close()
				return nil, fmt.Errorf("dsms: udp handshake: %w", err)
			}
			_, rest, err := wire.CheckPreamble(buf[:n])
			if err != nil {
				continue // stray datagram; keep waiting
			}
			tag, payload, _, err := wire.NextFrame(rest, 0)
			if err != nil {
				continue
			}
			switch tag {
			case wire.TagError:
				msg, _ := wire.DecodeError(payload)
				conn.Close()
				return nil, fmt.Errorf("dsms: server error: %s", msg)
			case wire.TagInstall:
				if inst, err = wire.DecodeInstall(payload); err != nil {
					continue
				}
				got = true
				break attempts
			}
		}
	}
	if !got {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp handshake: no install reply from %s after %d attempts", addr, opts.HandshakeRetries)
	}
	_ = conn.SetReadDeadline(time.Time{})
	m, err := catalog.Resolve(inst.Model)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ua := &UDPAgent{conn: conn, inst: inst, sourceID: sourceID, copies: opts.BootstrapCopies}
	cfg := core.Config{SourceID: sourceID, Model: m, Delta: inst.Delta, F: inst.F}
	agent, err := NewAgent(cfg, core.TransportFunc(ua.send))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if opts.Telemetry != nil {
		ua.ins = NewAgentInstruments(opts.Telemetry, sourceID)
		agent.Instrument(ua.ins)
	}
	if opts.Trace {
		ua.tracer = trace.New(trace.Options{RingSize: opts.TraceRing, Sample: opts.TraceSample})
		agent.SetTrace(ua.tracer)
	}
	ua.agent = agent
	return ua, nil
}

// send implements core.Transport: one datagram per transmitted update,
// encoded into a reused scratch buffer (steady state allocates
// nothing). Bootstrap datagrams are duplicated BootstrapCopies times.
func (ua *UDPAgent) send(u core.Update) error {
	var err error
	ua.scratch = wire.AppendPreamble(ua.scratch[:0], wire.Version, 0)
	if ua.scratch, err = wire.AppendUpdateFrame(ua.scratch, &u); err != nil {
		return err
	}
	n := 1
	if u.Bootstrap {
		n = ua.copies
	}
	for i := 0; i < n; i++ {
		if _, err := ua.conn.Write(ua.scratch); err != nil {
			return fmt.Errorf("dsms: udp send: %w", err)
		}
	}
	return nil
}

// Offer feeds one reading to the mirror filter, transmitting iff the
// suppression protocol demands it.
func (ua *UDPAgent) Offer(r stream.Reading) (sent bool, err error) {
	return ua.agent.Offer(r)
}

// Drain is a no-op on UDP — there are no acks to wait for. It exists so
// transport-generic callers can treat both agent kinds alike.
func (ua *UDPAgent) Drain() error { return nil }

// Stats reports the mirror node's offer/send statistics.
func (ua *UDPAgent) Stats() core.SourceStats { return ua.agent.Stats() }

// Install returns the decoded install reply from the handshake.
func (ua *UDPAgent) Install() wire.Install { return ua.inst }

// Tracer returns the local flight recorder (nil unless Trace was set).
func (ua *UDPAgent) Tracer() *trace.Recorder { return ua.tracer }

// TraceNegotiated reports whether decision evidence crosses the wire —
// never on UDP.
func (ua *UDPAgent) TraceNegotiated() bool { return false }

// Close releases the socket.
func (ua *UDPAgent) Close() error { return ua.conn.Close() }

// UDPBatcher multiplexes many sources' updates over one connected UDP
// socket, packing update frames into shared datagrams — the 100k-source
// fan-in shape, where per-source sockets and per-update syscalls are
// exactly the overhead being amortized away. Sealed datagrams are
// additionally batched SendBatch at a time into one transmit syscall
// (sendmmsg on Linux). Safe for concurrent use; Flush transmits
// everything pending, sealed or not.
type UDPBatcher struct {
	mu         sync.Mutex
	conn       *net.UDPConn
	tx         *batchTx
	pend       [][]byte // pend[:npend] sealed; pend[npend] open; slots reused
	npend      int
	flushBytes int
	sendBatch  int
}

// UDPBatcherOptions configures DialUDPBatcherOpts.
type UDPBatcherOptions struct {
	// FlushBytes caps the datagram payload before the open datagram is
	// sealed; <= 0 selects 1200 (conservatively below common path
	// MTUs). Values below one frame (e.g. 1) seal after every update —
	// the one-update-per-datagram shape of the per-source UDPAgent.
	FlushBytes int
	// SendBatch is how many sealed datagrams accumulate before one
	// transmit syscall carries them all; <= 0 selects 16. 1 reproduces
	// the write-per-datagram behavior.
	SendBatch int
}

// DialUDPBatcher connects a batching sender to the server at addr.
// flushBytes is UDPBatcherOptions.FlushBytes; the send batch takes its
// default.
func DialUDPBatcher(addr string, flushBytes int) (*UDPBatcher, error) {
	return DialUDPBatcherOpts(addr, UDPBatcherOptions{FlushBytes: flushBytes})
}

// DialUDPBatcherOpts connects a batching sender to the server at addr.
func DialUDPBatcherOpts(addr string, opts UDPBatcherOptions) (*UDPBatcher, error) {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 1200
	}
	if opts.SendBatch <= 0 {
		opts.SendBatch = 16
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp resolve: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	tx, err := newBatchTx(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	return &UDPBatcher{conn: conn, tx: tx, flushBytes: opts.FlushBytes, sendBatch: opts.SendBatch}, nil
}

// curSlot returns the open datagram's slot, growing the slot table on
// first use. Slot backing arrays are retained across transmits, so the
// steady state allocates nothing.
func (b *UDPBatcher) curSlot() *[]byte {
	for len(b.pend) <= b.npend {
		b.pend = append(b.pend, nil)
	}
	return &b.pend[b.npend]
}

// Send appends u's frame to the open datagram, sealing it first if
// full. Implements core.Transport, so per-source Agents can share one
// batcher: NewAgent(cfg, batcher).
func (b *UDPBatcher) Send(u core.Update) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.curSlot()
	if len(*cur) >= b.flushBytes {
		if err := b.sealLocked(); err != nil {
			return err
		}
		cur = b.curSlot()
	}
	if len(*cur) == 0 {
		*cur = wire.AppendPreamble(*cur, wire.Version, 0)
	}
	var err error
	if *cur, err = wire.AppendUpdateFrame(*cur, &u); err != nil {
		return err
	}
	return nil
}

// sealLocked closes the open datagram and transmits once sendBatch
// datagrams are sealed.
func (b *UDPBatcher) sealLocked() error {
	if b.npend < len(b.pend) && len(b.pend[b.npend]) > 0 {
		b.npend++
	}
	if b.npend >= b.sendBatch {
		return b.transmitLocked()
	}
	return nil
}

// transmitLocked hands every sealed datagram to one batched send.
func (b *UDPBatcher) transmitLocked() error {
	if b.npend == 0 {
		return nil
	}
	pkts := b.pend[:b.npend]
	err := b.tx.sendAll(pkts)
	for i := range pkts {
		pkts[i] = pkts[i][:0]
	}
	b.npend = 0
	if err != nil {
		return fmt.Errorf("dsms: udp send: %w", err)
	}
	return nil
}

// Flush transmits everything pending: the open datagram is sealed and
// the whole sealed set goes out.
func (b *UDPBatcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.npend < len(b.pend) && len(b.pend[b.npend]) > 0 {
		b.npend++
	}
	return b.transmitLocked()
}

// Close flushes and releases the socket.
func (b *UDPBatcher) Close() error {
	ferr := b.Flush()
	cerr := b.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
