// Package wire implements the compact binary framing protocol spoken
// between dsms source agents, query clients, and the central TCP
// server. It replaces the reflection-driven gob envelope protocol: every
// message is a length-prefixed frame with a one-byte tag and fixed-width
// little-endian fields, so steady-state update frames encode and decode
// with zero allocations into per-connection scratch buffers.
//
// A connection opens with a 6-byte preamble in each direction — 4 magic
// bytes, a protocol version, and a feature-bit byte (reserved and zero
// before tracing) — so a peer speaking the wrong protocol (or a future
// incompatible version) is rejected with a clear error instead of an
// opaque decode failure. Frames follow:
//
//	uint32 LE  length   (tag + payload bytes; never 0, capped by MaxFrame)
//	uint8      tag
//	[]byte     payload  (length-1 bytes, layout per tag)
//
// See DESIGN.md "Wire protocol" for the byte-by-byte payload layouts.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"syscall"

	"streamkf/internal/core"
	"streamkf/internal/trace"
)

// Version is the protocol version this package speaks. Peers with a
// different version are rejected during the preamble exchange.
//
// Version history:
//
//	1  initial binary framing (replaced gob)
//	2  install frames carry ResumeSeq so a durable server can tell a
//	   reconnecting source to resume instead of re-bootstrapping.
//	   Within v2 the preamble's sixth byte, written 0 and ignored
//	   through PR 4, became a feature-bit field (FeatTrace): peers that
//	   predate it still write 0 (no features) and still ignore what
//	   they read, so feature negotiation is backward compatible without
//	   a version bump.
const Version byte = 2

// Feature bits carried in the preamble's reserved byte. A bit is an
// *advertisement*, not a demand: a peer that does not know a bit
// ignores it, so features must only ever enable frames the advertiser
// is prepared to receive.
const (
	// FeatTrace announces that this side accepts TagTrace frames — the
	// optional decision-evidence tag a tracing server consumes. Agents
	// must not send trace frames to a server that did not advertise it:
	// an older server would answer the unknown tag with an error frame,
	// which is sticky and would fail the agent's next Offer.
	FeatTrace byte = 0x01
)

// DefaultMaxFrame caps the accepted frame length (tag + payload). A
// frame announcing a larger length is rejected before any payload is
// read, bounding per-connection memory.
const DefaultMaxFrame = 1 << 20

// Magic opens every connection. It spells "DKFW" (Dual Kalman Filter
// Wire) and deliberately collides with no common plaintext protocol.
var Magic = [4]byte{'D', 'K', 'F', 'W'}

const preambleLen = 6 // magic + version + feature bits (reserved before tracing)

// Tag identifies a frame's message type.
type Tag byte

// Frame tags. The hello→install exchange installs a source's filter
// configuration; update/ack carry the pipelined DKF update stream;
// query/answer serve value queries; errmsg reports any server-side
// failure.
const (
	TagHello   Tag = 0x01 // client → server: sourceID
	TagInstall Tag = 0x02 // server → client: filter configuration
	TagUpdate  Tag = 0x03 // client → server: one core.Update
	TagAck     Tag = 0x04 // server → client: cumulative acked sequence
	TagQuery   Tag = 0x05 // client → server: queryID at seq
	TagAnswer  Tag = 0x06 // server → client: query result values
	TagError   Tag = 0x07 // server → client: failure description
	TagTrace   Tag = 0x08 // client → server: decision evidence for the next update (requires FeatTrace)
)

// String names the tag for diagnostics.
func (t Tag) String() string {
	switch t {
	case TagHello:
		return "hello"
	case TagInstall:
		return "install"
	case TagUpdate:
		return "update"
	case TagAck:
		return "ack"
	case TagQuery:
		return "query"
	case TagAnswer:
		return "answer"
	case TagError:
		return "error"
	case TagTrace:
		return "trace"
	default:
		if name, ok := clusterTagName(t); ok {
			return name
		}
		return fmt.Sprintf("tag(0x%02x)", byte(t))
	}
}

// ErrBadMagic reports a peer that is not speaking the streamkf wire
// protocol at all.
var ErrBadMagic = errors.New("wire: bad magic: peer is not speaking the streamkf wire protocol")

// ErrMalformed reports a frame whose payload does not parse under its
// tag's layout.
var ErrMalformed = errors.New("wire: malformed frame")

// VersionError reports a peer speaking an incompatible protocol version.
type VersionError struct {
	Got  byte // the peer's version
	Want byte // the version this side speaks
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported protocol version %d (speaking %d)", e.Got, e.Want)
}

// FrameSizeError reports a frame announcing a length beyond the
// configured cap.
type FrameSizeError struct {
	Len uint32
	Max uint32
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame length %d exceeds limit %d", e.Len, e.Max)
}

// WritePreamble sends the magic/version preamble with no feature bits —
// the shape every peer through PR 4 emits. Tests may send a non-current
// version to exercise rejection.
func WritePreamble(w io.Writer, version byte) error {
	return WritePreambleFeatures(w, version, 0)
}

// WritePreambleFeatures sends the magic/version preamble advertising the
// given feature bits in the sixth byte.
func WritePreambleFeatures(w io.Writer, version, features byte) error {
	var p [preambleLen]byte
	copy(p[:4], Magic[:])
	p[4] = version
	p[5] = features
	if _, err := w.Write(p[:]); err != nil {
		return fmt.Errorf("wire: write preamble: %w", err)
	}
	return nil
}

// ReadPreamble consumes and validates the peer's preamble, returning its
// protocol version. The caller decides whether the version is
// acceptable (CheckVersion implements strict equality).
func ReadPreamble(r io.Reader) (byte, error) {
	version, _, err := ReadPreambleFeatures(r)
	return version, err
}

// ReadPreambleFeatures consumes and validates the peer's preamble,
// returning its protocol version and advertised feature bits. Unknown
// bits must be ignored, which is what keeps the byte forward
// compatible.
func ReadPreambleFeatures(r io.Reader) (version, features byte, err error) {
	var p [preambleLen]byte
	if n, err := io.ReadFull(r, p[:]); err != nil {
		return 0, 0, mapReadErr(err, n > 0)
	}
	if [4]byte(p[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	return p[4], p[5], nil
}

// CheckVersion rejects any peer version other than ours.
func CheckVersion(got byte) error {
	if got != Version {
		return &VersionError{Got: got, Want: Version}
	}
	return nil
}

// mapReadErr classifies a short read: a clean EOF at a message boundary
// becomes core.ErrPeerClosed, an EOF inside a message becomes
// core.ErrTruncated. midMessage marks reads that had already consumed
// part of a message. A connection reset is classified the same way (see
// MapConnErr).
func mapReadErr(err error, midMessage bool) error {
	if errors.Is(err, io.EOF) && !midMessage {
		return core.ErrPeerClosed
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || (midMessage && isReset(err)) {
		return fmt.Errorf("%w: %v", core.ErrTruncated, err)
	}
	return MapConnErr(err)
}

// MapConnErr classifies a failed read or write at a message boundary.
// A peer that closes its socket with unread data in its receive buffer,
// or with SO_LINGER 0, sends a reset rather than a FIN, so a clean close
// can surface as ECONNRESET (or EPIPE on a later write) instead of EOF,
// depending on timing. Both become core.ErrPeerClosed, wrapping the
// socket error; any other error is returned unchanged.
func MapConnErr(err error) error {
	if isReset(err) {
		return fmt.Errorf("%w: %w", core.ErrPeerClosed, err)
	}
	return err
}

func isReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// Writer frames and buffers outbound messages. All methods append to an
// internal bufio buffer; nothing reaches the connection until Flush (or
// the buffer overflows). Encoding reuses one scratch buffer, so
// steady-state update frames allocate nothing.
//
// Writer is not safe for concurrent use; callers serialize access.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	max     uint32

	// OnFrame, when set, observes every framed message as it is
	// buffered: the tag and the full frame size in bytes (length prefix
	// included). The transport layer uses it for per-tag traffic
	// telemetry; the hook must not allocate or block.
	OnFrame func(tag Tag, frameBytes int)
}

// NewWriter wraps w. bufSize <= 0 picks a default sized for a full
// default send window; maxFrame <= 0 uses DefaultMaxFrame.
func NewWriter(w io.Writer, bufSize int, maxFrame int) *Writer {
	if bufSize <= 0 {
		bufSize = 8192
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Writer{bw: bufio.NewWriterSize(w, bufSize), max: uint32(maxFrame)}
}

// WritePreamble buffers this side's preamble with no feature bits.
func (w *Writer) WritePreamble(version byte) error {
	return w.WritePreambleFeatures(version, 0)
}

// WritePreambleFeatures buffers this side's preamble advertising the
// given feature bits.
func (w *Writer) WritePreambleFeatures(version, features byte) error {
	var p [preambleLen]byte
	copy(p[:4], Magic[:])
	p[4] = version
	p[5] = features
	_, err := w.bw.Write(p[:])
	return err
}

// Flush pushes all buffered frames to the connection.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered returns the number of bytes waiting for a Flush.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

// begin resets the scratch buffer with a frame header placeholder.
func (w *Writer) begin(tag Tag) {
	w.scratch = append(w.scratch[:0], 0, 0, 0, 0, byte(tag))
}

// finish patches the length prefix and writes the frame into the buffer.
func (w *Writer) finish() error {
	n := uint32(len(w.scratch) - 4) // tag + payload
	if n > w.max {
		return &FrameSizeError{Len: n, Max: w.max}
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], n)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	if w.OnFrame != nil {
		w.OnFrame(Tag(w.scratch[4]), len(w.scratch))
	}
	return nil
}

// AppendU16 appends v little-endian. The Append* helpers are the
// building blocks of every frame payload; internal/wal reuses them so
// its on-disk records share this package's encoding exactly.
func AppendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendI64 appends v little-endian as its two's-complement bits.
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendF64 appends the IEEE 754 bits of v little-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a u16 length prefix followed by the bytes of s.
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return b, fmt.Errorf("wire: string field of %d bytes exceeds %d", len(s), math.MaxUint16)
	}
	b = AppendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

// Hello buffers the source handshake request.
func (w *Writer) Hello(sourceID string) error {
	w.begin(TagHello)
	var err error
	if w.scratch, err = AppendString(w.scratch, sourceID); err != nil {
		return err
	}
	return w.finish()
}

// Install buffers the server's handshake reply: the filter configuration
// the connecting source must run. resumeSeq >= 0 tells a source holding
// unacknowledged updates past that sequence to resend them and continue
// without re-bootstrapping (the server recovered its filter state from
// durable storage); resumeSeq < 0 means the server has no state for the
// source and expects a bootstrap.
func (w *Writer) Install(sourceID, model string, delta, f float64, resumeSeq int64) error {
	w.begin(TagInstall)
	var err error
	if w.scratch, err = AppendString(w.scratch, sourceID); err != nil {
		return err
	}
	if w.scratch, err = AppendString(w.scratch, model); err != nil {
		return err
	}
	w.scratch = AppendF64(w.scratch, delta)
	w.scratch = AppendF64(w.scratch, f)
	w.scratch = AppendI64(w.scratch, resumeSeq)
	return w.finish()
}

// AppendUpdate appends the update payload encoding of u to b — the
// exact bytes a TagUpdate frame carries, also reused verbatim as the
// WAL update record payload. Appending into a scratch buffer with spare
// capacity allocates nothing.
func AppendUpdate(b []byte, u *core.Update) ([]byte, error) {
	var err error
	if b, err = AppendString(b, u.SourceID); err != nil {
		return b, err
	}
	if len(u.Values) > math.MaxUint16 {
		return b, fmt.Errorf("wire: update with %d values exceeds %d", len(u.Values), math.MaxUint16)
	}
	b = AppendI64(b, int64(u.Seq))
	b = AppendF64(b, u.Time)
	var flags byte
	if u.Bootstrap {
		flags |= 1
	}
	b = append(b, flags)
	b = AppendU16(b, uint16(len(u.Values)))
	for _, v := range u.Values {
		b = AppendF64(b, v)
	}
	return b, nil
}

// Update buffers one DKF update frame. Seq travels as int64 so 32-bit
// sources and 64-bit servers agree on the encoding.
func (w *Writer) Update(u *core.Update) error {
	w.begin(TagUpdate)
	var err error
	if w.scratch, err = AppendUpdate(w.scratch, u); err != nil {
		return err
	}
	return w.finish()
}

// Ack buffers a cumulative acknowledgement: every update with sequence
// number <= seq has been folded into the server filter.
func (w *Writer) Ack(seq int64) error {
	w.begin(TagAck)
	w.scratch = AppendI64(w.scratch, seq)
	return w.finish()
}

// Query buffers a value-query request.
func (w *Writer) Query(queryID string, seq int64) error {
	w.begin(TagQuery)
	var err error
	if w.scratch, err = AppendString(w.scratch, queryID); err != nil {
		return err
	}
	w.scratch = AppendI64(w.scratch, seq)
	return w.finish()
}

// Answer buffers a query result.
func (w *Writer) Answer(queryID string, values []float64) error {
	w.begin(TagAnswer)
	var err error
	if w.scratch, err = AppendString(w.scratch, queryID); err != nil {
		return err
	}
	if len(values) > math.MaxUint16 {
		return fmt.Errorf("wire: answer with %d values exceeds %d", len(values), math.MaxUint16)
	}
	w.scratch = AppendU16(w.scratch, uint16(len(values)))
	for _, v := range values {
		w.scratch = AppendF64(w.scratch, v)
	}
	return w.finish()
}

// Trace buffers one decision-evidence frame. It precedes the TagUpdate
// frame for the same sequence so a tracing server can attach the
// source's suppression evidence to the apply it is about to perform.
// The frame is only legal toward a peer that advertised FeatTrace;
// servers that never saw the bit treat 0x08 as an unknown tag.
//
// Payload layout (65 bytes, fixed):
//
//	int64   traceID
//	int64   seq
//	uint8   decision (trace.Decision)
//	float64 raw, smoothed, pred, residual, delta, nis
func (w *Writer) Trace(d *trace.DecisionInfo) error {
	w.begin(TagTrace)
	w.scratch = AppendI64(w.scratch, d.TraceID)
	w.scratch = AppendI64(w.scratch, d.Seq)
	w.scratch = append(w.scratch, byte(d.Decision))
	w.scratch = AppendF64(w.scratch, d.Raw)
	w.scratch = AppendF64(w.scratch, d.Smoothed)
	w.scratch = AppendF64(w.scratch, d.Pred)
	w.scratch = AppendF64(w.scratch, d.Residual)
	w.scratch = AppendF64(w.scratch, d.Delta)
	w.scratch = AppendF64(w.scratch, d.NIS)
	return w.finish()
}

// Error buffers a failure report. Messages beyond 64 KiB are truncated
// rather than rejected — an error path must not fail on length.
func (w *Writer) Error(msg string) error {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	w.begin(TagError)
	w.scratch, _ = AppendString(w.scratch, msg)
	return w.finish()
}

// Reader decodes inbound frames. Next returns the payload in a buffer
// reused across calls; decode the frame before reading the next one.
// Source and query ids repeat per connection, so a one-entry intern
// cache makes steady-state update decoding allocation-free.
//
// Reader is not safe for concurrent use.
type Reader struct {
	br      *bufio.Reader
	hdr     [5]byte // frame header scratch; a field so io.ReadFull cannot leak it to the heap
	payload []byte
	max     uint32
	lastID  string // intern cache for Update.SourceID
	lastQID string // intern cache for query ids

	// OnFrame, when set, observes every successfully read frame: the tag
	// and the full frame size in bytes (length prefix included). Used for
	// per-tag traffic telemetry; the hook must not allocate or block.
	OnFrame func(tag Tag, frameBytes int)
}

// NewReader wraps r. bufSize <= 0 picks a default; maxFrame <= 0 uses
// DefaultMaxFrame.
func NewReader(r io.Reader, bufSize int, maxFrame int) *Reader {
	if bufSize <= 0 {
		bufSize = 8192
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, bufSize), max: uint32(maxFrame)}
}

// ReadPreamble consumes and validates the peer's preamble.
func (r *Reader) ReadPreamble() (byte, error) {
	return ReadPreamble(r.br)
}

// ReadPreambleFeatures consumes and validates the peer's preamble,
// returning version and feature bits.
func (r *Reader) ReadPreambleFeatures() (version, features byte, err error) {
	return ReadPreambleFeatures(r.br)
}

// Buffered reports how many received bytes wait to be parsed. The
// server uses it to coalesce acks: it flushes acknowledgements only when
// no further frames are already in hand.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Next reads one frame, returning its tag and payload. The payload
// slice is only valid until the following Next call. A clean EOF at a
// frame boundary returns core.ErrPeerClosed; a connection dropped
// mid-frame returns core.ErrTruncated.
func (r *Reader) Next() (Tag, []byte, error) {
	if n, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		// A partial header is a truncation, not a clean close.
		return 0, nil, mapReadErr(err, n > 0)
	}
	n := binary.LittleEndian.Uint32(r.hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > r.max {
		return 0, nil, &FrameSizeError{Len: n, Max: r.max}
	}
	tag := Tag(r.hdr[4])
	plen := int(n - 1)
	if cap(r.payload) < plen {
		r.payload = make([]byte, plen)
	}
	p := r.payload[:plen]
	if _, err := io.ReadFull(r.br, p); err != nil {
		return 0, nil, mapReadErr(err, true)
	}
	if r.OnFrame != nil {
		r.OnFrame(tag, len(r.hdr)+plen)
	}
	return tag, p, nil
}

// internID returns a string equal to b, reusing the cached copy when the
// bytes repeat (they always do: one source per connection).
func internID(cache *string, b []byte) string {
	if *cache != string(b) {
		*cache = string(b)
	}
	return *cache
}

// Cursor is a bounds-checked decode cursor over an encoded payload.
// Reads past the end latch it into a failed state (OK turns false) and
// return zero values, so a decoder can read a whole layout and check
// validity once at the end. internal/wal reuses it for on-disk records.
type Cursor struct {
	b   []byte
	off int
	ok  bool
}

// NewCursor returns a cursor positioned at the start of p.
func NewCursor(p []byte) Cursor { return Cursor{b: p, ok: true} }

// Take consumes and returns the next n bytes, or nil past the end.
func (c *Cursor) Take(n int) []byte {
	if !c.ok || c.off+n > len(c.b) {
		c.ok = false
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// U8 consumes one byte.
func (c *Cursor) U8() byte {
	s := c.Take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U16 consumes a little-endian uint16.
func (c *Cursor) U16() uint16 {
	s := c.Take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 consumes a little-endian uint32.
func (c *Cursor) U32() uint32 {
	s := c.Take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// I64 consumes a little-endian int64.
func (c *Cursor) I64() int64 {
	s := c.Take(8)
	if s == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(s))
}

// F64 consumes a little-endian IEEE 754 float64.
func (c *Cursor) F64() float64 {
	s := c.Take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

// Str consumes a u16-length-prefixed byte string.
func (c *Cursor) Str() []byte {
	n := int(c.U16())
	return c.Take(n)
}

// OK reports whether every read so far stayed in bounds.
func (c *Cursor) OK() bool { return c.ok }

// Remaining returns the number of unconsumed bytes — a cheap sanity
// bound for decoded element counts before allocating for them.
func (c *Cursor) Remaining() int {
	if !c.ok {
		return 0
	}
	return len(c.b) - c.off
}

// Done reports a fully and exactly consumed payload.
func (c *Cursor) Done() bool { return c.ok && c.off == len(c.b) }

func malformed(tag Tag) error {
	return fmt.Errorf("%w: bad %v payload", ErrMalformed, tag)
}

// DecodeHello parses a hello payload.
func DecodeHello(p []byte) (sourceID string, err error) {
	c := NewCursor(p)
	id := c.Str()
	if !c.Done() {
		return "", malformed(TagHello)
	}
	return string(id), nil
}

// Install is the decoded handshake reply. ResumeSeq >= 0 means the
// server already holds filter state for the source through that
// sequence and the source should resume; < 0 means bootstrap.
type Install struct {
	SourceID  string
	Model     string
	Delta     float64
	F         float64
	ResumeSeq int64
}

// DecodeInstall parses an install payload.
func DecodeInstall(p []byte) (Install, error) {
	c := NewCursor(p)
	id := c.Str()
	model := c.Str()
	delta := c.F64()
	f := c.F64()
	resume := c.I64()
	if !c.Done() {
		return Install{}, malformed(TagInstall)
	}
	return Install{SourceID: string(id), Model: string(model), Delta: delta, F: f, ResumeSeq: resume}, nil
}

// decodeUpdateBody parses the shared update payload layout into u,
// reusing u.Values. The SourceID bytes are passed through intern (which
// may allocate or reuse a cached string).
func decodeUpdateBody(p []byte, u *core.Update, intern func([]byte) string) error {
	c := NewCursor(p)
	id := c.Str()
	seq := c.I64()
	tim := c.F64()
	flags := c.U8()
	n := int(c.U16())
	vals := c.Take(8 * n)
	if !c.Done() || id == nil {
		return malformed(TagUpdate)
	}
	u.SourceID = intern(id)
	u.Seq = int(seq)
	u.Time = tim
	u.Bootstrap = flags&1 != 0
	u.Values = u.Values[:0]
	for i := 0; i < n; i++ {
		u.Values = append(u.Values, math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])))
	}
	return nil
}

// DecodeUpdate parses an update payload into u, reusing u.Values and the
// reader's source-id intern cache so steady-state decoding allocates
// nothing.
func (r *Reader) DecodeUpdate(p []byte, u *core.Update) error {
	return decodeUpdateBody(p, u, func(b []byte) string { return internID(&r.lastID, b) })
}

// DecodeUpdatePayload parses a standalone update payload (e.g. a WAL
// record) into u, reusing u.Values. The source id is freshly allocated;
// callers replaying many records may intern it themselves.
func DecodeUpdatePayload(p []byte, u *core.Update) error {
	return decodeUpdateBody(p, u, func(b []byte) string { return string(b) })
}

// DecodeAck parses a cumulative ack payload.
func DecodeAck(p []byte) (seq int64, err error) {
	c := NewCursor(p)
	seq = c.I64()
	if !c.Done() {
		return 0, malformed(TagAck)
	}
	return seq, nil
}

// DecodeQuery parses a query payload, interning the repeated query id.
func (r *Reader) DecodeQuery(p []byte) (queryID string, seq int64, err error) {
	c := NewCursor(p)
	id := c.Str()
	seq = c.I64()
	if !c.Done() || id == nil {
		return "", 0, malformed(TagQuery)
	}
	return internID(&r.lastQID, id), seq, nil
}

// DecodeAnswer parses an answer payload. The values slice is freshly
// allocated: answers are handed to callers who retain them.
func DecodeAnswer(p []byte) (queryID string, values []float64, err error) {
	c := NewCursor(p)
	id := c.Str()
	n := int(c.U16())
	raw := c.Take(8 * n)
	if !c.Done() || id == nil {
		return "", nil, malformed(TagAnswer)
	}
	values = make([]float64, n)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return string(id), values, nil
}

// DecodeTrace parses a decision-evidence payload.
func DecodeTrace(p []byte) (trace.DecisionInfo, error) {
	c := NewCursor(p)
	var d trace.DecisionInfo
	d.TraceID = c.I64()
	d.Seq = c.I64()
	d.Decision = trace.Decision(c.U8())
	d.Raw = c.F64()
	d.Smoothed = c.F64()
	d.Pred = c.F64()
	d.Residual = c.F64()
	d.Delta = c.F64()
	d.NIS = c.F64()
	if !c.Done() {
		return trace.DecisionInfo{}, malformed(TagTrace)
	}
	return d, nil
}

// DecodeError parses an error payload.
func DecodeError(p []byte) (msg string, err error) {
	c := NewCursor(p)
	m := c.Str()
	if !c.Done() {
		return "", malformed(TagError)
	}
	return string(m), nil
}

// Datagram helpers.
//
// A self-describing datagram is the 6-byte preamble followed by one or
// more frames in the standard u32-LE length + u8 tag layout — byte for
// byte the v2 stream encoding, just re-anchored at every datagram so a
// receiver needs no connection state to parse one. The helpers below
// build and split datagrams in caller-owned buffers; steady-state use
// with retained capacity allocates nothing.

// AppendPreamble appends the magic/version/features preamble to b.
func AppendPreamble(b []byte, version, features byte) []byte {
	b = append(b, Magic[:]...)
	return append(b, version, features)
}

// CheckPreamble validates a datagram's preamble, returning its feature
// bits and the frame bytes that follow. The version must match exactly
// (CheckVersion); unknown feature bits are passed through for the
// caller to ignore.
func CheckPreamble(p []byte) (features byte, rest []byte, err error) {
	if len(p) < preambleLen {
		return 0, nil, fmt.Errorf("%w: short preamble", core.ErrTruncated)
	}
	if [4]byte(p[:4]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if err := CheckVersion(p[4]); err != nil {
		return 0, nil, err
	}
	return p[5], p[preambleLen:], nil
}

// BeginFrame appends a frame header placeholder for tag. The caller
// appends the payload with the Append* helpers, then closes the frame
// with EndFrame, passing len(b) as it was before BeginFrame.
func BeginFrame(b []byte, tag Tag) []byte {
	return append(b, 0, 0, 0, 0, byte(tag))
}

// EndFrame patches the length prefix of the frame opened at start.
func EndFrame(b []byte, start int) ([]byte, error) {
	n := uint32(len(b) - start - 4) // tag + payload
	if n > DefaultMaxFrame {
		return b, &FrameSizeError{Len: n, Max: DefaultMaxFrame}
	}
	binary.LittleEndian.PutUint32(b[start:], n)
	return b, nil
}

// NextFrame splits the first frame off p, returning its tag, payload
// and the remaining bytes. maxFrame <= 0 uses DefaultMaxFrame.
func NextFrame(p []byte, maxFrame int) (tag Tag, payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(p) < 5 {
		return 0, nil, nil, fmt.Errorf("%w: short frame header", core.ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > uint32(maxFrame) {
		return 0, nil, nil, &FrameSizeError{Len: n, Max: uint32(maxFrame)}
	}
	if n < 1 || len(p) < 4+int(n) {
		return 0, nil, nil, fmt.Errorf("%w: frame length %d beyond datagram", ErrMalformed, n)
	}
	return Tag(p[4]), p[5 : 4+n], p[4+n:], nil
}

// AppendHelloFrame appends a complete hello frame.
func AppendHelloFrame(b []byte, sourceID string) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagHello)
	var err error
	if b, err = AppendString(b, sourceID); err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// AppendInstallFrame appends a complete install frame.
func AppendInstallFrame(b []byte, inst Install) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagInstall)
	var err error
	if b, err = AppendString(b, inst.SourceID); err != nil {
		return b, err
	}
	if b, err = AppendString(b, inst.Model); err != nil {
		return b, err
	}
	b = AppendF64(b, inst.Delta)
	b = AppendF64(b, inst.F)
	b = AppendI64(b, inst.ResumeSeq)
	return EndFrame(b, start)
}

// AppendUpdateFrame appends a complete update frame.
func AppendUpdateFrame(b []byte, u *core.Update) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagUpdate)
	var err error
	if b, err = AppendUpdate(b, u); err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// AppendErrorFrame appends a complete error frame.
func AppendErrorFrame(b []byte, msg string) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagError)
	var err error
	if b, err = AppendString(b, msg); err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// DecodeUpdateInto parses a standalone update payload into u with a
// caller-supplied intern function — the datagram receiver's hook for a
// map-based intern, where one socket multiplexes many sources and the
// reader's single-entry cache would thrash.
func DecodeUpdateInto(p []byte, u *core.Update, intern func([]byte) string) error {
	return decodeUpdateBody(p, u, intern)
}
