package dsms

import (
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// rawClient opens a plain TCP connection with framing helpers, for
// driving the server off the happy path.
func rawClient(t *testing.T, addr string) (net.Conn, *wire.Writer, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, wire.NewWriter(conn, 0, 0), wire.NewReader(conn, 0, 0)
}

func expectErrorFrame(t *testing.T, r *wire.Reader, want string) {
	t.Helper()
	tag, p, err := r.Next()
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if tag != wire.TagError {
		t.Fatalf("tag = %v, want error frame", tag)
	}
	msg, err := wire.DecodeError(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, want) {
		t.Fatalf("error frame %q, want substring %q", msg, want)
	}
}

func TestTCPVersionMismatchRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if err := wire.WritePreamble(conn, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	expectErrorFrame(t, r, "unsupported protocol version")
	// The server hangs up after the rejection.
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("after version rejection: %v, want peer closed", err)
	}
}

func TestTCPBadMagicRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// No preamble comes back — the peer is not speaking the protocol —
	// just a best-effort error frame, then the close.
	expectErrorFrame(t, r, "not speaking the streamkf wire protocol")
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("after magic rejection: %v, want peer closed", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if err := wire.WritePreamble(conn, wire.Version); err != nil {
		t.Fatal(err)
	}
	// Frame header announcing 2 MiB, beyond the 1 MiB default cap.
	hdr := []byte{0, 0, 32, 0, byte(wire.TagUpdate)}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	expectErrorFrame(t, r, "exceeds limit")
}

func TestTCPServerClosedMidStream(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 1e-9, Model: "constant"})
	ts := startServerNoWait(t, s)

	agent, err := DialSource(ts.Addr(), "walk", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	// Stream a little, then yank the server.
	for i := 0; i < 10; i++ {
		if _, err := agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i)}}); err != nil {
			t.Fatalf("offer %d before close: %v", i, err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// The failure is asynchronous: keep offering until it surfaces.
	deadline := time.Now().Add(5 * time.Second)
	var offerErr error
	for i := 10; time.Now().Before(deadline); i++ {
		if _, offerErr = agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i)}}); offerErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if offerErr == nil {
		t.Fatal("no error surfaced after server close")
	}
	if agent.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
	// A clean server-side close is reported as such, distinguishable
	// from truncation. (A send into the dead socket may beat the read
	// of the EOF; both surface the shutdown.)
	if errors.Is(offerErr, core.ErrTruncated) {
		t.Fatalf("clean shutdown misreported as truncation: %v", offerErr)
	}
	if errors.Is(offerErr, core.ErrPeerClosed) && !strings.Contains(offerErr.Error(), "server closed connection") {
		t.Fatalf("peer-closed error lacks context: %v", offerErr)
	}
}

// startServerNoWait is startServer without the Serve-error assertion —
// for tests that close the server while clients are mid-flight.
func startServerNoWait(t *testing.T, s *Server) *TCPServer {
	t.Helper()
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve() }()
	t.Cleanup(func() {
		ts.Close()
		<-done
	})
	return ts
}

// fakeServer runs fn on the first accepted connection.
func fakeServer(t *testing.T, fn func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return ln.Addr().String()
}

func TestTCPDialSourceServerSpeaksWrongVersion(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		wire.WritePreamble(conn, 42)
		// Give the client a moment to read before the close.
		time.Sleep(50 * time.Millisecond)
	})
	_, err := DialSource(addr, "s", testCatalog())
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Got != 42 {
		t.Fatalf("dial against v42 server: %v, want VersionError", err)
	}
}

func TestTCPDialSourceTruncatedHandshake(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		wire.WritePreamble(conn, wire.Version)
		// A frame header promising 50 bytes, then the connection dies.
		conn.Write([]byte{51, 0, 0, 0, byte(wire.TagInstall), 1, 2, 3})
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("truncated handshake: %v, want core.ErrTruncated", err)
	}
}

func TestTCPDialSourceCleanClose(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		wire.WritePreamble(conn, wire.Version)
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("clean close during handshake: %v, want core.ErrPeerClosed", err)
	}
	if !strings.Contains(err.Error(), "server closed connection") {
		t.Fatalf("clean close lacks context: %v", err)
	}
}

// TestTCPDialSourceResetClose forces the reset that makes a server's
// close surface as ECONNRESET instead of EOF: the fake server aborts the
// connection with SO_LINGER 0 after its preamble. A reset at a frame
// boundary is a clean close and must classify as core.ErrPeerClosed,
// with the socket error kept inspectable.
func TestTCPDialSourceResetClose(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		// Wait for the client's preamble so its handshake write cannot
		// race the reset; the failure is then observed on the read side.
		io.ReadFull(conn, make([]byte, 6))
		wire.WritePreamble(conn, wire.Version)
		if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
			t.Error(err)
		}
		conn.Close()
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("reset during handshake: %v, want core.ErrPeerClosed", err)
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset during handshake: %v, want the ECONNRESET cause kept", err)
	}
	if !strings.Contains(err.Error(), "server closed connection") {
		t.Fatalf("reset close lacks context: %v", err)
	}
}

func TestTCPQueryClientDistinguishesCloseFromTruncation(t *testing.T) {
	// Clean close after the preamble: ErrPeerClosed. The fake server
	// absorbs the query first so the client's write succeeds and the
	// failure is observed on the read side.
	addr := fakeServer(t, func(conn net.Conn) {
		wire.WritePreamble(conn, wire.Version)
		io.ReadFull(conn, make([]byte, 6)) // client preamble
		conn.Read(make([]byte, 64))        // the query frame
	})
	qc, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, err := qc.Ask("q", 0); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("Ask after clean close: %v, want core.ErrPeerClosed", err)
	}

	// Partial frame then close: ErrTruncated.
	addr = fakeServer(t, func(conn net.Conn) {
		wire.WritePreamble(conn, wire.Version)
		io.ReadFull(conn, make([]byte, 6))
		conn.Read(make([]byte, 64))
		conn.Write([]byte{99, 0, 0, 0, byte(wire.TagAnswer), 7})
	})
	qc2, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc2.Close()
	if _, err := qc2.Ask("q", 0); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("Ask over truncated frame: %v, want core.ErrTruncated", err)
	}
}

// TestTCPPipelinedServerError proves a server-side failure of a
// pipelined update is delivered asynchronously and fails a later Offer,
// per the protocol contract.
func TestTCPPipelinedServerError(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "src", Delta: 1e-9, Model: "constant"})
	ts := startServer(t, s)
	agent, err := DialSource(ts.Addr(), "src", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.Offer(stream.Reading{Seq: 0, Time: 0, Values: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	// Poison the server by advancing the filter past the next update's
	// sequence number: folding seq 1 after the prediction reached 100
	// is a protocol violation the server reports per-update.
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Answer("q1", 100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var offerErr error
	for i := 1; time.Now().Before(deadline); i++ {
		if _, offerErr = agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i * 10)}}); offerErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if offerErr == nil || !strings.Contains(offerErr.Error(), "server error") {
		t.Fatalf("pipelined server failure = %v, want async server error", offerErr)
	}
	if err := agent.Drain(); err == nil {
		t.Fatal("Drain succeeded after server error")
	}
}

// TestTCPServeAcceptErrorWaitsForHandlers is the regression test for
// Serve's non-graceful error path: when the listener dies outside
// Close, Serve must close live connections and wait out their handler
// goroutines before returning, not abandon them mid-flight.
func TestTCPServeAcceptErrorWaitsForHandlers(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "src", Delta: 1e-9, Model: "constant"})
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve() }()

	agent, err := DialSource(ts.Addr(), "src", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.Offer(stream.Reading{Seq: 0, Time: 0, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}

	// Kill the listener out from under Serve without Close: the next
	// Accept fails with closed=false — the non-graceful path.
	ts.ln.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("Serve returned nil for a listener failure outside Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener died")
	}
	// Serve's return must imply every handler goroutine has unwound:
	// each decrements the active-connections gauge in its defer.
	if v, ok := s.Telemetry().Get("dkf_wire_connections_active"); !ok || v != 0 {
		t.Fatalf("dkf_wire_connections_active = %v after Serve returned; handler goroutines leaked", v)
	}
}
