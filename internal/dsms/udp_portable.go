//go:build !linux || (!amd64 && !arm64)

// Portable datagram I/O fallback: one ReadFromUDPAddrPort per receive
// (a batch of exactly 1) and one Write per sealed datagram. Platforms
// with batched syscalls get udp_linux.go instead; the reader above this
// layer is identical either way, so the server and the batcher behave
// the same everywhere — only the syscalls-per-datagram ratio differs.
package dsms

import (
	"net"
	"net/netip"
)

// mmsgAvailable reports that the batch-size knobs are inert here: reads
// return one datagram and sends issue one syscall per datagram.
const mmsgAvailable = false

// batchRx is the reader's receive state: a single datagram buffer.
type batchRx struct {
	conn *net.UDPConn
	buf  []byte
	n    int
	from netip.AddrPort
}

func newBatchRx(conn *net.UDPConn, batch, maxDatagram int) (*batchRx, error) {
	return &batchRx{conn: conn, buf: make([]byte, maxDatagram)}, nil
}

// read blocks for one datagram and reports a batch of 1.
func (rx *batchRx) read() (int, error) {
	n, addr, err := rx.conn.ReadFromUDPAddrPort(rx.buf)
	if err != nil {
		return 0, err
	}
	rx.n, rx.from = n, addr
	return 1, nil
}

func (rx *batchRx) msg(i int) []byte          { return rx.buf[:rx.n] }
func (rx *batchRx) addr(i int) netip.AddrPort { return rx.from }

// batchTx degrades to a write per datagram.
type batchTx struct{ conn *net.UDPConn }

func newBatchTx(conn *net.UDPConn) (*batchTx, error) {
	return &batchTx{conn: conn}, nil
}

func (tx *batchTx) sendAll(pkts [][]byte) error {
	for _, p := range pkts {
		if _, err := tx.conn.Write(p); err != nil {
			return err
		}
	}
	return nil
}
