//go:build linux && (amd64 || arm64)

// Batched datagram I/O on Linux: recvmmsg drains up to RxBatch
// datagrams in one syscall and sendmmsg transmits a sealed batch in
// one, both issued raw against the netpoller-registered fd through
// syscall.RawConn — no new dependency, and the reader still parks in
// the runtime poller on EAGAIN instead of spinning. Both callbacks are
// stored method values bound once at construction: a closure built per
// read would allocate per batch and break the rx path's 0 allocs/op
// gate (TestUDPRxAllocFree pins the parse half; the end-to-end UDP
// tests cover this half).
//
// The mmsghdr layout below matches the 64-bit layouts of linux/amd64
// and linux/arm64 (8-byte-aligned msghdr, 4-byte msg_len plus implicit
// tail padding). The build tag keeps every other GOARCH on the portable
// single-datagram path in udp_portable.go rather than guessing struct
// packing.
package dsms

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsgAvailable reports that read/send batching is real on this
// platform (the batch-size knobs do something).
const mmsgAvailable = true

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchRx is the reader's batched receive state: a fixed arena of RxBatch
// datagram buffers and the iovec/msghdr/sockaddr tables describing them
// to recvmmsg. All tables are laid out once; a read only resets the
// per-message name lengths the kernel overwrites.
type batchRx struct {
	rc    syscall.RawConn
	bufs  [][]byte
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	hdrs  []mmsghdr

	readFn func(fd uintptr) bool
	n      int
	errno  syscall.Errno
}

func newBatchRx(conn *net.UDPConn, batch, maxDatagram int) (*batchRx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	rx := &batchRx{
		rc:    rc,
		bufs:  make([][]byte, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrAny, batch),
		hdrs:  make([]mmsghdr, batch),
	}
	arena := make([]byte, batch*maxDatagram)
	for i := 0; i < batch; i++ {
		rx.bufs[i] = arena[i*maxDatagram : (i+1)*maxDatagram : (i+1)*maxDatagram]
		rx.iovs[i].Base = &rx.bufs[i][0]
		rx.iovs[i].SetLen(maxDatagram)
		h := &rx.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&rx.names[i]))
		h.Namelen = uint32(unsafe.Sizeof(rx.names[i]))
		h.Iov = &rx.iovs[i]
		h.Iovlen = 1
	}
	rx.readFn = rx.rawRead
	return rx, nil
}

// rawRead is the RawConn.Read callback: one non-blocking recvmmsg.
// Returning false on EAGAIN parks the goroutine in the netpoller until
// the socket is readable again.
func (rx *batchRx) rawRead(fd uintptr) bool {
	n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&rx.hdrs[0])), uintptr(len(rx.hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	rx.n, rx.errno = int(n), errno
	return true
}

// read blocks until at least one datagram arrives and returns how many
// the batch drained. msg(i)/addr(i) are valid until the next read.
func (rx *batchRx) read() (int, error) {
	for i := range rx.hdrs {
		rx.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(rx.names[0]))
	}
	rx.n, rx.errno = 0, 0
	if err := rx.rc.Read(rx.readFn); err != nil {
		return 0, err
	}
	if rx.errno != 0 {
		return 0, rx.errno
	}
	return rx.n, nil
}

// msg returns the i-th drained datagram's bytes.
func (rx *batchRx) msg(i int) []byte { return rx.bufs[i][:rx.hdrs[i].len] }

// addr decodes the i-th datagram's peer address without allocating.
// Port bytes are read individually, so the conversion from network
// byte order is endianness-agnostic.
func (rx *batchRx) addr(i int) netip.AddrPort {
	name := &rx.names[i]
	switch name.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

// batchTx transmits a set of sealed datagrams on a connected socket
// with as few sendmmsg calls as the kernel allows (partial sends loop).
type batchTx struct {
	rc   syscall.RawConn
	iovs []syscall.Iovec
	hdrs []mmsghdr

	writeFn func(fd uintptr) bool
	count   int
	n       int
	errno   syscall.Errno
}

func newBatchTx(conn *net.UDPConn) (*batchTx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	tx := &batchTx{rc: rc}
	tx.writeFn = tx.rawWrite
	return tx, nil
}

// rawWrite is the RawConn.Write callback: one non-blocking sendmmsg of
// hdrs[:count]. Returning false on EAGAIN waits for writability.
func (tx *batchTx) rawWrite(fd uintptr) bool {
	n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&tx.hdrs[0])), uintptr(tx.count),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	tx.n, tx.errno = int(n), errno
	return true
}

// sendAll transmits every packet. The socket is connected, so the
// msghdrs carry no destination; header tables grow to the largest batch
// seen and are reused after that.
func (tx *batchTx) sendAll(pkts [][]byte) error {
	for len(tx.hdrs) < len(pkts) {
		tx.hdrs = append(tx.hdrs, mmsghdr{})
		tx.iovs = append(tx.iovs, syscall.Iovec{})
	}
	for off := 0; off < len(pkts); {
		rem := pkts[off:]
		for i := range rem {
			tx.iovs[i].Base = &rem[i][0]
			tx.iovs[i].SetLen(len(rem[i]))
			h := &tx.hdrs[i].hdr
			h.Name = nil
			h.Namelen = 0
			h.Iov = &tx.iovs[i]
			h.Iovlen = 1
		}
		tx.count = len(rem)
		tx.n, tx.errno = 0, 0
		if err := tx.rc.Write(tx.writeFn); err != nil {
			return err
		}
		if tx.errno != 0 {
			return tx.errno
		}
		if tx.n <= 0 {
			return syscall.EIO
		}
		off += tx.n
	}
	return nil
}
