package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"s2db/internal/wal"
)

// Frame kinds on a TCP replication session. Each direction carries exactly
// one kind (master→replica pages, replica→master acks); the tag is a
// cheap stream-desync check on top of the page codec's own CRC.
const (
	frameKindPage = 1
	frameKindAck  = 2

	frameHeaderBytes = 5 // kind byte + u32 payload length
	ackBytes         = 8 // an ack's payload: one big-endian LSN
	// maxFramePayload bounds the payload a frame may claim: the page wire
	// cap plus its header.
	maxFramePayload = wal.MaxWirePageBytes + 64
	// frameReadChunk is a page payload's first buffer; it doubles as more
	// bytes arrive.
	frameReadChunk = 64 << 10
)

// TCPTransport ships replication over loopback TCP sockets: every page
// crosses a real kernel socket as a length-prefixed wire frame
// (wal.EncodePage — versioned header, CRC over the payload) and every ack
// returns as an explicit frame, so sync-replica durability genuinely
// round-trips a network path.
type TCPTransport struct {
	ln net.Listener

	// mu serializes Open so concurrent dial+accept pairs cannot cross:
	// each Open's accepted conn is guaranteed to be its own dialed conn.
	mu     sync.Mutex
	closed bool
}

// NewTCPTransport listens on an ephemeral loopback port.
func NewTCPTransport() (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: tcp transport: %w", err)
	}
	return &TCPTransport{ln: ln}, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() net.Addr { return t.ln.Addr() }

// Open dials the transport's own listener and accepts the connection,
// returning the dialing side as the master half.
func (t *TCPTransport) Open() (Conn, Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil, errTransportClosed
	}
	dialed, err := net.Dial("tcp", t.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err := t.ln.Accept()
	if err != nil {
		dialed.Close()
		return nil, nil, err
	}
	return newTCPConn(dialed), newTCPConn(accepted), nil
}

// Close stops the listener; live sessions are closed by their links.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.ln.Close()
}

// tcpConn frames pages and acks over one socket. Reads and writes each
// take their own lock so a blocked RecvPage never delays SendAck on the
// same half.
type tcpConn struct {
	c net.Conn

	rmu sync.Mutex
	br  *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

func (c *tcpConn) writeFrame(kind byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [frameHeaderBytes]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readFrame reads one frame of wantKind. The header is checked before any
// payload is read: an ack is exactly ackBytes long, and a page's buffer
// grows only with the bytes that arrive, so a header that claims more than
// the peer sends costs no more than what it did send.
func (c *tcpConn) readFrame(wantKind byte) ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != wantKind {
		return nil, fmt.Errorf("cluster: unexpected frame kind %d (want %d)", hdr[0], wantKind)
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if wantKind == frameKindAck && n != ackBytes {
		return nil, fmt.Errorf("cluster: ack frame claims %d bytes (want %d)", n, ackBytes)
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("cluster: frame claims %d bytes (max %d)", n, maxFramePayload)
	}
	payload := make([]byte, 0, min(n, frameReadChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n, 2*len(payload))-len(payload))
		}
		m, err := io.ReadFull(c.br, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+m]
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

func (c *tcpConn) SendPage(pg wal.Page) error {
	return c.writeFrame(frameKindPage, wal.EncodePage(pg))
}

func (c *tcpConn) RecvPage() (wal.Page, error) {
	payload, err := c.readFrame(frameKindPage)
	if err != nil {
		return wal.Page{}, err
	}
	return wal.DecodePage(payload)
}

func (c *tcpConn) SendAck(lsn uint64) error {
	var buf [ackBytes]byte
	binary.BigEndian.PutUint64(buf[:], lsn)
	return c.writeFrame(frameKindAck, buf[:])
}

func (c *tcpConn) RecvAck() (uint64, error) {
	payload, err := c.readFrame(frameKindAck)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(payload), nil
}

func (c *tcpConn) Close() error { return c.c.Close() }
