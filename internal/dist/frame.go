package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
)

// MaxFrameBytes bounds a single frame: a 4-byte big-endian length
// prefix followed by that many bytes of JSON. Plan payloads for even
// very large clusters are well under a megabyte; the cap exists so a
// corrupt or hostile length prefix cannot make a reader allocate
// gigabytes.
const MaxFrameBytes = 8 << 20

// writeFrame emits one length-prefixed frame in a single Write: one
// syscall, and one loopback segment under TCP_NODELAY.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("dist: refusing to write an empty frame")
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte cap", len(payload), MaxFrameBytes)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	_, err := w.Write(append(buf, payload...))
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("dist: zero-length frame")
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte cap", n, MaxFrameBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// wire is one framed JSON connection. A worker sends from its heartbeat
// goroutine and its read loop, so sends are serialized by a mutex and
// interleave whole frames; the coordinator sends only from the goroutine
// that owns it. Receives belong to a single reader goroutine.
type wire struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex

	// Control-plane accounting (wall-clock dependent, never part of the
	// deterministic artifact): frames and bytes sent on this side.
	frames *obs.Counter
	bytes  *obs.Counter
}

// newWire wraps a connection. ctrl may be nil for an uninstrumented
// link.
func newWire(c net.Conn, ctrl *obs.Registry) *wire {
	return &wire{c: c, br: bufio.NewReader(c),
		frames: ctrl.Counter("llmpq_dist_frames_sent_total"),
		bytes:  ctrl.Counter("llmpq_dist_bytes_sent_total"),
	}
}

// send marshals and writes one message as a frame.
func (w *wire) send(m *Message) error {
	if err := m.validate(); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := writeFrame(w.c, b); err != nil {
		return err
	}
	w.frames.Inc()
	w.bytes.Add(float64(len(b) + 4))
	return nil
}

// recv reads and unmarshals one message.
func (w *wire) recv() (*Message, error) {
	b, err := readFrame(w.br)
	if err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("dist: bad frame: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// close tears the connection down; safe to call more than once.
func (w *wire) close() {
	_ = w.c.Close() //llmpq:allow(errdrop): idempotent teardown; the peer may have closed first
}
