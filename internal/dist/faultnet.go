package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// NewFaultListener wraps a listener so the schedule's network faults
// (chaos.KindConnDrop, KindPartition, KindNetDelay) are realized at the
// transport layer of every accepted connection:
//
//   - conn-drop severs the fault's accepted-connection ordinal after it
//     has carried AfterFrames complete frames, read or written — a frame
//     count, not a timestamp, so the trigger point is deterministic;
//   - partition makes reads and writes on matching connections fail
//     during [AtSec, AtSec+DurationSec) measured from the wrap;
//   - net-delay stalls each read on matching connections by DelaySec
//     inside its window.
//
// Connections sever by closing, so the peer observes an ordinary
// connection reset and exercises its real reconnect path. sim, when
// non-nil, receives llmpq_dist_injected_conn_drops_total — conn drops
// trip at a deterministic frame count, so the counter is safe for
// byte-diffed artifacts; ctrl receives the wall-clock-dependent
// partition and delay trip counters. A schedule with no network faults
// returns inner unchanged.
func NewFaultListener(inner net.Listener, sched *chaos.Schedule, sim, ctrl *obs.Registry) net.Listener {
	nf := sched.NetFaults()
	if len(nf) == 0 {
		return inner
	}
	return &faultListener{Listener: inner, faults: nf, start: time.Now(), sim: sim, ctrl: ctrl}
}

type faultListener struct {
	net.Listener
	faults []chaos.Fault
	start  time.Time
	sim    *obs.Registry
	ctrl   *obs.Registry

	mu       sync.Mutex
	accepted int
}

func (fl *faultListener) Accept() (net.Conn, error) {
	c, err := fl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fl.mu.Lock()
	ord := fl.accepted
	fl.accepted++
	fl.mu.Unlock()

	fc := &faultConn{Conn: c, fl: fl, ord: ord}
	for i := range fl.faults {
		f := &fl.faults[i]
		switch f.Kind {
		case chaos.KindConnDrop:
			if f.Conn == ord {
				fc.drop = f
			}
		case chaos.KindPartition:
			if f.Conn == -1 || f.Conn == ord {
				fc.partitions = append(fc.partitions, f)
			}
		case chaos.KindNetDelay:
			if f.Conn == -1 || f.Conn == ord {
				fc.delays = append(fc.delays, f)
			}
		}
	}
	return fc, nil
}

// faultConn applies the matched faults to one accepted connection. It
// counts the complete frames the connection carries — the embedded
// parser finds them in the read byte stream, and each write is one frame
// (writeFrame) — so a conn-drop severs after an exact frame count. Where
// in the conversation that falls can vary (a worker may hold up to eight
// batches, and heartbeats interleave), but every stage time is a pure
// function, so the run heals to the same result wherever it lands.
type faultConn struct {
	net.Conn
	fl  *faultListener
	ord int

	drop       *chaos.Fault
	partitions []*chaos.Fault
	delays     []*chaos.Fault

	// mu guards the frame state: reads and writes run on different
	// goroutines.
	mu sync.Mutex
	// Frame-parser state over the read byte stream.
	hdr     [4]byte
	hdrGot  int
	payload int // payload bytes still owed for the current frame
	frames  int
	dropped bool
}

// elapsedSec is wall time since the listener was armed.
func (fc *faultConn) elapsedSec() float64 { return time.Since(fc.fl.start).Seconds() }

// severed reports the injected fault that cuts the connection now: an
// earlier conn-drop, or a matching partition window, which severs it.
func (fc *faultConn) severed() error {
	fc.mu.Lock()
	dropped := fc.dropped
	fc.mu.Unlock()
	if dropped {
		return fmt.Errorf("dist: connection %d severed by injected conn-drop", fc.ord)
	}
	at := fc.elapsedSec()
	for _, f := range fc.partitions {
		if at >= f.AtSec && at < f.AtSec+f.DurationSec {
			fc.trip(fc.fl.ctrl, "llmpq_dist_partition_severs_total")
			_ = fc.Conn.Close() //llmpq:allow(errdrop): fault injection severs the conn on purpose; the injected error below is the signal
			return fmt.Errorf("dist: connection %d severed by injected partition", fc.ord)
		}
	}
	return nil
}

func (fc *faultConn) Read(p []byte) (int, error) {
	if err := fc.severed(); err != nil {
		return 0, err
	}
	at := fc.elapsedSec()
	for _, f := range fc.delays {
		if at >= f.AtSec && at < f.AtSec+f.DurationSec {
			fc.trip(fc.fl.ctrl, "llmpq_dist_delayed_reads_total")
			time.Sleep(time.Duration(f.DelaySec * float64(time.Second)))
			break
		}
	}
	n, err := fc.Conn.Read(p)
	if n > 0 && fc.drop != nil {
		fc.carried(func() { fc.countFrames(p[:n]) })
	}
	return n, err
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if err := fc.severed(); err != nil {
		return 0, err
	}
	n, err := fc.Conn.Write(p)
	if err == nil && fc.drop != nil {
		fc.carried(func() { fc.frames++ })
	}
	return n, err
}

// carried applies count to the frame state and severs the connection
// once it has carried AfterFrames frames. The bytes already carried are
// delivered; the very next use of the connection observes the severing.
func (fc *faultConn) carried(count func()) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	count()
	if fc.frames >= fc.drop.AfterFrames && !fc.dropped {
		fc.dropped = true
		fc.trip(fc.fl.sim, "llmpq_dist_injected_conn_drops_total")
		_ = fc.Conn.Close() //llmpq:allow(errdrop): fault injection severs the conn on purpose; the next use observes it
	}
}

// countFrames advances the frame parser over a read chunk.
func (fc *faultConn) countFrames(b []byte) {
	for len(b) > 0 {
		if fc.payload == 0 {
			// Reading the 4-byte length prefix.
			n := copy(fc.hdr[fc.hdrGot:], b)
			fc.hdrGot += n
			b = b[n:]
			if fc.hdrGot == 4 {
				fc.payload = int(binary.BigEndian.Uint32(fc.hdr[:]))
				fc.hdrGot = 0
			}
			continue
		}
		n := fc.payload
		if n > len(b) {
			n = len(b)
		}
		fc.payload -= n
		b = b[n:]
		if fc.payload == 0 {
			fc.frames++
		}
	}
}

func (fc *faultConn) trip(reg *obs.Registry, name string) {
	reg.Counter(name).Inc()
}
