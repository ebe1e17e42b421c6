// Package journal is the durable write-ahead log behind the distributed
// coordinator's crash recovery (DESIGN.md §14). Records are opaque byte
// payloads framed as
//
//	[4-byte big-endian payload length][4-byte big-endian CRC32-IEEE][payload]
//
// and written in call order. Append's fsync makes its record and every
// earlier one durable; AppendNoSync has none, so a power loss may drop
// what followed the last Append. The log on disk is always a valid prefix
// of the records written — possibly followed by one torn tail from a
// crash that landed mid-write. Replay distinguishes the two failure
// shapes a reader can meet:
//
//   - a torn tail (the file ends inside a header or payload): expected
//     after a crash. Replay returns the records of the valid prefix and
//     reports the dangling byte count; Continue truncates it away.
//   - a corrupt record (CRC mismatch, zero or oversize length) anywhere
//     before EOF: the log itself is damaged. Replay stops at the valid
//     prefix and returns a *CorruptJournalError — never a panic,
//     whatever the bytes (the FuzzJournalReplay contract).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// headerBytes frames each record: 4-byte length + 4-byte CRC32 (IEEE).
const headerBytes = 8

// MaxRecordBytes bounds one record, mirroring the wire protocol's frame
// cap: a length field beyond it is corruption, not a huge record.
const MaxRecordBytes = 8 << 20

// CorruptJournalError reports a structurally damaged record at Offset.
// A torn tail is not corruption — see Replayed.TornBytes.
type CorruptJournalError struct {
	Offset int64
	Reason string
}

func (e *CorruptJournalError) Error() string {
	return fmt.Sprintf("journal: corrupt record at byte %d: %s", e.Offset, e.Reason)
}

// Writer appends CRC-checked records to a journal file, in call order.
// An Append returns only after an fsync covering it and every record
// before it. Safe for concurrent use.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
	dirty  bool // records written since the last fsync
	// OnSync, when set before the first append, sees each fsync's duration.
	OnSync func(time.Duration)
}

// Create opens (truncating) a fresh journal at path.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Append frames, writes, and fsyncs one record, returning the bytes the
// journal grew by. The fsync also covers every earlier AppendNoSync.
func (w *Writer) Append(payload []byte) (int, error) { return w.append(payload, true) }

// AppendNoSync is Append without the fsync: the record becomes durable
// with the next Append or Close.
func (w *Writer) AppendNoSync(payload []byte) (int, error) { return w.append(payload, false) }

func (w *Writer) append(payload []byte, barrier bool) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("journal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d cap", len(payload), MaxRecordBytes)
	}
	buf := make([]byte, headerBytes+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerBytes:], payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("journal: append to a closed writer")
	}
	w.dirty = true
	if _, err := w.f.Write(buf); err != nil {
		return 0, err
	}
	if barrier {
		if err := w.sync(); err != nil {
			return 0, err
		}
	}
	return len(buf), nil
}

// sync fsyncs every record written so far; the caller holds mu.
func (w *Writer) sync() error {
	start := time.Now()
	err := w.f.Sync()
	w.dirty = false
	if w.OnSync != nil {
		w.OnSync(time.Since(start))
	}
	return err
}

// Close fsyncs any AppendNoSync records still pending and releases the
// file; further appends fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.dirty {
		return errors.Join(w.sync(), w.f.Close())
	}
	return w.f.Close()
}

// Replayed is the result of reading a journal back.
type Replayed struct {
	// Records holds each complete, CRC-valid payload in append order.
	Records [][]byte
	// ValidBytes is the length of the well-formed prefix.
	ValidBytes int64
	// TornBytes counts trailing bytes of an incomplete final record — a
	// crash landed mid-append. 0 means the file ends on a record
	// boundary.
	TornBytes int64
}

// ReplayBytes decodes a journal image. It never panics: it returns the
// valid-prefix records plus either nil (clean or torn tail) or a
// *CorruptJournalError (a complete record failed its checks). The
// Replayed result is valid in both cases.
func ReplayBytes(data []byte) (*Replayed, error) {
	rep := &Replayed{}
	off := 0
	for {
		rem := len(data) - off
		if rem == 0 {
			return rep, nil
		}
		if rem < headerBytes {
			rep.TornBytes = int64(rem)
			return rep, nil
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n == 0 {
			return rep, &CorruptJournalError{Offset: int64(off), Reason: "zero-length record"}
		}
		if n > MaxRecordBytes {
			return rep, &CorruptJournalError{Offset: int64(off),
				Reason: fmt.Sprintf("record length %d exceeds the %d cap", n, MaxRecordBytes)}
		}
		if rem < headerBytes+n {
			// The final record's payload is cut short: a torn write, not
			// corruption — the crash raced the append.
			rep.TornBytes = int64(rem)
			return rep, nil
		}
		payload := data[off+headerBytes : off+headerBytes+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return rep, &CorruptJournalError{Offset: int64(off), Reason: "CRC32 mismatch"}
		}
		rep.Records = append(rep.Records, payload)
		off += headerBytes + n
		rep.ValidBytes = int64(off)
	}
}

// ReplayFile reads and decodes the journal at path.
func ReplayFile(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReplayBytes(data)
}

// Continue resumes writing an existing journal: replay it, truncate a
// torn tail (a crash mid-append leaves one; no Append covered the lost
// record), and return a writer positioned after the last complete
// record. A corrupt record fails the whole recovery — truncating real
// damage would silently rewrite history.
func Continue(path string) (*Writer, *Replayed, error) {
	rep, err := ReplayFile(path)
	if err != nil {
		return nil, rep, err
	}
	if rep.TornBytes > 0 {
		if err := os.Truncate(path, rep.ValidBytes); err != nil {
			return nil, rep, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rep, err
	}
	return &Writer{f: f}, rep, nil
}
