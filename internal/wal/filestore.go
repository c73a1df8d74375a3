package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// FileStore is a Store backed by a real append-only file.  Each record
// is framed as
//
//	len(4) crc32(4) payload
//
// and the frame's byte offset is the record's LSN.  Opening an existing
// file scans forward from the preamble and stops at the first frame with
// a bad length or checksum, which recovers the end of log after a crash
// that tore the final write.
type FileStore struct {
	mu sync.Mutex
	f  *os.File
	// end and durable are written under mu and read without it.
	end      atomic.Uint64
	durable  atomic.Uint64
	capacity uint64
	reclaim  LSN
	frame    []byte // the frame Reserve handed out, under mu
}

// fileMagic opens the preamble and names the record format: CLOGWAL1
// files hold fixed-width records, CLOGWAL2 files the varint records of
// codec.go.  A file of another format is refused, never misdecoded.
const fileMagic = "CLOGWAL2"

// OpenFileStore opens (or creates) a log file.  capacity bounds the live
// log span in bytes; zero means unbounded.  Reclaimed space is accounted
// logically; the file itself is append-only (a production deployment
// would segment and delete files, which does not change the protocol
// behaviour this repository studies).
func OpenFileStore(path string, capacity uint64) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{f: f, capacity: capacity, reclaim: firstLSN}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var pre [int(firstLSN)]byte
		copy(pre[:], fileMagic)
		if _, err := f.WriteAt(pre[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		s.end.Store(uint64(firstLSN))
	} else {
		end, err := scanEnd(f, st.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		s.end.Store(uint64(end))
		// Drop any torn tail so future appends start at a clean frame.
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.durable.Store(s.end.Load())
	return s, nil
}

// scanEnd walks frames from the preamble until the first invalid frame
// and returns the LSN of the log end.
func scanEnd(f *os.File, size int64) (LSN, error) {
	var hdr [int(firstLSN)]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("wal: reading preamble: %w", err)
	}
	switch magic := string(hdr[:len(fileMagic)]); {
	case magic == fileMagic:
	case strings.HasPrefix(magic, fileMagic[:len(fileMagic)-1]):
		return 0, fmt.Errorf("wal: %q is a %s log; this build reads %s logs only", f.Name(), magic, fileMagic)
	default:
		return 0, fmt.Errorf("wal: %q is not a log file", f.Name())
	}
	off := int64(firstLSN)
	var fh [FrameSize]byte
	for off+FrameSize <= size {
		if _, err := f.ReadAt(fh[:], off); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(fh[0:])
		crc := binary.LittleEndian.Uint32(fh[4:])
		if n == 0 || off+FrameSize+int64(n) > size {
			break
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off+FrameSize); err != nil {
			break
		}
		if crc32.ChecksumIEEE(buf) != crc {
			break
		}
		off += FrameSize + int64(n)
	}
	return LSN(off), nil
}

// Reserve implements Appender: the payload goes into the frame buffer
// the store reuses.
func (s *FileStore) Reserve(n int, headroom uint64) ([]byte, error) {
	s.mu.Lock()
	if s.capacity != 0 && s.end.Load()+uint64(n)+FrameSize+headroom-uint64(s.reclaim) > s.capacity {
		s.mu.Unlock()
		return nil, ErrLogFull
	}
	s.frame = slices.Grow(s.frame[:0], FrameSize+n)[:FrameSize+n]
	return s.frame[FrameSize:], nil
}

// Publish implements Appender: it writes the frame at the end of the
// file.
func (s *FileStore) Publish() (LSN, error) {
	defer s.mu.Unlock()
	payload := s.frame[FrameSize:]
	binary.LittleEndian.PutUint32(s.frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(s.frame[4:], crc32.ChecksumIEEE(payload))
	lsn := LSN(s.end.Load())
	if _, err := s.f.WriteAt(s.frame, int64(lsn)); err != nil {
		return NilLSN, err
	}
	s.end.Store(uint64(lsn) + uint64(len(s.frame)))
	return lsn, nil
}

// Append implements Store.
func (s *FileStore) Append(payload []byte) (LSN, error) {
	buf, err := s.Reserve(len(payload), 0)
	if err != nil {
		return NilLSN, err
	}
	copy(buf, payload)
	return s.Publish()
}

// Flush implements Store: it fsyncs the file.
func (s *FileStore) Flush(upTo LSN) error {
	if upTo < s.Durable() {
		return nil
	}
	end := s.end.Load()
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	if end > s.durable.Load() {
		s.durable.Store(end)
	}
	s.mu.Unlock()
	return nil
}

// Durable implements Store.
func (s *FileStore) Durable() LSN { return LSN(s.durable.Load()) }

// End implements Store.
func (s *FileStore) End() LSN { return LSN(s.end.Load()) }

// ReadAt implements Store.
func (s *FileStore) ReadAt(lsn LSN) ([]byte, LSN, error) {
	end := s.End()
	s.mu.Lock()
	rec := s.reclaim
	s.mu.Unlock()
	if lsn < rec {
		return nil, NilLSN, ErrReclaimed
	}
	if lsn+FrameSize > end {
		return nil, NilLSN, ErrOutOfRange
	}
	var fh [FrameSize]byte
	if _, err := s.f.ReadAt(fh[:], int64(lsn)); err != nil {
		return nil, NilLSN, err
	}
	n := binary.LittleEndian.Uint32(fh[0:])
	crc := binary.LittleEndian.Uint32(fh[4:])
	if LSN(uint64(lsn)+FrameSize+uint64(n)) > end {
		return nil, NilLSN, ErrOutOfRange
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, int64(lsn)+FrameSize, int64(n)), buf); err != nil {
		return nil, NilLSN, err
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return nil, NilLSN, fmt.Errorf("wal: bad checksum at %s", lsn)
	}
	return buf, lsn + LSN(FrameSize+n), nil
}

// Reclaim implements Store (logical accounting only; see OpenFileStore).
func (s *FileStore) Reclaim(upTo LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	upTo = min(upTo, s.Durable())
	if upTo > s.reclaim {
		s.reclaim = upTo
	}
	return nil
}

// Horizon implements Store.
func (s *FileStore) Horizon() LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reclaim
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }
