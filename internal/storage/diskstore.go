package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"clientlog/internal/page"
)

// DiskStore is a file-backed Store.  Page images live in a single data
// file at offset (id-1)*pageSize and are written in place, matching the
// paper's server behaviour.  The allocation map (allocated ids, PSN
// seeds for freed pages, next id) lives in a sidecar meta file that is
// rewritten atomically (write-temp + rename) whenever it changes.
type DiskStore struct {
	mu       sync.Mutex
	dir      string
	pageSize int
	data     *os.File
	alloc    map[page.ID]bool
	seeds    map[page.ID]page.PSN
	nextID   page.ID
	stride   int // fresh ids satisfy id % stride == offset (fleet)
	offset   int

	reads  atomic.Uint64
	writes atomic.Uint64
}

const metaMagic uint32 = 0xC10C_0001

// OpenDiskStore opens (or creates) a page store in dir.
func OpenDiskStore(dir string, pageSize int) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := os.OpenFile(filepath.Join(dir, "pages.db"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &DiskStore{
		dir:      dir,
		pageSize: pageSize,
		data:     data,
		alloc:    make(map[page.ID]bool),
		seeds:    make(map[page.ID]page.PSN),
		nextID:   1,
	}
	if err := s.loadMeta(); err != nil {
		data.Close()
		return nil, err
	}
	return s, nil
}

func (s *DiskStore) metaPath() string { return filepath.Join(s.dir, "alloc.map") }

func (s *DiskStore) loadMeta() error {
	raw, err := os.ReadFile(s.metaPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(raw) < 24 {
		return fmt.Errorf("storage: meta file too short")
	}
	if binary.LittleEndian.Uint32(raw[0:]) != metaMagic {
		return fmt.Errorf("storage: bad meta magic")
	}
	if crc32.ChecksumIEEE(raw[8:]) != binary.LittleEndian.Uint32(raw[4:]) {
		return fmt.Errorf("storage: meta checksum mismatch")
	}
	s.nextID = page.ID(binary.LittleEndian.Uint64(raw[8:]))
	off := 16
	nAlloc := binary.LittleEndian.Uint32(raw[off:])
	off += 4
	for i := uint32(0); i < nAlloc; i++ {
		s.alloc[page.ID(binary.LittleEndian.Uint64(raw[off:]))] = true
		off += 8
	}
	nSeeds := binary.LittleEndian.Uint32(raw[off:])
	off += 4
	for i := uint32(0); i < nSeeds; i++ {
		id := page.ID(binary.LittleEndian.Uint64(raw[off:]))
		psn := page.PSN(binary.LittleEndian.Uint64(raw[off+8:]))
		s.seeds[id] = psn
		off += 16
	}
	return nil
}

// saveMeta is called with s.mu held.
func (s *DiskStore) saveMeta() error {
	body := binary.LittleEndian.AppendUint64(nil, uint64(s.nextID))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.alloc)))
	ids := make([]page.ID, 0, len(s.alloc))
	for id := range s.alloc {
		ids = append(ids, id)
	}
	sortIDs(ids)
	for _, id := range ids {
		body = binary.LittleEndian.AppendUint64(body, uint64(id))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.seeds)))
	sids := make([]page.ID, 0, len(s.seeds))
	for id := range s.seeds {
		sids = append(sids, id)
	}
	sortIDs(sids)
	for _, id := range sids {
		body = binary.LittleEndian.AppendUint64(body, uint64(id))
		body = binary.LittleEndian.AppendUint64(body, uint64(s.seeds[id]))
	}
	head := binary.LittleEndian.AppendUint32(nil, metaMagic)
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(body))
	tmp := s.metaPath() + ".tmp"
	if err := os.WriteFile(tmp, append(head, body...), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.metaPath())
}

// Allocate implements Store.  Freed page ids are reused (smallest
// first) with their Mohan-Narang PSN seeds.
func (s *DiskStore) Allocate() (*page.Page, error) {
	s.mu.Lock()
	var id page.ID
	var seed page.PSN
	if fid, ok := smallestSeed(s.seeds); ok {
		id, seed = fid, s.seeds[fid]
		delete(s.seeds, fid)
	} else {
		id = alignStride(s.nextID, s.stride, s.offset)
		s.nextID = id + 1
	}
	s.alloc[id] = true
	if err := s.saveMeta(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()

	p := page.New(id, s.pageSize)
	p.SetPSN(seed)
	if err := s.Write(p); err != nil {
		return nil, err
	}
	return p, nil
}

// SetAllocStride restricts fresh allocations to page ids congruent to
// offset modulo stride (see MemStore.SetAllocStride).  The data file
// stays laid out at offset (id-1)*pageSize; unowned slots are holes.
func (s *DiskStore) SetAllocStride(stride, offset int) {
	s.mu.Lock()
	s.stride, s.offset = stride, offset
	s.mu.Unlock()
}

// Free implements Store.
func (s *DiskStore) Free(id page.ID) error {
	p, err := s.Read(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.alloc, id)
	s.seeds[id] = p.PSN() + 1
	return s.saveMeta()
}

// Read implements Store.  It reads the page's pageSize bytes; the file
// may end sooner, after the compact image of the page written last at
// its end.
func (s *DiskStore) Read(id page.ID) (*page.Page, error) {
	s.mu.Lock()
	ok := s.alloc[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotAllocated
	}
	buf := make([]byte, s.pageSize)
	n, err := s.data.ReadAt(buf, int64(id-1)*int64(s.pageSize))
	if err != nil && err != io.EOF {
		return nil, err
	}
	s.reads.Add(1)
	p := new(page.Page)
	if err := p.UnmarshalBinary(buf[:n]); err != nil {
		return nil, err
	}
	return p, nil
}

// Write implements Store.  The write is synced: the paper's server
// forces its replacement log record first and then writes the page in
// place, counting both as stable.  The image holds only the bytes the
// page uses; whatever an earlier, longer image left past its end in the
// page's pageSize bytes is ignored by the decoder.
func (s *DiskStore) Write(p *page.Page) error {
	if p.Size() != s.pageSize {
		return ErrPageSize
	}
	img, err := p.MarshalBinary()
	if err != nil {
		return err
	}
	if _, err := s.data.WriteAt(img, int64(p.ID()-1)*int64(s.pageSize)); err != nil {
		return err
	}
	s.writes.Add(1)
	return s.data.Sync()
}

// Allocated implements Store.
func (s *DiskStore) Allocated() []page.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]page.ID, 0, len(s.alloc))
	for id := range s.alloc {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

// PageSize implements Store.
func (s *DiskStore) PageSize() int { return s.pageSize }

// Stats implements Store.
func (s *DiskStore) Stats() Stats {
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// Close implements Store.
func (s *DiskStore) Close() error { return s.data.Close() }
