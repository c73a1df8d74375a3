package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"clientlog/internal/page"
)

// storeFactory builds a fresh store for the shared conformance tests.
type storeFactory func(t *testing.T) Store

func factories() map[string]storeFactory {
	return map[string]storeFactory{
		"mem": func(t *testing.T) Store { return NewMemStore(1024) },
		"disk": func(t *testing.T) Store {
			s, err := OpenDiskStore(t.TempDir(), 1024)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			p1, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			p2, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if p1.ID() == p2.ID() {
				t.Fatalf("duplicate page id %d", p1.ID())
			}
			if _, _, err := p1.Insert([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(p1); err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(p1.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got.PSN() != p1.PSN() || got.UsedSlots() != 1 {
				t.Fatalf("read back psn=%d used=%d", got.PSN(), got.UsedSlots())
			}
			// In-place overwrite.
			if _, _, err := got.Overwrite(0, []byte("PAYLOAD")); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(got); err != nil {
				t.Fatal(err)
			}
			again, err := s.Read(p1.ID())
			if err != nil {
				t.Fatal(err)
			}
			d, _ := again.Read(0)
			if string(d) != "PAYLOAD" {
				t.Fatalf("in-place write lost: %q", d)
			}

			ids := s.Allocated()
			if len(ids) != 2 || ids[0] != p1.ID() || ids[1] != p2.ID() {
				t.Fatalf("Allocated() = %v", ids)
			}
			if _, err := s.Read(999); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("Read(999): %v", err)
			}
			if st := s.Stats(); st.Reads == 0 || st.Writes == 0 {
				t.Fatalf("stats not counted: %+v", st)
			}
		})
	}
}

func TestPSNSeedOnReallocation(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			p, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			// Advance the PSN well beyond zero and free the page.
			for i := 0; i < 5; i++ {
				if _, _, err := p.Insert([]byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Write(p); err != nil {
				t.Fatal(err)
			}
			finalPSN := p.PSN()
			if err := s.Free(p.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(p.ID()); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("read after free: %v", err)
			}
			// A reincarnation of the same id must continue the PSN
			// sequence (Mohan-Narang seeding).
			var reborn *page.Page
			for i := 0; i < 64; i++ {
				q, err := s.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				if q.ID() == p.ID() {
					reborn = q
					break
				}
			}
			if reborn == nil {
				t.Skip("allocator never reused the id (monotone ids)")
			}
			if reborn.PSN() <= finalPSN {
				t.Fatalf("reincarnated PSN %d not above final %d", reborn.PSN(), finalPSN)
			}
		})
	}
}

func TestDiskStoreReopenKeepsState(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Insert([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(p); err != nil {
		t.Fatal(err)
	}
	q, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(q.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ids := s2.Allocated()
	if len(ids) != 1 || ids[0] != p.ID() {
		t.Fatalf("Allocated after reopen = %v", ids)
	}
	got, err := s2.Read(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := got.Read(0)
	if string(d) != "durable" {
		t.Fatalf("content after reopen: %q", d)
	}
	// The freed page's PSN seed must survive the reopen.
	reborn, err := s2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if reborn.ID() == q.ID() && reborn.PSN() == 0 {
		t.Fatal("PSN seed lost across reopen")
	}
}

// samePage reports whether two pages encode to the same image: the same
// header, Size included, and the same slots.
func samePage(t *testing.T, a, b *page.Page) bool {
	t.Helper()
	ia, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ia, ib)
}

// TestDiskStoreShrunkPageReadsBack writes a page, deletes most of its
// objects and writes it again at the same offset: the shorter image
// leaves the longer one's tail in the file, and the read must ignore it.
func TestDiskStoreShrunkPageReadsBack(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	last, err := s.Allocate() // p is not the file's last page
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write(p); err != nil {
		t.Fatal(err)
	}
	for _, slot := range []uint16{1, 2, 3, 5, 6, 7} {
		if _, _, err := p.Delete(slot); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 512 || got.UsedSlots() != 2 || !samePage(t, got, p) {
		t.Fatalf("shrunk page read back with size %d, %d live objects, or other content", got.Size(), got.UsedSlots())
	}
	// The file ends with the last page's image, short of its pageSize
	// bytes.
	if got, err := s.Read(last.ID()); err != nil || got.Size() != 512 || !samePage(t, got, last) {
		t.Fatalf("the file's last page: %v", err)
	}
}

// TestDiskStoreReadsPaddedImage opens a data file whose page holds an
// image padded to the page size with a zero size field, as stores
// before protocol version 10 wrote them: it reads back with Size equal
// to the store's page size.
func TestDiskStoreReadsPaddedImage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Insert([]byte("padded")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	padded := make([]byte, 512)
	copy(padded, img)
	binary.LittleEndian.PutUint32(padded[26:], 0)
	f, err := os.OpenFile(filepath.Join(dir, "pages.db"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(padded, int64(p.ID()-1)*512); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Read(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 512 || !samePage(t, got, p) {
		t.Fatalf("padded image read back with size %d or other content", got.Size())
	}
}

// TestStoreRejectsWrongSizePage: a store holds pages of its one size.
func TestStoreRejectsWrongSizePage(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			p, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{s.PageSize() / 2, s.PageSize() * 2} {
				if err := s.Write(page.New(p.ID(), size)); !errors.Is(err, ErrPageSize) {
					t.Fatalf("write of a %d-byte page to a %d-byte store: %v", size, s.PageSize(), err)
				}
			}
			if got, err := s.Read(p.ID()); err != nil || !samePage(t, got, p) {
				t.Fatalf("refused writes changed the stored page: %v", err)
			}
		})
	}
}
