package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPage builds a page with up to 16 objects and a few random
// mergeable updates so slot PSNs are non-trivial.
func randomPage(r *rand.Rand) *Page {
	p := New(ID(1+r.Intn(8)), 4096)
	n := 1 + r.Intn(16)
	for i := 0; i < n; i++ {
		data := make([]byte, 4+r.Intn(24))
		r.Read(data)
		if _, _, err := p.Insert(data); err != nil {
			break
		}
	}
	for i := 0; i < r.Intn(10); i++ {
		s := uint16(r.Intn(p.NumSlots()))
		if d, ok := p.Read(s); ok {
			nd := make([]byte, len(d))
			r.Read(nd)
			p.Overwrite(s, nd)
		}
	}
	return p
}

// divergedCopies returns two copies of a page that performed mergeable
// updates on disjoint slot sets, mimicking two clients holding object
// level X locks on different objects of the same page.
func divergedCopies(r *rand.Rand) (a, b *Page, aSlots, bSlots []uint16) {
	base := randomPage(r)
	a, b = base.Clone(), base.Clone()
	used := base.UsedSlotIDs()
	for i, s := range used {
		target, list := a, &aSlots
		if i%2 == 1 {
			target, list = b, &bSlots
		}
		if r.Intn(2) == 0 {
			continue
		}
		d, _ := target.Read(s)
		nd := make([]byte, len(d))
		r.Read(nd)
		if _, _, err := target.Overwrite(s, nd); err == nil {
			*list = append(*list, s)
		}
	}
	return a, b, aSlots, bSlots
}

func TestPropMergePreservesDisjointUpdates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, aSlots, bSlots := divergedCopies(r)
		m := Merge(a, b)
		for _, s := range aSlots {
			want, _ := a.Read(s)
			got, _ := m.Read(s)
			if !bytes.Equal(want, got) {
				return false
			}
		}
		for _, s := range bSlots {
			want, _ := b.Read(s)
			got, _ := m.Read(s)
			if !bytes.Equal(want, got) {
				return false
			}
		}
		return m.PSN() == maxPSN(a.PSN(), b.PSN())+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergeCommutativeOnDisjointUpdates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, _, _ := divergedCopies(r)
		m1 := Merge(a, b)
		m2 := Merge(b, a)
		if m1.PSN() != m2.PSN() || m1.NumSlots() != m2.NumSlots() {
			return false
		}
		for i := 0; i < m1.NumSlots(); i++ {
			s := uint16(i)
			d1, ok1 := m1.Read(s)
			d2, ok2 := m2.Read(s)
			if ok1 != ok2 || !bytes.Equal(d1, d2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergeWithSelfKeepsContent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPage(r)
		m := Merge(p, p.Clone())
		for i := 0; i < p.NumSlots(); i++ {
			s := uint16(i)
			d1, ok1 := p.Read(s)
			d2, ok2 := m.Read(s)
			if ok1 != ok2 || !bytes.Equal(d1, d2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPage(r)
		// Random deletes make the slot directory non-contiguous.
		for i := 0; i < r.Intn(4); i++ {
			p.Delete(uint16(r.Intn(p.NumSlots())))
		}
		img, err := p.MarshalBinary()
		if err != nil || len(img) != usedBytes(p) {
			return false
		}
		var q Page
		if err := q.UnmarshalBinary(img); err != nil {
			return false
		}
		if q.ID() != p.ID() || q.PSN() != p.PSN() || q.StructPSN() != p.StructPSN() || q.Size() != p.Size() || q.NumSlots() != p.NumSlots() {
			return false
		}
		for i := 0; i < p.NumSlots(); i++ {
			s := uint16(i)
			d1, ok1 := p.Read(s)
			d2, ok2 := q.Read(s)
			if ok1 != ok2 || !bytes.Equal(d1, d2) || p.SlotPSN(s) != q.SlotPSN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPSNMonotoneUnderOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := New(1, 2048)
		last := p.PSN()
		for i := 0; i < 50; i++ {
			switch r.Intn(3) {
			case 0:
				p.Insert(make([]byte, 1+r.Intn(16)))
			case 1:
				if p.NumSlots() > 0 {
					s := uint16(r.Intn(p.NumSlots()))
					if d, ok := p.Read(s); ok {
						p.Overwrite(s, make([]byte, len(d)))
					}
				}
			case 2:
				if p.NumSlots() > 0 {
					p.Delete(uint16(r.Intn(p.NumSlots())))
				}
			}
			if p.PSN() < last {
				return false
			}
			last = p.PSN()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropOldBytesNeverRewritten saves every old slice Overwrite,
// Delete and Resize return, then updates the page and its clones in
// place, merges them and keeps going.  A decoded or cloned page keeps
// its payloads in one array, so a write through any other slot must
// still leave every saved slice byte-identical.
func TestPropOldBytesNeverRewritten(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img, err := randomPage(r).MarshalBinary()
		if err != nil {
			return false
		}
		var first Page
		if err := first.UnmarshalBinary(img); err != nil {
			return false
		}
		pages := []*Page{&first}
		var saved, want [][]byte
		keep := func(old []byte, _ PSN, err error) {
			if err == nil {
				saved = append(saved, old)
				want = append(want, append([]byte(nil), old...))
			}
		}
		fresh := func(n int) []byte {
			b := make([]byte, n)
			r.Read(b)
			return b
		}
		for i := 0; i < 80; i++ {
			p := pages[r.Intn(len(pages))]
			s := uint16(r.Intn(p.NumSlots()))
			d, ok := p.Read(s)
			if !ok {
				p.InsertAt(s, fresh(4+r.Intn(8)))
				continue
			}
			switch r.Intn(7) {
			case 0:
				keep(p.Overwrite(s, fresh(len(d))))
			case 1:
				keep(p.Delete(s))
			case 2:
				keep(p.Resize(s, fresh(1+r.Intn(16))))
			case 3:
				p.OverwriteInPlace(s, fresh(len(d)), nil)
			case 4:
				if len(d) > 0 {
					p.RedoOverwriteAt(s, r.Intn(len(d)), fresh(1), p.PSN())
				}
			case 5:
				pages = append(pages, p.Clone())
			case 6:
				pages = append(pages, Merge(p, pages[r.Intn(len(pages))]))
			}
		}
		for i := range saved {
			if !bytes.Equal(saved[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthObjectSurvivesCopies: a used slot of length 0 carves
// nothing from the payload array but stays a live object through an
// image round trip, a clone and a merge.
func TestZeroLengthObjectSurvivesCopies(t *testing.T) {
	p := New(3, 256)
	mustInsert(t, p, []byte("abc"))
	empty := mustInsert(t, p, nil)
	mustInsert(t, p, []byte("xyz"))
	img, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := q.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	c := q.Clone()
	assertPagesEqual(t, p, &q)
	assertPagesEqual(t, p, c)
	for name, x := range map[string]*Page{"decoded": &q, "clone": c, "merge": Merge(&q, c)} {
		if d, ok := x.Read(empty); !ok || len(d) != 0 {
			t.Errorf("%s: Read(%d) = %q, %v; want empty, true", name, empty, d, ok)
		}
	}
	again, err := c.MarshalBinary()
	if err != nil || !bytes.Equal(again, img) {
		t.Fatalf("clone re-encodes differently (err %v)", err)
	}
}
