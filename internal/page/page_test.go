package page

import (
	"bytes"
	"testing"
)

func mustInsert(t *testing.T, p *Page, data []byte) uint16 {
	t.Helper()
	s, _, err := p.Insert(data)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return s
}

func TestInsertReadDelete(t *testing.T) {
	p := New(7, 4096)
	if p.ID() != 7 || p.PSN() != 0 {
		t.Fatalf("fresh page: id=%d psn=%d", p.ID(), p.PSN())
	}
	a := mustInsert(t, p, []byte("alpha"))
	b := mustInsert(t, p, []byte("beta"))
	if a == b {
		t.Fatalf("duplicate slot %d", a)
	}
	if p.PSN() != 2 {
		t.Fatalf("PSN after two inserts = %d, want 2", p.PSN())
	}
	got, ok := p.Read(a)
	if !ok || string(got) != "alpha" {
		t.Fatalf("Read(a) = %q, %v", got, ok)
	}
	old, before, err := p.Delete(a)
	if err != nil || string(old) != "alpha" || before != 2 {
		t.Fatalf("Delete: old=%q before=%d err=%v", old, before, err)
	}
	if _, ok := p.Read(a); ok {
		t.Fatal("Read succeeded on deleted slot")
	}
	if p.UsedSlots() != 1 || p.NumSlots() != 2 {
		t.Fatalf("used=%d slots=%d", p.UsedSlots(), p.NumSlots())
	}
	// Slot a should be reused by the next insert.
	c := mustInsert(t, p, []byte("gamma"))
	if c != a {
		t.Fatalf("insert reused slot %d, want %d", c, a)
	}
}

func TestOverwriteIsMergeableOnly(t *testing.T) {
	p := New(1, 4096)
	s := mustInsert(t, p, []byte("12345"))
	if _, _, err := p.Overwrite(s, []byte("1234")); err != ErrSizeMismatch {
		t.Fatalf("size-changing Overwrite: err=%v, want ErrSizeMismatch", err)
	}
	old, before, err := p.Overwrite(s, []byte("abcde"))
	if err != nil || string(old) != "12345" {
		t.Fatalf("Overwrite: old=%q err=%v", old, err)
	}
	if before != 1 || p.PSN() != 2 || p.SlotPSN(s) != 2 {
		t.Fatalf("PSNs: before=%d page=%d slot=%d", before, p.PSN(), p.SlotPSN(s))
	}
	// The in-place form saves the old bytes into the caller's buffer.
	save := make([]byte, 0, 8)
	if _, _, err := p.OverwriteInPlace(s, []byte("1234"), save); err != ErrSizeMismatch {
		t.Fatalf("size-changing OverwriteInPlace: err=%v, want ErrSizeMismatch", err)
	}
	old, before, err = p.OverwriteInPlace(s, []byte("fghij"), save)
	if err != nil || string(old) != "abcde" || &old[0] != &save[:1][0] {
		t.Fatalf("OverwriteInPlace: old=%q err=%v (saved in the caller's buffer: %v)", old, err, err == nil && &old[0] == &save[:1][0])
	}
	if got, _ := p.Read(s); string(got) != "fghij" || before != 2 || p.PSN() != 3 || p.SlotPSN(s) != 3 {
		t.Fatalf("after OverwriteInPlace: %q, PSNs before=%d page=%d slot=%d", got, before, p.PSN(), p.SlotPSN(s))
	}
	structBefore := p.StructPSN()
	if _, _, err := p.Resize(s, []byte("longer value")); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if p.StructPSN() <= structBefore {
		t.Fatal("Resize did not advance StructPSN")
	}
	got, _ := p.Read(s)
	if string(got) != "longer value" {
		t.Fatalf("after Resize: %q", got)
	}
}

func TestOverwriteAt(t *testing.T) {
	p := New(1, 4096)
	s := mustInsert(t, p, []byte("0123456789"))
	old, before, err := p.OverwriteAt(s, 3, []byte("XYZ"))
	if err != nil || string(old) != "345" {
		t.Fatalf("OverwriteAt: old=%q err=%v", old, err)
	}
	if before != 1 || p.SlotPSN(s) != 2 {
		t.Fatalf("PSNs: before=%d slot=%d", before, p.SlotPSN(s))
	}
	got, _ := p.Read(s)
	if string(got) != "012XYZ6789" {
		t.Fatalf("after partial overwrite: %q", got)
	}
	if _, _, err := p.OverwriteAt(s, 8, []byte("LONG")); err != ErrSizeMismatch {
		t.Fatalf("overflow fragment: %v", err)
	}
	if _, _, err := p.OverwriteAt(s, -1, []byte("A")); err != ErrSizeMismatch {
		t.Fatalf("negative offset: %v", err)
	}
	if err := p.RedoOverwriteAt(s, 0, []byte("redo"), 10); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s)
	if string(got) != "redoYZ6789" || p.PSN() != 11 {
		t.Fatalf("redo partial: %q psn=%d", got, p.PSN())
	}
}

func TestPageFull(t *testing.T) {
	p := New(1, 128)
	big := make([]byte, 128)
	if _, _, err := p.Insert(big); err != ErrPageFull {
		t.Fatalf("oversized insert: %v", err)
	}
	// Fill the page with small objects until it reports full, then verify
	// FreeSpace is consistent.
	n := 0
	for {
		_, _, err := p.Insert(make([]byte, 8))
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		n++
		if n > 100 {
			t.Fatal("page never filled")
		}
	}
	if n == 0 {
		t.Fatal("no object fit in a 128-byte page")
	}
	if p.FreeSpace() >= 8+slotDirSize {
		t.Fatalf("page said full but FreeSpace=%d", p.FreeSpace())
	}
}

func TestBadSlotErrors(t *testing.T) {
	p := New(1, 4096)
	s := mustInsert(t, p, []byte("x"))
	if _, _, err := p.Overwrite(99, []byte("y")); err != ErrBadSlot {
		t.Fatalf("Overwrite(99): %v", err)
	}
	if _, _, err := p.Delete(99); err != ErrBadSlot {
		t.Fatalf("Delete(99): %v", err)
	}
	if _, _, err := p.Delete(s); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, _, err := p.Delete(s); err != ErrSlotFree {
		t.Fatalf("double Delete: %v", err)
	}
	if _, _, err := p.Overwrite(s, []byte("z")); err != ErrSlotFree {
		t.Fatalf("Overwrite freed slot: %v", err)
	}
	if _, err := p.InsertAt(0, []byte("back")); err != nil {
		t.Fatalf("InsertAt freed slot: %v", err)
	}
	if _, err := p.InsertAt(0, []byte("clash")); err != ErrSlotInUse {
		t.Fatalf("InsertAt used slot: %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := New(42, 512)
	mustInsert(t, p, []byte("hello"))
	s2 := mustInsert(t, p, []byte("world!"))
	mustInsert(t, p, nil) // zero-length object
	if _, _, err := p.Delete(s2); err != nil {
		t.Fatal(err)
	}
	img, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(img) != 512 {
		t.Fatalf("image length %d, want 512", len(img))
	}
	var q Page
	if err := q.UnmarshalBinary(img); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	assertPagesEqual(t, p, &q)
}

func assertPagesEqual(t *testing.T, p, q *Page) {
	t.Helper()
	if q.ID() != p.ID() || q.PSN() != p.PSN() || q.StructPSN() != p.StructPSN() {
		t.Fatalf("header mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			q.ID(), q.PSN(), q.StructPSN(), p.ID(), p.PSN(), p.StructPSN())
	}
	if q.NumSlots() != p.NumSlots() {
		t.Fatalf("slot count %d vs %d", q.NumSlots(), p.NumSlots())
	}
	for i := 0; i < p.NumSlots(); i++ {
		s := uint16(i)
		pd, pok := p.Read(s)
		qd, qok := q.Read(s)
		if pok != qok || !bytes.Equal(pd, qd) || p.SlotPSN(s) != q.SlotPSN(s) {
			t.Fatalf("slot %d: (%q,%v,psn %d) vs (%q,%v,psn %d)",
				i, pd, pok, p.SlotPSN(s), qd, qok, q.SlotPSN(s))
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var p Page
	if err := p.UnmarshalBinary(make([]byte, 8)); err != ErrBadImage {
		t.Fatalf("short image: %v", err)
	}
	// Claim 100 slots in a tiny buffer.
	img := make([]byte, headerSize+4)
	img[24] = 100
	if err := p.UnmarshalBinary(img); err != ErrBadImage {
		t.Fatalf("overflowing dir: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := New(1, 4096)
	s := mustInsert(t, p, []byte("original"))
	q := p.Clone()
	if _, _, err := p.Overwrite(s, []byte("mutated!")); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Read(s)
	if string(got) != "original" {
		t.Fatalf("clone shares storage: %q", got)
	}
	if q.PSN() == p.PSN() {
		t.Fatal("clone PSN tracked original")
	}
}

func TestRedoHelpers(t *testing.T) {
	p := New(1, 4096)
	s := mustInsert(t, p, []byte("aaaa")) // PSN 1
	// Redo an update that happened at pre-PSN 5: page jumps to 6.
	if err := p.RedoOverwrite(s, []byte("bbbb"), 5); err != nil {
		t.Fatal(err)
	}
	if p.PSN() != 6 || p.SlotPSN(s) != 6 {
		t.Fatalf("after redo: page=%d slot=%d", p.PSN(), p.SlotPSN(s))
	}
	// Redo with an older PSN must not move the page PSN backwards.
	if err := p.RedoOverwrite(s, []byte("cccc"), 2); err != nil {
		t.Fatal(err)
	}
	if p.PSN() != 6 {
		t.Fatalf("page PSN went backwards: %d", p.PSN())
	}
	if err := p.RedoInsert(9, []byte("late"), 10); err != nil {
		t.Fatal(err)
	}
	if !p.SlotUsed(9) || p.PSN() != 11 || p.StructPSN() != 11 {
		t.Fatalf("redo insert: used=%v psn=%d struct=%d", p.SlotUsed(9), p.PSN(), p.StructPSN())
	}
	if err := p.RedoDelete(9, 11); err != nil {
		t.Fatal(err)
	}
	if p.SlotUsed(9) || p.PSN() != 12 {
		t.Fatalf("redo delete: used=%v psn=%d", p.SlotUsed(9), p.PSN())
	}
	if err := p.RedoResize(s, []byte("resized-longer"), 12); err != nil {
		t.Fatal(err)
	}
	if p.StructPSN() != 13 {
		t.Fatalf("redo resize struct PSN %d", p.StructPSN())
	}
}

func TestMergeDisjointSlots(t *testing.T) {
	// Server copy with two objects; two clients each update a different
	// object; the merge must contain both updates.
	base := New(3, 4096)
	s0 := mustInsert(t, base, []byte("obj0"))
	s1 := mustInsert(t, base, []byte("obj1"))

	c1 := base.Clone()
	c2 := base.Clone()
	if _, _, err := c1.Overwrite(s0, []byte("ONE!")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Overwrite(s1, []byte("TWO!")); err != nil {
		t.Fatal(err)
	}
	m := Merge(c1, c2)
	d0, _ := m.Read(s0)
	d1, _ := m.Read(s1)
	if string(d0) != "ONE!" || string(d1) != "TWO!" {
		t.Fatalf("merge lost updates: %q %q", d0, d1)
	}
	want := maxPSN(c1.PSN(), c2.PSN()) + 1
	if m.PSN() != want {
		t.Fatalf("merged PSN %d, want %d", m.PSN(), want)
	}
}

func TestMergeSameObjectHigherPSNWins(t *testing.T) {
	base := New(3, 4096)
	s := mustInsert(t, base, []byte("v0__"))
	old := base.Clone()
	if _, _, err := old.Overwrite(s, []byte("v1__")); err != nil { // slot PSN 2
		t.Fatal(err)
	}
	newer := base.Clone()
	newer.SetPSN(10)                                                 // simulates the callback-installed merged PSN
	if _, _, err := newer.Overwrite(s, []byte("v2__")); err != nil { // slot PSN 11
		t.Fatal(err)
	}
	m := Merge(old, newer)
	got, _ := m.Read(s)
	if string(got) != "v2__" {
		t.Fatalf("merge picked stale version: %q", got)
	}
	m2 := Merge(newer, old) // order must not matter
	got2, _ := m2.Read(s)
	if string(got2) != "v2__" {
		t.Fatalf("merge not symmetric: %q", got2)
	}
}

func TestMergeStructuralNewerWins(t *testing.T) {
	base := New(3, 4096)
	s0 := mustInsert(t, base, []byte("obj0"))

	// Client A performs a structural change (insert) under a page X lock.
	a := base.Clone()
	a.SetPSN(20) // merged PSN after callback from B
	sNew := uint16(0)
	var err error
	if sNew, _, err = a.Insert([]byte("new-object")); err != nil {
		t.Fatal(err)
	}
	// Client B has an older copy with a mergeable update performed before
	// A's structural change.
	b := base.Clone()
	if _, _, err := b.Overwrite(s0, []byte("OBJ0")); err != nil {
		t.Fatal(err)
	}

	m := Merge(a, b)
	if !m.SlotUsed(sNew) {
		t.Fatal("merge dropped structural insert")
	}
	// A's copy already contained B's pre-callback state?  No: B's update
	// has slot PSN 2 while A's copy has slot PSN 1 for s0, so B's content
	// must NOT win here (2 < 21?) — slot PSNs are comparable because the
	// callback protocol guarantees monotone PSNs for the same object.
	// B's overwrite happened at slot PSN 2 > A's slot PSN 1, so it wins.
	d, _ := m.Read(s0)
	if string(d) != "OBJ0" {
		t.Fatalf("mergeable update lost across structural merge: %q", d)
	}
	if m.StructPSN() != a.StructPSN() {
		t.Fatalf("struct PSN %d, want %d", m.StructPSN(), a.StructPSN())
	}
}

func TestMergeIdenticalCopiesBumpsPSN(t *testing.T) {
	p := New(1, 4096)
	mustInsert(t, p, []byte("x"))
	m := Merge(p, p.Clone())
	if m.PSN() != p.PSN()+1 {
		t.Fatalf("PSN %d, want %d (max+1 even for identical copies)", m.PSN(), p.PSN()+1)
	}
}
