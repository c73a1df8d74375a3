// Package page implements the slotted database pages used by the
// page-server architecture of Panagos et al. (EDBT 1996).
//
// Every page carries a page sequence number (PSN) that is incremented by
// one on every modification.  In addition to the paper's page-level PSN,
// each slot records the PSN value the page assumed when the slot was last
// modified.  This per-slot bookkeeping is the "little more book-keeping"
// the paper's Section 3.1 accepts in exchange for being able to merge two
// updated copies of the same page without merging log records: the merge
// procedure keeps, slot by slot, the version with the larger slot PSN and
// then sets the page PSN to max(PSN_i, PSN_j)+1 exactly as Section 2
// prescribes.
//
// Updates that overwrite an object in place (same length) are
// "mergeable".  Updates that alter the structure of the page — inserting
// or deleting objects, or changing an object's size — are "non-mergeable"
// and, per Section 3.1, are serialized by the lock manager with a page
// level exclusive lock.  The page records the PSN of the last structural
// change (StructPSN) so that a merge between copies with different
// structures can let the structurally newer copy dictate the layout.
//
// Slot storage.  A page decoded from an image or made by Clone or Merge
// keeps all its slot payloads in one backing array, each slot's bytes
// capped at their length so that no append reaches a neighbour; an
// insert, resize or full overwrite gives the slot a private copy
// instead.  The bytes Overwrite, Delete and Resize return as old are the
// slot's former payload and are never written again: in-place writes
// (OverwriteInPlace, OverwriteAt, RedoOverwriteAt) touch only the slot's
// current bytes, and Merge copies into the clone it has just made.
package page

import (
	"errors"
	"fmt"
)

// ID identifies a database page.
type ID uint64

// PSN is a page sequence number: a per-page counter incremented by one on
// every modification, and bumped to max+1 when two copies are merged.
type PSN uint64

// ObjectID names an object: a (page, slot) pair.  Objects are the unit of
// fine-granularity locking.
type ObjectID struct {
	Page ID
	Slot uint16
}

func (o ObjectID) String() string { return fmt.Sprintf("%d.%d", o.Page, o.Slot) }

// Layout constants for the binary page image.
const (
	headerSize  = 32 // id(8) psn(8) structPSN(8) nslots(2) size(4) pad(2)
	slotDirSize = 11 // used(1) len(2) slotPSN(8)
)

// Common errors.
var (
	ErrPageFull     = errors.New("page: not enough free space")
	ErrBadSlot      = errors.New("page: no such slot")
	ErrSlotFree     = errors.New("page: slot is not in use")
	ErrSlotInUse    = errors.New("page: slot already in use")
	ErrSizeMismatch = errors.New("page: overwrite must preserve object size")
	ErrBadImage     = errors.New("page: malformed binary image")
)

type slot struct {
	used bool
	psn  PSN // page PSN after the last modification of this slot
	data []byte
}

// Page is an in-memory database page.  It has a fixed byte budget (Size)
// and all mutating operations enforce that the content fits.  The binary
// image produced by MarshalBinary holds only the bytes the page uses
// (header, slot directory and payloads, never more than Size); Size
// itself rides in the image's header.
//
// Page is not safe for concurrent use; callers (buffer pools) serialize
// access with latches.
type Page struct {
	id        ID
	psn       PSN
	structPSN PSN
	size      int
	slots     []slot
	bytesUsed int // headerSize + per-slot dir + object bytes
}

// New returns an empty page with the given id and byte budget.  The
// caller (the server's space allocation map) is responsible for
// initializing the PSN per Mohan-Narang; see storage.AllocMap.
func New(id ID, size int) *Page {
	if size < headerSize+slotDirSize {
		panic(fmt.Sprintf("page.New: size %d too small", size))
	}
	return &Page{id: id, size: size, bytesUsed: headerSize}
}

// ID returns the page id.
func (p *Page) ID() ID { return p.id }

// PSN returns the page sequence number.
func (p *Page) PSN() PSN { return p.psn }

// SetPSN installs a PSN value directly.  It is used when the server
// allocates the page (PSN seeded from the allocation map) and during
// recovery when a client installs the PSN value the server remembered in
// its DCT entry (Sections 3.3 and 3.4).
func (p *Page) SetPSN(v PSN) { p.psn = v }

// StructPSN returns the PSN recorded at the last structural change.
func (p *Page) StructPSN() PSN { return p.structPSN }

// Size returns the page's byte budget.
func (p *Page) Size() int { return p.size }

// NumSlots returns the length of the slot directory (including free
// slots).
func (p *Page) NumSlots() int { return len(p.slots) }

// UsedSlots returns the number of live objects on the page.
func (p *Page) UsedSlots() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].used {
			n++
		}
	}
	return n
}

// FreeSpace returns the number of payload bytes that could still be
// stored in a new object (assuming a fresh slot directory entry).
func (p *Page) FreeSpace() int {
	free := p.size - p.bytesUsed - slotDirSize
	if free < 0 {
		return 0
	}
	return free
}

// Read returns a copy of the object stored in the slot, or ok=false if
// the slot is free or out of range.
func (p *Page) Read(s uint16) (data []byte, ok bool) {
	if int(s) >= len(p.slots) || !p.slots[s].used {
		return nil, false
	}
	out := make([]byte, len(p.slots[s].data))
	copy(out, p.slots[s].data)
	return out, true
}

// SlotPSN returns the PSN the page assumed when the slot was last
// modified (0 if the slot was never touched).
func (p *Page) SlotPSN(s uint16) PSN {
	if int(s) >= len(p.slots) {
		return 0
	}
	return p.slots[s].psn
}

// SlotUsed reports whether the slot holds a live object.
func (p *Page) SlotUsed(s uint16) bool {
	return int(s) < len(p.slots) && p.slots[s].used
}

// UsedSlotIDs returns the slot numbers of all live objects in ascending
// order.
func (p *Page) UsedSlotIDs() []uint16 {
	var out []uint16
	for i := range p.slots {
		if p.slots[i].used {
			out = append(out, uint16(i))
		}
	}
	return out
}

// bump increments the PSN and returns the value the page had just before
// the update, which is what the paper stores in log records.
func (p *Page) bump() PSN {
	before := p.psn
	p.psn++
	return before
}

// Insert stores a new object and returns the chosen slot together with
// the PSN the page had just before the update (for the log record).
// Insert is a structural (non-mergeable) update: callers must hold a page
// level exclusive lock.
func (p *Page) Insert(data []byte) (s uint16, before PSN, err error) {
	// Reuse a free slot if one exists; its directory entry is already
	// accounted for.
	reuse := -1
	for i := range p.slots {
		if !p.slots[i].used {
			reuse = i
			break
		}
	}
	need := len(data)
	if reuse < 0 {
		need += slotDirSize
	}
	if p.size-p.bytesUsed < need {
		return 0, 0, ErrPageFull
	}
	if reuse < 0 {
		if len(p.slots) >= 1<<16 {
			return 0, 0, ErrPageFull
		}
		p.slots = append(p.slots, slot{})
		reuse = len(p.slots) - 1
		p.bytesUsed += slotDirSize
	}
	before = p.bump()
	p.slots[reuse] = slot{used: true, psn: p.psn, data: cloneBytes(data)}
	p.bytesUsed += len(data)
	p.structPSN = p.psn
	return uint16(reuse), before, nil
}

// InsertAt stores an object in a specific slot, growing the directory if
// necessary.  It is used by redo (replaying a logged insert) and by undo
// of a delete, both of which must reproduce the original slot number.
func (p *Page) InsertAt(s uint16, data []byte) (before PSN, err error) {
	grow := 0
	if int(s) >= len(p.slots) {
		grow = int(s) + 1 - len(p.slots)
	} else if p.slots[s].used {
		return 0, ErrSlotInUse
	}
	need := len(data) + grow*slotDirSize
	if p.size-p.bytesUsed < need {
		return 0, ErrPageFull
	}
	for i := 0; i < grow; i++ {
		p.slots = append(p.slots, slot{})
		p.bytesUsed += slotDirSize
	}
	before = p.bump()
	p.slots[s] = slot{used: true, psn: p.psn, data: cloneBytes(data)}
	p.bytesUsed += len(data)
	p.structPSN = p.psn
	return before, nil
}

// Delete removes the object in the slot and returns its prior contents
// (the undo image) plus the pre-update PSN.  Structural update.
func (p *Page) Delete(s uint16) (old []byte, before PSN, err error) {
	if int(s) >= len(p.slots) {
		return nil, 0, ErrBadSlot
	}
	if !p.slots[s].used {
		return nil, 0, ErrSlotFree
	}
	old = p.slots[s].data
	before = p.bump()
	p.bytesUsed -= len(old)
	p.slots[s] = slot{used: false, psn: p.psn}
	p.structPSN = p.psn
	return old, before, nil
}

// Overwrite replaces the object's bytes with a same-length value.  This
// is the mergeable update of Section 3.1: it may proceed under an object
// level exclusive lock while other clients update other objects on the
// same page.  It returns the prior contents and the pre-update PSN.
func (p *Page) Overwrite(s uint16, data []byte) (old []byte, before PSN, err error) {
	if int(s) >= len(p.slots) {
		return nil, 0, ErrBadSlot
	}
	if !p.slots[s].used {
		return nil, 0, ErrSlotFree
	}
	if len(data) != len(p.slots[s].data) {
		return nil, 0, ErrSizeMismatch
	}
	old = p.slots[s].data
	before = p.bump()
	p.slots[s].data = cloneBytes(data)
	p.slots[s].psn = p.psn
	return old, before, nil
}

// OverwriteInPlace is Overwrite for a caller that keeps a buffer: the
// new value is copied over the object's bytes, and the bytes they held
// are appended to save first and returned as old.  When save has room
// it allocates nothing.
func (p *Page) OverwriteInPlace(s uint16, data, save []byte) (old []byte, before PSN, err error) {
	if int(s) >= len(p.slots) {
		return nil, 0, ErrBadSlot
	}
	if !p.slots[s].used {
		return nil, 0, ErrSlotFree
	}
	if len(data) != len(p.slots[s].data) {
		return nil, 0, ErrSizeMismatch
	}
	old = append(save, p.slots[s].data...)
	before = p.bump()
	copy(p.slots[s].data, data)
	p.slots[s].psn = p.psn
	return old, before, nil
}

// OverwriteAt replaces len(frag) bytes of the object starting at off:
// the partial-object mergeable update §3.1 names ("updates that simply
// overwrite parts of objects").  It returns the overwritten bytes and
// the pre-update PSN.
func (p *Page) OverwriteAt(s uint16, off int, frag []byte) (old []byte, before PSN, err error) {
	if int(s) >= len(p.slots) {
		return nil, 0, ErrBadSlot
	}
	if !p.slots[s].used {
		return nil, 0, ErrSlotFree
	}
	if off < 0 || off+len(frag) > len(p.slots[s].data) {
		return nil, 0, ErrSizeMismatch
	}
	old = cloneBytes(p.slots[s].data[off : off+len(frag)])
	before = p.bump()
	copy(p.slots[s].data[off:], frag)
	p.slots[s].psn = p.psn
	return old, before, nil
}

// RedoOverwriteAt forces a partial overwrite during redo.
func (p *Page) RedoOverwriteAt(s uint16, off int, frag []byte, recPSN PSN) error {
	if int(s) >= len(p.slots) || !p.slots[s].used {
		return ErrBadSlot
	}
	if off < 0 || off+len(frag) > len(p.slots[s].data) {
		return ErrSizeMismatch
	}
	copy(p.slots[s].data[off:], frag)
	p.slots[s].psn = recPSN + 1
	if p.psn < recPSN+1 {
		p.psn = recPSN + 1
	}
	return nil
}

// Resize replaces the object with a value of a different length.  Per the
// paper's footnote 3 size changes are non-mergeable, so Resize is
// structural and requires a page level exclusive lock.
func (p *Page) Resize(s uint16, data []byte) (old []byte, before PSN, err error) {
	if int(s) >= len(p.slots) {
		return nil, 0, ErrBadSlot
	}
	if !p.slots[s].used {
		return nil, 0, ErrSlotFree
	}
	old = p.slots[s].data
	if p.size-p.bytesUsed < len(data)-len(old) {
		return nil, 0, ErrPageFull
	}
	before = p.bump()
	p.bytesUsed += len(data) - len(old)
	p.slots[s].data = cloneBytes(data)
	p.slots[s].psn = p.psn
	p.structPSN = p.psn
	return old, before, nil
}

// Redo application.  During recovery a log record whose pre-update PSN is
// recPSN is applied by forcing the slot to the after-image and advancing
// the page PSN to recPSN+1 (the PSN the page assumed when the update was
// performed originally).  The paper's redo test — apply only when
// recPSN >= page PSN — is the caller's responsibility; these helpers
// reproduce the state transition unconditionally.

// RedoOverwrite forces a mergeable update during redo.
func (p *Page) RedoOverwrite(s uint16, after []byte, recPSN PSN) error {
	if int(s) >= len(p.slots) || !p.slots[s].used {
		return ErrBadSlot
	}
	p.bytesUsed += len(after) - len(p.slots[s].data)
	p.slots[s].data = cloneBytes(after)
	p.slots[s].psn = recPSN + 1
	if p.psn < recPSN+1 {
		p.psn = recPSN + 1
	}
	return nil
}

// RedoInsert forces a logged insert during redo.
func (p *Page) RedoInsert(s uint16, data []byte, recPSN PSN) error {
	for int(s) >= len(p.slots) {
		p.slots = append(p.slots, slot{})
		p.bytesUsed += slotDirSize
	}
	if p.slots[s].used {
		p.bytesUsed -= len(p.slots[s].data)
	}
	p.slots[s] = slot{used: true, psn: recPSN + 1, data: cloneBytes(data)}
	p.bytesUsed += len(data)
	if p.psn < recPSN+1 {
		p.psn = recPSN + 1
	}
	if p.structPSN < recPSN+1 {
		p.structPSN = recPSN + 1
	}
	return nil
}

// RedoResize forces a logged resize during redo.
func (p *Page) RedoResize(s uint16, after []byte, recPSN PSN) error {
	if err := p.RedoOverwrite(s, after, recPSN); err != nil {
		return err
	}
	if p.structPSN < recPSN+1 {
		p.structPSN = recPSN + 1
	}
	return nil
}

// RedoDelete forces a logged delete during redo.
func (p *Page) RedoDelete(s uint16, recPSN PSN) error {
	if int(s) >= len(p.slots) {
		return ErrBadSlot
	}
	if p.slots[s].used {
		p.bytesUsed -= len(p.slots[s].data)
	}
	p.slots[s] = slot{used: false, psn: recPSN + 1}
	if p.psn < recPSN+1 {
		p.psn = recPSN + 1
	}
	if p.structPSN < recPSN+1 {
		p.structPSN = recPSN + 1
	}
	return nil
}

// Clone returns a deep copy of the page.  Shipping a page between client
// and server always ships a clone.  The copy's payloads share one new
// backing array, so a clone costs three allocations whatever the slot
// count.
func (p *Page) Clone() *Page {
	q := &Page{id: p.id, psn: p.psn, structPSN: p.structPSN, size: p.size, bytesUsed: p.bytesUsed}
	q.slots = make([]slot, len(p.slots))
	total := 0
	for i := range p.slots {
		total += len(p.slots[i].data)
	}
	arena := make([]byte, total)
	for i := range p.slots {
		s := &p.slots[i]
		q.slots[i] = slot{used: s.used, psn: s.psn, data: carve(&arena, s.data)}
	}
	return q
}

// Merge reconciles two copies of the same page per Section 2 of the
// paper, extended with the per-slot PSN bookkeeping described in the
// package comment.  Neither input is modified; the merged copy is
// returned with PSN = max(a.PSN, b.PSN) + 1.
//
// Because structural updates are serialized under a page level exclusive
// lock, at most one of the two copies can have unseen structural changes;
// the copy with the larger StructPSN dictates the slot layout and the
// other copy contributes only newer mergeable (same-size) slot contents.
func Merge(a, b *Page) *Page {
	if a.id != b.id {
		panic(fmt.Sprintf("page.Merge: ids differ (%d vs %d)", a.id, b.id))
	}
	base, other := a, b
	if b.structPSN > a.structPSN {
		base, other = b, a
	}
	m := base.Clone()
	for i := range m.slots {
		if i >= len(other.slots) {
			break
		}
		os := &other.slots[i]
		ms := &m.slots[i]
		if !ms.used || !os.used {
			continue // structure decided by base
		}
		if os.psn > ms.psn && len(os.data) == len(ms.data) {
			copy(ms.data, os.data) // m is the clone just made: no one else sees its bytes
			ms.psn = os.psn
		}
	}
	m.psn = maxPSN(a.psn, b.psn) + 1
	m.structPSN = maxPSN(a.structPSN, b.structPSN)
	return m
}

func maxPSN(a, b PSN) PSN {
	if a > b {
		return a
	}
	return b
}

// carve copies b into the front of *arena and returns the copy, its
// capacity capped at its length so that no append can spill into the
// next slot's bytes.  A nil b stays nil.
func carve(arena *[]byte, b []byte) []byte {
	if b == nil {
		return nil
	}
	n := len(b)
	out := (*arena)[:n:n]
	copy(out, b)
	*arena = (*arena)[n:]
	return out
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
