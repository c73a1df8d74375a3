package page

import (
	"encoding/binary"
	"fmt"
)

// MarshalBinary encodes the page into exactly Size bytes.  The image is
// what travels on the wire between client and server and what the server
// writes in place to stable storage.
//
// Layout (little endian):
//
//	[0:8)    page id
//	[8:16)   PSN
//	[16:24)  StructPSN
//	[24:26)  number of slots
//	[26:32)  reserved (zero)
//	then one directory entry per slot: used(1) len(2) slotPSN(8)
//	followed immediately by that slot's payload bytes,
//	then zero padding up to Size.
func (p *Page) MarshalBinary() ([]byte, error) {
	buf := make([]byte, p.size)
	binary.LittleEndian.PutUint64(buf[0:], uint64(p.id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.psn))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.structPSN))
	binary.LittleEndian.PutUint16(buf[24:], uint16(len(p.slots)))
	off := headerSize
	for i := range p.slots {
		s := &p.slots[i]
		if off+slotDirSize+len(s.data) > p.size {
			return nil, fmt.Errorf("page %d: content overflows %d-byte image", p.id, p.size)
		}
		if s.used {
			buf[off] = 1
		}
		binary.LittleEndian.PutUint16(buf[off+1:], uint16(len(s.data)))
		binary.LittleEndian.PutUint64(buf[off+3:], uint64(s.psn))
		off += slotDirSize
		copy(buf[off:], s.data)
		off += len(s.data)
	}
	return buf, nil
}

// UnmarshalBinary decodes a page image produced by MarshalBinary.  The
// page's byte budget is set to len(data).  A first pass checks the slot
// directory and sums the payload lengths; the second carves every
// payload from one array, so a decode costs two allocations whatever
// the slot count.  A malformed image leaves p unchanged.
func (p *Page) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize {
		return ErrBadImage
	}
	n := int(binary.LittleEndian.Uint16(data[24:]))
	total := 0
	off := headerSize
	for i := 0; i < n; i++ {
		if off+slotDirSize > len(data) {
			return ErrBadImage
		}
		ln := int(binary.LittleEndian.Uint16(data[off+1:]))
		off += slotDirSize + ln
		if off > len(data) {
			return ErrBadImage
		}
		total += ln
	}
	p.id = ID(binary.LittleEndian.Uint64(data[0:]))
	p.psn = PSN(binary.LittleEndian.Uint64(data[8:]))
	p.structPSN = PSN(binary.LittleEndian.Uint64(data[16:]))
	p.size = len(data)
	p.slots = make([]slot, n)
	p.bytesUsed = headerSize + n*slotDirSize + total
	arena := make([]byte, total)
	off = headerSize
	for i := range p.slots {
		ln := int(binary.LittleEndian.Uint16(data[off+1:]))
		s := slot{used: data[off] == 1, psn: PSN(binary.LittleEndian.Uint64(data[off+3:]))}
		off += slotDirSize
		if ln > 0 {
			s.data = carve(&arena, data[off:off+ln])
		}
		off += ln
		p.slots[i] = s
	}
	return nil
}
