package page

import (
	"encoding/binary"
	"fmt"
)

// MarshalBinary encodes the page into the bytes it uses: the header,
// the slot directory and the payloads, with no padding.  The image is
// what travels on the wire between client and server and what the server
// writes in place to stable storage; the page's byte budget (Size) rides
// in the header.
//
// Layout (little endian):
//
//	[0:8)    page id
//	[8:16)   PSN
//	[16:24)  StructPSN
//	[24:26)  number of slots
//	[26:30)  Size
//	[30:32)  reserved (zero)
//	then one directory entry per slot: used(1) len(2) slotPSN(8)
//	followed immediately by that slot's payload bytes.
func (p *Page) MarshalBinary() ([]byte, error) {
	buf := make([]byte, headerSize, p.bytesUsed)
	binary.LittleEndian.PutUint64(buf[0:], uint64(p.id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.psn))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.structPSN))
	binary.LittleEndian.PutUint16(buf[24:], uint16(len(p.slots)))
	binary.LittleEndian.PutUint32(buf[26:], uint32(p.size))
	for i := range p.slots {
		s := &p.slots[i]
		var used byte
		if s.used {
			used = 1
		}
		buf = append(buf, used)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.data)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.psn))
		buf = append(buf, s.data...)
	}
	if len(buf) > p.size {
		return nil, fmt.Errorf("page %d: content overflows %d-byte page", p.id, p.size)
	}
	return buf, nil
}

// UnmarshalBinary decodes a page image produced by MarshalBinary.  The
// page's byte budget is the header's Size field; a zero field (an image
// padded to its page's size, as the disk store's files may hold) means
// len(data).  Bytes past the slot directory's last payload are ignored.
// A budget below the bytes the directory uses, or below New's minimum,
// is ErrBadImage.  A first pass checks the slot directory and sums the
// payload lengths; the second carves every payload from one array, so a
// decode costs two allocations whatever the slot count.  A malformed
// image leaves p unchanged.
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
	size := int(binary.LittleEndian.Uint32(data[26:]))
	if size == 0 {
		size = len(data)
	}
	if size < off || size < headerSize+slotDirSize {
		return ErrBadImage
	}
	p.id = ID(binary.LittleEndian.Uint64(data[0:]))
	p.psn = PSN(binary.LittleEndian.Uint64(data[8:]))
	p.structPSN = PSN(binary.LittleEndian.Uint64(data[16:]))
	p.size = size
	p.slots = make([]slot, n)
	p.bytesUsed = off
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
