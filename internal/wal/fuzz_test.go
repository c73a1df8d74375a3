package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// nonCanonical are payloads Encode never produces, each next to the one
// it differs from: every one must be ErrCorrupt, never a record.
var nonCanonical = []struct{ what, hex string }{
	{"overlong varint (trailing zero group)", "048280808010ac8200"},                // commit, PrevLSN 300 in three bytes
	{"varint of eleven bytes", "04ffffffffffffffffffff0101"},                       // commit, TxnID
	{"varint past 64 bits", "04ffffffffffffffffff0201"},                            // commit, TxnID
	{"slot past uint16", "070680800404" + "47"},                                    // callback, Slot 1<<16
	{"responder past uint32", "0706028080808010" + "47"},                           // callback, Responder 1<<32
	{"replacement client past uint32", "080bfa0101808080801001"},                   // replacement entry
	{"offset past uint32", "018780808030b4242a0563" + "368080808010" + "00"},       // update, OverwriteAt
	{"zero offset written", "018780808030b4242a0563" + "3600" + "00"},              // update, flag set, offset 0
	{"unknown op flag", "018780808030b4242a0563" + "6100"},                         // update, bit 0x40
	{"equal lengths written twice", "018780808030b4242a0563" + "010101" + "6162"},  // update, no same-length flag
	{"same-length flag on a CLR", "038180808020f40308030c21" + "00" + "00" + "40"}, // clr
	{"byte after the record", "048280808010ac02" + "00"},                           // commit
	{"entry count past the payload", "0605"},                                       // checkpoint
	{"image past the payload", "018780808030b4242a0563" + "21" + "05" + "6162"},    // update
	{"unknown kind", "00"},
	{"empty payload", ""},
}

// TestDecodeRejectsNonCanonical: an overlong varint, a value too large
// for its field, a flag Encode would not set, and bytes past the record
// are ErrCorrupt — a value is never truncated to fit.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for _, c := range nonCanonical {
		data, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%s): Decode = %+v, %v; want ErrCorrupt", c.what, c.hex, rec, err)
		}
	}
}

// FuzzRecordDecode feeds arbitrary payloads to the record decoder.  No
// input may panic; what decodes must re-encode to the very bytes it was
// decoded from (so no value was truncated and no other encoding of a
// record is accepted), with EncodedSize exact; and peekPage, which
// reads the header only, must agree with Decode.
func FuzzRecordDecode(f *testing.F) {
	for _, c := range goldenCases() {
		data, _ := hex.DecodeString(c.hex)
		f.Add(data)
	}
	for _, c := range nonCanonical {
		data, _ := hex.DecodeString(c.hex)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		rec, err := d.Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode(%x): error %v is not ErrCorrupt", data, err)
			}
			return
		}
		if n := EncodedSize(rec); n != len(data) {
			t.Fatalf("Decode(%x) = %+v, whose EncodedSize is %d", data, rec, n)
		}
		if enc := AppendRecord(nil, rec); !bytes.Equal(enc, data) {
			t.Fatalf("Decode(%x) = %+v, which encodes as %x", data, rec, enc)
		}
		want, wantOK := pageOf(rec)
		if pid, ok, err := peekPage(data); err != nil || ok != wantOK || pid != want {
			t.Fatalf("peekPage(%x) = (%d, %v, %v), Decode says (%d, %v)", data, pid, ok, err, want, wantOK)
		}
	})
}

// TestUvarintSize checks uvarintSize against encoding/binary at both
// ends of every bit length.
func TestUvarintSize(t *testing.T) {
	for k := 0; k < 64; k++ {
		for _, v := range []uint64{1 << k, 1<<k - 1, 1<<k | 1<<k - 1} {
			if got, want := uvarintSize(v), len(binary.AppendUvarint(nil, v)); got != want {
				t.Fatalf("uvarintSize(%#x) = %d, want %d", v, got, want)
			}
		}
	}
}
