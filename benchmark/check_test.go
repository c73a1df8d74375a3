package main

import "testing"

// TestCheckerSeesDroppedUpdate drops an update on purpose: the ledger says
// client 2 last wrote sequence 5, the object still holds sequence 4.
func TestCheckerSeesDroppedUpdate(t *testing.T) {
	l := newLedger(1)
	ops := []op{{obj: 3, write: true}, {obj: 4, write: false}}
	l.ack(1, 4, ops)
	l.ack(1, 5, ops)

	var val [objSize]byte
	putValue(val[:], 2, 5)
	if v := l.check(3, val[:]); v != valueOK {
		t.Errorf("the last acknowledged write judged %v, want valueOK", v)
	}
	putValue(val[:], 2, 4)
	if v := l.check(3, val[:]); v != valueLost {
		t.Errorf("a dropped update judged %v, want valueLost", v)
	}
	putValue(val[:], 2, 6)
	if v := l.check(3, val[:]); v != valueCorrupt {
		t.Errorf("a write nobody acknowledged judged %v, want valueCorrupt", v)
	}
	putValue(val[:], 0, 0)
	if v := l.check(3, val[:]); v != valueLost {
		t.Errorf("the seeded value under an acknowledged write judged %v, want valueLost", v)
	}
	if v := l.check(4, val[:]); v != valueOK {
		t.Errorf("the seeded value of an object only read judged %v, want valueOK", v)
	}
	putValue(val[:], 1, 1)
	if v := l.check(4, val[:]); v != valueCorrupt {
		t.Errorf("a value from a client that never wrote the object judged %v, want valueCorrupt", v)
	}
	val[15] ^= 0x40
	if v := l.check(3, val[:]); v != valueCorrupt {
		t.Errorf("a torn value judged %v, want valueCorrupt", v)
	}
}

// TestVerifyCountsLostUpdate runs the whole read-back against a live
// system whose ledger claims one write more than the system ever saw.
func TestVerifyCountsLostUpdate(t *testing.T) {
	in, err := build(workloadByName("private-local"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	chk := &checkResult{}
	finalCheck(in, chk)
	if chk.lost != 0 || chk.bad != 0 || chk.checked != in.w.pages*objsPerPage {
		t.Fatalf("clean system: checked %d, lost %d, bad %d (%s)", chk.checked, chk.lost, chk.bad, chk.first)
	}
	// Pretend client 1 was told a later commit on object 0 had succeeded.
	in.led.last[0][0] = in.cs[0].seq + 1
	chk = &checkResult{}
	finalCheck(in, chk)
	if chk.lost != 1 || chk.first == "" {
		t.Fatalf("dropped update: lost %d (%q), want 1 and a description", chk.lost, chk.first)
	}
}
