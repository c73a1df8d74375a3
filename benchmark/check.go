package main

import (
	"fmt"

	"clientlog/internal/core"
	"clientlog/internal/page"
)

// ledger remembers, per client and object, the sequence number of the
// client's last acknowledged write.  Each client updates only its own row,
// and rows are read only while no client runs, so there is no locking.
type ledger struct {
	last [numClients][]uint64
}

func newLedger(pages int) *ledger {
	l := &ledger{}
	for i := range l.last {
		l.last[i] = make([]uint64, pages*objsPerPage)
	}
	return l
}

// ack records that client ci's transaction seq, which wrote the write
// operations of ops, was acknowledged.
func (l *ledger) ack(ci int, seq uint64, ops []op) {
	row := l.last[ci]
	for _, o := range ops {
		if o.write {
			row[o.obj] = seq
		}
	}
}

// verdict classifies a value read back.
type verdict int

const (
	valueOK      verdict = iota
	valueLost            // an acknowledged write is absent: the paper's one hard promise broken
	valueCorrupt         // torn, unknown writer, or from a transaction that was never acknowledged
)

// check judges the value read back for an object: it must be whole and
// equal the last acknowledged write of the client it names.  The seeded
// value (client 0) is right only while nobody's write was acknowledged.
func (l *ledger) check(obj int, value []byte) verdict {
	client, seq, whole := parseValue(value)
	if !whole || int(client) > numClients {
		return valueCorrupt
	}
	if client == 0 {
		for ci := range l.last {
			if l.last[ci][obj] != 0 {
				return valueLost
			}
		}
		if seq != 0 {
			return valueCorrupt
		}
		return valueOK
	}
	switch want := l.last[client-1][obj]; {
	case seq == want:
		return valueOK
	case seq < want:
		return valueLost
	default:
		return valueCorrupt
	}
}

// checkResult accumulates verification outcomes over a run.
type checkResult struct {
	checked int
	lost    int // acknowledged commits whose update is absent (acked_lost)
	bad     int // corrupt values and reads that failed
	first   string
}

func (r *checkResult) note(format string, a ...interface{}) {
	if r.first == "" {
		r.first = fmt.Sprintf(format, a...)
	}
}

// verify reads objects [lo, hi) back through fresh read-only transactions
// of client c and judges each against the ledger.  It reports and keeps
// going: a lost update must show up as a number, not as a dead harness.
func (l *ledger) verify(c *core.Client, ids []page.ID, lo, hi int, where string, r *checkResult) {
	for base := lo; base < hi; base += opsPerTxn {
		t, err := c.Begin()
		if err != nil {
			r.bad += hi - base
			r.checked += hi - base
			r.note("%s: begin: %v", where, err)
			return
		}
		for obj := base; obj < base+opsPerTxn && obj < hi; obj++ {
			r.checked++
			id := page.ObjectID{Page: ids[obj/objsPerPage], Slot: uint16(obj % objsPerPage)}
			val, err := t.Read(id)
			if err != nil {
				r.bad++
				r.note("%s: read %s: %v", where, id, err)
				continue
			}
			switch l.check(obj, val) {
			case valueLost:
				r.lost++
				c, s, _ := parseValue(val)
				r.note("%s: object %s holds (client %d, seq %d); acknowledged: %v", where, id, c, s, l.acked(obj))
			case valueCorrupt:
				r.bad++
				r.note("%s: object %s holds a corrupt or unacknowledged value %x", where, id, val[:12])
			}
		}
		if err := t.Commit(); err != nil {
			r.bad++
			r.note("%s: commit of read-back: %v", where, err)
			_ = t.Abort() // releases the locks; ErrTxnDone if Commit got that far
		}
	}
}

// acked lists each client's last acknowledged sequence number for obj.
func (l *ledger) acked(obj int) [numClients]uint64 {
	var out [numClients]uint64
	for ci := range l.last {
		out[ci] = l.last[ci][obj]
	}
	return out
}
