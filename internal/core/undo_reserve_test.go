package core

import (
	"math"
	"math/rand"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// edgeValue draws a 64-bit field value, most often one at a varint
// length boundary or an extreme.
func edgeValue(rng *rand.Rand) uint64 {
	edges := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<32 - 1, 1 << 32,
		1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	if rng.Intn(4) == 0 {
		return rng.Uint64() >> rng.Intn(64)
	}
	return edges[rng.Intn(len(edges))]
}

// TestUndoReservationBoundsCLR is the undo reservation's upper-bound
// property under the varint record format, where record sizes depend
// on field values: for random update and logical records of every op,
// with extreme field values and empty up to page-sized images, the CLR
// that compensates the record — whatever PrevLSN and page PSN it gets —
// fits in the EncodedSize(u) + FrameSize + clrSlack bytes that
// Txn.record reserves for it, and an abort record fits in abortRecCost.
func TestUndoReservationBoundsCLR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	image := make([]byte, 1<<16)
	imageOf := func() []byte {
		lens := []int{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<16 - 1, 1 << 16}
		if rng.Intn(3) == 0 {
			return image[:rng.Intn(4097)]
		}
		return image[:lens[rng.Intn(len(lens))]]
	}
	ops := []wal.OpKind{wal.OpOverwrite, wal.OpOverwriteAt, wal.OpInsert, wal.OpDelete, wal.OpResize}
	worst := math.MaxInt
	check := func(u wal.Record, clr wal.CLR) {
		t.Helper()
		reserved := wal.EncodedSize(u) + wal.FrameSize + clrSlack
		cost := wal.EncodedSize(&clr) + wal.FrameSize
		if cost > reserved {
			t.Fatalf("CLR %+v costs %d bytes, more than the %d reserved for %+v", clr, cost, reserved, u)
		}
		worst = min(worst, reserved-cost)
	}
	for i := 0; i < 20000; i++ {
		txn, prev := ident.TxnID(edgeValue(rng)), wal.LSN(edgeValue(rng))
		pid, psn := page.ID(edgeValue(rng)), page.PSN(edgeValue(rng))
		slot := uint16(edgeValue(rng))
		clrPrev, clrPSN := wal.LSN(edgeValue(rng)), page.PSN(edgeValue(rng))
		if i%2 == 0 {
			u := &wal.Update{TxnID: txn, PrevLSN: prev, Page: pid, Slot: slot, PSN: psn,
				Op: ops[rng.Intn(len(ops))], Before: imageOf(), After: imageOf()}
			switch u.Op {
			case wal.OpOverwrite:
				u.After = u.Before[:len(u.Before):len(u.Before)]
			case wal.OpOverwriteAt:
				u.Offset = uint32(edgeValue(rng))
			case wal.OpInsert:
				u.Before = nil
			case wal.OpDelete:
				u.After = nil
			}
			check(u, updateCLR(u, clrPrev, clrPSN))
		} else {
			l := &wal.Logical{TxnID: txn, PrevLSN: prev, Page: pid, Slot: slot, PSN: psn, Delta: int64(edgeValue(rng))}
			check(l, logicalCLR(l, clrPrev, clrPSN))
		}
		abort := &wal.Abort{TxnID: txn, PrevLSN: clrPrev}
		if n := wal.EncodedSize(abort) + wal.FrameSize; n > abortRecCost {
			t.Fatalf("abort record %+v costs %d bytes, more than abortRecCost %d", abort, n, abortRecCost)
		}
	}
	t.Logf("smallest margin left by a CLR: %d bytes", worst)
}
