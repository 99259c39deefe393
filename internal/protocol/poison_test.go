//go:build poison

package protocol

import (
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/wire"
)

// TestPoisonCatchesEarlyRoundRelease: a round's frame lies in the
// round's own buffer, so the cork must hold the round until the write
// that carries the frame returns. A round released while its frame is
// still corked — what that rule forbids — goes out as 0xA5 in a poison
// build, and the evaluator refuses it, while the frame of the round the
// cork held arrives intact.
func TestPoisonCatchesEarlyRoundRelease(t *testing.T) {
	c, err := loweredMAC(circuit.MACConfig{Width: 8, AccWidth: 16, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gc.NewRoundPool(gc.DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	req, err := gc.NewRequest(gc.DefaultParams(), c, 2, [16]byte{52})
	if err != nil {
		t.Fatal(err)
	}
	ck := &cork{pool: pool}
	if err := req.PooledLane(pool).GarbleRow(0, []int64{1, 2}, func(r int, gb *gc.Garbled) error {
		ck.add(materialFrame(gb))
		if r == 0 {
			ck.hold(gb)
		} else {
			pool.Put(gb) // released early: its frame is still corked
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	if err := ck.flush(a); err != nil {
		t.Fatal(err)
	}
	for r, wantErr := range []bool{false, true} {
		frame, err := recvRound(b)
		if err != nil {
			if wantErr {
				continue // the poisoned tag is no round frame
			}
			t.Fatalf("round %d: %v", r, err)
		}
		if _, err := gc.UnmarshalMaterial(frame[1:]); (err != nil) != wantErr {
			t.Fatalf("round %d: parse error %v, want one: %v", r, err, wantErr)
		}
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d rounds outstanding after the flush", n)
	}
}
