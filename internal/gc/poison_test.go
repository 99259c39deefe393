//go:build poison

package gc

import (
	"testing"

	"maxelerator/internal/circuit"
)

// TestPoisonFillsReleasedRounds: in a poison build a released round's
// tables are 0xA5, so a frame built from it after its release is
// garbage.
func TestPoisonFillsReleasedRounds(t *testing.T) {
	c := circuit.MustMAC(circuit.MACConfig{Width: 8, AccWidth: 16, Signed: true})
	req, err := NewRequest(DefaultParams(), c, 1, [16]byte{8})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewRoundPool(DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	err = req.PooledLane(pool).GarbleRow(0, []int64{3}, func(_ int, gb *Garbled) error {
		pool.Put(gb)
		for i, v := range gb.Material.TableBlock {
			if v != 0xA5 {
				t.Fatalf("byte %d of a released round's tables is %#x, want 0xa5", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
