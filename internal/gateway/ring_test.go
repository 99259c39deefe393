package gateway

import (
	"fmt"
	"testing"
)

// TestRingDistributionBalance pins the load-spreading property the
// virtual-node count was chosen for: hashing many distinct shape keys onto
// fleets of 3, 5 and 8 backends lands every backend within a factor of
// two of its fair share.
func TestRingDistributionBalance(t *testing.T) {
	const keys = 10000
	for _, n := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("%d-backends", n), func(t *testing.T) {
			r := NewRing(0)
			for i := 0; i < n; i++ {
				r.Add(fmt.Sprintf("backend-%d", i))
			}
			counts := make(map[string]int, n)
			for i := 0; i < keys; i++ {
				got := r.Lookup(fmt.Sprintf("%dx%d/b8s/matvec/per-round", i%97+1, i), 1)
				if len(got) != 1 {
					t.Fatalf("Lookup returned %d members", len(got))
				}
				counts[got[0]]++
			}
			fair := keys / n
			for b, c := range counts {
				if c < fair/2 || c > fair*2 {
					t.Fatalf("%s holds %d of %d keys (fair share %d): ring unbalanced %v", b, c, keys, fair, counts)
				}
			}
			if len(counts) != n {
				t.Fatalf("only %d of %d backends received keys: %v", len(counts), n, counts)
			}
		})
	}
}

// TestRingLookupOrderedDistinct: Lookup(key, 0) walks every member
// exactly once, and a shorter lookup is a strict prefix of the full
// walk.
func TestRingLookupOrderedDistinct(t *testing.T) {
	r := NewRing(0)
	members := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	for _, m := range members {
		r.Add(m)
	}
	full := r.Lookup("2x3/b8s/matvec/batched", 0)
	if len(full) != len(members) {
		t.Fatalf("full lookup returned %d members, want %d", len(full), len(members))
	}
	seen := map[string]bool{}
	for _, m := range full {
		if seen[m] {
			t.Fatalf("duplicate member %s in %v", m, full)
		}
		seen[m] = true
	}
	for n := 1; n < len(members); n++ {
		got := r.Lookup("2x3/b8s/matvec/batched", n)
		if len(got) != n {
			t.Fatalf("Lookup(n=%d) returned %d members", n, len(got))
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("Lookup(n=%d) = %v is not a prefix of %v", n, got, full)
			}
		}
	}
}

// TestRingDeterministicAcrossRebuilds: two independently built rings
// over the same members order every key identically.
func TestRingDeterministicAcrossRebuilds(t *testing.T) {
	build := func(order []string) *Ring {
		r := NewRing(0)
		for _, m := range order {
			r.Add(m)
		}
		return r
	}
	r1 := build([]string{"x:1", "y:2", "z:3"})
	r2 := build([]string{"z:3", "x:1", "y:2"}) // insertion order must not matter
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%dx8/b16u/matvec/per-round", i+1)
		a, b := r1.Lookup(key, 0), r2.Lookup(key, 0)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("key %s: ring orders diverge: %v vs %v", key, a, b)
		}
	}
}
