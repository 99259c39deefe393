package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over backend names with virtual
// nodes. The gateway does not route with it (see route): NewRing, Add
// and Lookup stay only because the frozen benchmark tree compiles
// against them for its gateway.ring_lookup_ns layer
// (bench/maxperf/layers.go); the next benchmark PR deletes the layer
// and this file together. Not safe for concurrent use.
type Ring struct {
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

type ringPoint struct {
	hash   uint64
	member string
}

// ringVnodes is the virtual-node count per member.
const ringVnodes = 128

// NewRing builds an empty ring. The argument was the virtual-node
// count and is ignored; the one caller left passes 0, the default.
func NewRing(_ int) *Ring {
	return &Ring{members: make(map[string]struct{})}
}

// ringHash is FNV-1a 64 through a splitmix64 finalizer. The finalizer
// matters — raw FNV of short near-identical strings ("backend-3#17")
// clusters on the ring badly enough to triple one member's share of the
// keyspace.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < ringVnodes; i++ {
		h := ringHash(member + "#" + strconv.Itoa(i))
		r.points = append(r.points, ringPoint{hash: h, member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Lookup returns up to n distinct members in ring order starting at
// key's position. n <= 0 means every member.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.member]; dup {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}
