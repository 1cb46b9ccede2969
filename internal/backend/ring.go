package backend

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over worker indices. Each node owns
// `replicas` virtual points; a key routes to the first point clockwise
// from its hash. Canonical spec keys are stable identities, so the same
// spec always lands on the same worker (maximizing that worker's
// effective cache/warmth) and adding or removing one node remaps only
// ~1/N of the key space.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int
}

// replicas is the virtual-point count per node.
const replicas = 64

func newRing(nodes []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(nodes)*replicas)}
	for i, node := range nodes {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(node + "#" + strconv.Itoa(v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical virtual-point hashes (vanishingly rare) tie-break on
		// node index so the ring is deterministic in the node list.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// node returns the worker index owning key, or -1 for an empty ring.
func (r *ring) node(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 finalizes the FNV hash with splitmix64's avalanche rounds.
// Plain FNV-64a of short, nearly identical strings — canonical spec
// keys, "host:port#vnode" labels — leaves the high bits strongly
// correlated, and the high bits are exactly what the sorted ring
// partitions on: without this mix, 40 distinct spec keys routinely all
// land on one of two workers.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
