// Package cluster turns a fleet of leakd workers into one logical daemon.
// A coordinator is the daemon's own front door (server.Server: submit,
// status, SSE events, cell fetch, health, metrics) over a Dispatcher,
// which shards each sweep's cells across the workers on a consistent-hash
// ring keyed by the cells' existing content addresses, dispatches the
// shards over the retrying API client, merges the workers' event streams
// into the sweep's one client-facing stream, and re-shards work off
// workers that die mid-sweep. The coordinator's content-addressed store
// doubles as the cluster's federated read view: workers that miss locally
// consult it before simulating.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring over worker names. Each node projects
// Replicas virtual points onto a uint64 circle; a cell hash is owned by
// the first point clockwise of its position. Adding or removing one node
// moves only the keys in the arcs that node's points cover (~1/N of the
// space), which is what keeps re-sharding after a worker death cheap:
// surviving workers keep almost all of their cells.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []ringPoint // sorted by pos
}

type ringPoint struct {
	pos  uint64
	node string
}

// DefaultReplicas is the virtual-point count per node when NewRing gets
// a nonpositive value: enough that 3-5 node rings balance within a few
// tens of percent, cheap enough that membership changes stay trivial.
const DefaultReplicas = 128

// NewRing builds an empty ring with the given virtual-point count per
// node (<= 0 means DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// Add inserts node's virtual points. Adding a present node is a no-op, so
// assignment is a pure function of the membership set, not of call order.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{pos: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

// Remove deletes node's virtual points; absent nodes are a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the membership set, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the node owning cellHash, or ("", false) on an empty ring.
func (r *Ring) Owner(cellHash string) (string, bool) {
	return r.OwnerExcluding(cellHash, nil)
}

// OwnerExcluding returns the first clockwise owner of cellHash whose node
// is not in excluded — the re-shard primitive: the dead worker's cells
// flow to their ring successors while everything else stays put. Returns
// ("", false) when no eligible node remains.
func (r *Ring) OwnerExcluding(cellHash string, excluded map[string]bool) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	pos := keyPos(cellHash)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !excluded[p.node] {
			return p.node, true
		}
	}
	return "", false
}

// pointHash places one virtual point: the first 8 bytes of
// sha256(node "#" index), big-endian.
func pointHash(node string, i int) uint64 {
	sum := sha256.Sum256([]byte(node + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPos places a cell hash on the circle. Cell hashes are already hex
// SHA-256 (the store's content addresses), so the leading 16 hex digits
// are a uniform uint64 — no re-hash needed. Anything that is not a hex
// hash is hashed fresh so arbitrary keys still land uniformly.
func keyPos(cellHash string) uint64 {
	if len(cellHash) >= 16 {
		if v, err := strconv.ParseUint(cellHash[:16], 16, 64); err == nil {
			return v
		}
	}
	sum := sha256.Sum256([]byte(cellHash))
	return binary.BigEndian.Uint64(sum[:8])
}

// String renders membership for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes, %d replicas)", r.Len(), r.replicas)
}
