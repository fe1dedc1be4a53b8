package main

import (
	"fmt"
	"slices"

	"weboftrust/internal/ratings"
)

// opKind is one routed read endpoint shape.
type opKind uint8

const (
	opTopK opKind = iota
	opTrust
	opNeighbors
	opAppleseed
	opMoleTrust
	opTidalTrust
	opLandmarkAppleseed
	opLandmarkMoleTrust
	opRank
	opRankUser
	opAnomaly
	opAnomalyTop
	numOpKinds
)

// fanOut reports whether the router answers the kind by asking every
// shard and relaying the freshest body.
func (k opKind) fanOut() bool { return k >= opRank }

// algo maps the propagate kinds to their algo parameter.
func (k opKind) algo() string {
	switch k {
	case opAppleseed, opLandmarkAppleseed:
		return "appleseed"
	case opMoleTrust, opLandmarkMoleTrust:
		return "moletrust"
	case opTidalTrust:
		return "tidaltrust"
	}
	return ""
}

// op is one planned read: its kind, source (and target) user and the
// routed path, rendered ahead of the timed phase.
type op struct {
	kind opKind
	user ratings.UserID
	to   ratings.UserID
	path string
}

func newOp(kind opKind, u, to ratings.UserID) op {
	o := op{kind: kind, user: u, to: to}
	switch kind {
	case opTopK:
		o.path = fmt.Sprintf("/v1/topk?user=%d&k=10", u)
	case opTrust:
		o.path = fmt.Sprintf("/v1/trust?from=%d&to=%d", u, to)
	case opNeighbors:
		o.path = fmt.Sprintf("/v1/neighbors?user=%d", u)
	case opAppleseed, opMoleTrust, opTidalTrust:
		o.path = fmt.Sprintf("/v1/propagate?algo=%s&user=%d&k=10&exact=1", kind.algo(), u)
	case opLandmarkAppleseed, opLandmarkMoleTrust:
		o.path = fmt.Sprintf("/v1/propagate?algo=%s&user=%d&k=10&approx=landmark", kind.algo(), u)
	case opRank:
		o.path = "/v1/rank?k=10"
	case opRankUser:
		o.path = fmt.Sprintf("/v1/rank?user=%d", u)
	case opAnomaly:
		o.path = fmt.Sprintf("/v1/anomaly?user=%d", u)
	case opAnomalyTop:
		o.path = "/v1/anomaly/top?k=10"
	}
	return o
}

// hotKinds is the read-hot (and ingest-read) block: one read of every
// endpoint shape, shuffled per block so every kind is spread evenly over
// the whole run. Equal weights are an assumption: the repository holds
// no measured traffic mix to weight them by.
var hotKinds = []opKind{
	opTopK, opTrust, opNeighbors,
	opAppleseed, opMoleTrust, opTidalTrust,
	opLandmarkAppleseed, opLandmarkMoleTrust,
	opRank, opRankUser, opAnomaly, opAnomalyTop,
}

// missKinds is the propagate-miss block: one read of every propagate
// shape, equally weighted for the same reason as hotKinds. In cost order
// the MoleTrust miss is the middle one of the five, so read_p50_ms on
// this workload reads the MoleTrust misses, and read_p95_ms the
// TidalTrust ones.
var missKinds = []opKind{
	opAppleseed, opMoleTrust, opTidalTrust, opLandmarkAppleseed, opLandmarkMoleTrust,
}

// blockOps plans n reads in whole shuffled blocks of kinds. Each kind
// walks its own seeded permutation of users for its sources, so every
// kind spreads evenly over users from light to heavy whichever seed
// drew them, and a (kind, source) key recurs only after every user has
// had that kind once. Trust targets are drawn from users.
func (in *inputs) blockOps(kinds []opKind, users []ratings.UserID, n int) []op {
	block := slices.Clone(kinds)
	perms := make(map[opKind][]int, len(block))
	next := make(map[opKind]int, len(block))
	for _, k := range block {
		perms[k] = in.rng.Perm(len(users))
	}
	ops := make([]op, 0, n+len(block))
	for len(ops) < n {
		in.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			u := users[perms[k][next[k]%len(users)]]
			next[k]++
			ops = append(ops, newOp(k, u, users[in.rng.IntN(len(users))]))
		}
	}
	return ops[:n]
}

// hotKeys lists every hot key once: the read-hot warm-up that fills each
// shard's result cache and builds its landmark sketches.
func (in *inputs) hotKeys() []op {
	var ops []op
	for _, u := range in.hot {
		for _, k := range hotKinds {
			ops = append(ops, newOp(k, u, u))
		}
	}
	return ops
}

// missWarm warms propagate-miss without touching any source the run
// will query: it builds both landmark sketches and the rank and anomaly
// vectors on every shard from users with no out-edges.
func (in *inputs) missWarm() []op {
	var ops []op
	for s := 0; s < numShards; s++ {
		u := owned(in.idle, s)
		for _, k := range []opKind{opLandmarkAppleseed, opLandmarkMoleTrust, opAppleseed, opMoleTrust, opTidalTrust, opTopK} {
			ops = append(ops, newOp(k, u, u))
		}
	}
	u := in.idle[0]
	return append(ops, newOp(opRank, u, u), newOp(opRankUser, u, u), newOp(opAnomaly, u, u), newOp(opAnomalyTop, u, u))
}
