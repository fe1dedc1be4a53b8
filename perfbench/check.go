package main

import (
	"encoding/json"
	"fmt"
	"os"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// body is the union of the routed response shapes the gate reads.
type body struct {
	Version *uint64 `json:"version"`
	Approx  string  `json:"approx"`
	Score   float64 `json:"score"`
	Results []struct {
		User  int     `json:"user"`
		Score float64 `json:"score"`
	} `json:"results"`
	Edges []struct {
		User   int     `json:"user"`
		Weight float64 `json:"weight"`
	} `json:"edges"`
}

// sampleKeep marks a seeded sample of op indices whose bodies the gate
// checks: up to perKind of each kind, fewer for exact TidalTrust, whose
// reference answer costs a full walk.
func (in *inputs) sampleKeep(ops []op, perKind, tidal int) []bool {
	keep := make([]bool, len(ops))
	var taken [numOpKinds]int
	for _, i := range in.rng.Perm(len(ops)) {
		k := ops[i].kind
		limit := perKind
		if k == opTidalTrust {
			limit = tidal
		}
		if taken[k] < limit {
			taken[k]++
			keep[i] = true
		}
	}
	return keep
}

// deriveLog replays a log file from scratch and derives the unsharded
// reference model for it.
func deriveLog(path string) (*weboftrust.TrustModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := store.ReadLog(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	b := ratings.NewBuilder()
	if err := store.Replay(events, b); err != nil {
		return nil, err
	}
	return weboftrust.Derive(b.Snapshot())
}

// checker compares routed answers against the unsharded facade. Every
// body must parse and carry a version, and every landmark answer its
// label; with a nil ref that is all it checks.
type checker struct {
	ref *weboftrust.TrustModel
	// exactRank compares /v1/rank?k against a cold GlobalRanks, which
	// holds only while the cluster serves its boot state (swaps
	// warm-start the rank chain instead of solving cold).
	exactRank bool
	rank      []float64
}

// check returns nil when raw is the right answer for o.
func (ck *checker) check(o op, raw []byte) error {
	var b body
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", o.path, err)
	}
	if b.Version == nil {
		return fmt.Errorf("%s: no version in body", o.path)
	}
	if o.kind == opLandmarkAppleseed || o.kind == opLandmarkMoleTrust {
		if b.Approx != "landmark" || len(b.Results) > 10 {
			return fmt.Errorf("%s: approx %q with %d results, want a labeled landmark answer", o.path, b.Approx, len(b.Results))
		}
		return nil
	}
	if ck.ref == nil {
		return nil
	}
	var want []core.Ranked
	switch o.kind {
	case opTopK:
		want = ck.ref.TopTrusted(o.user, 10)
	case opTrust:
		if s := ck.ref.Score(o.user, o.to); s != b.Score {
			return fmt.Errorf("%s: score %v, facade %v", o.path, b.Score, s)
		}
		return nil
	case opNeighbors:
		nb := ck.ref.Neighbors(o.user)
		if len(nb) != len(b.Edges) {
			return fmt.Errorf("%s: %d edges, facade %d", o.path, len(b.Edges), len(nb))
		}
		for i, e := range b.Edges {
			if int(nb[i].User) != e.User || nb[i].Score != e.Weight {
				return fmt.Errorf("%s: edge %d is %d:%v, facade %d:%v", o.path, i, e.User, e.Weight, nb[i].User, nb[i].Score)
			}
		}
		return nil
	case opAppleseed, opMoleTrust, opTidalTrust:
		algo, err := weboftrust.ParsePropagationAlgo(o.kind.algo())
		if err != nil {
			return err
		}
		if want, err = ck.ref.Propagate(algo, o.user, 10); err != nil {
			return err
		}
	case opRank:
		if !ck.exactRank {
			return nil
		}
		if ck.rank == nil {
			vec, _, err := ck.ref.GlobalRanks()
			if err != nil {
				return err
			}
			ck.rank = vec
		}
		want = core.RankRow(ck.rank, 10)
	default:
		return nil
	}
	if len(want) != len(b.Results) {
		return fmt.Errorf("%s: %d results, facade %d", o.path, len(b.Results), len(want))
	}
	for i, r := range b.Results {
		if int(want[i].User) != r.User || want[i].Score != r.Score {
			return fmt.Errorf("%s: result %d is %d:%v, facade %d:%v", o.path, i, r.User, r.Score, want[i].User, want[i].Score)
		}
	}
	return nil
}
