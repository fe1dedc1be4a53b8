package main

import (
	"bytes"
	"fmt"
	"time"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/graph"
	"weboftrust/internal/ratings"
	"weboftrust/internal/server"
	"weboftrust/internal/store"
)

// sketchAlgos are the algorithms whose landmark sketches the workloads
// build; TidalTrust's is left out everywhere (one build costs seconds).
var sketchAlgos = []weboftrust.PropagationAlgo{weboftrust.PropagateAppleseed, weboftrust.PropagateMoleTrust}

// facadeKey names one timed facade computation.
type facadeKey struct {
	kind opKind
	user ratings.UserID
}

// timeFacade times, on the unsharded reference model, the computation
// behind each distinct propagate key of ops (up to perKind keys per
// kind, fewer for exact TidalTrust): PropagateExactInto for exact
// kinds, ComposeLandmarks over sketches built here for landmark kinds.
// The sketch builds are timed too.
func timeFacade(ref *weboftrust.TrustModel, ops []op, perKind, tidal int, tr *tracer) (map[facadeKey]time.Duration, error) {
	vec, _, err := ref.GlobalRanks()
	if err != nil {
		return nil, err
	}
	ids := weboftrust.SelectLandmarkIDs(vec, server.DefaultLandmarks)
	sketches := make(map[opKind]*weboftrust.LandmarkSketch)
	for _, algo := range sketchAlgos {
		start := time.Now()
		sk, err := ref.BuildLandmarkSketch(algo, ids)
		if err != nil {
			return nil, err
		}
		tr.span(0, "propagation.sketch_build."+algo.String(), start, time.Now())
		sketches[landmarkKind(algo)] = sk
	}
	dst := make([]float64, ref.Dataset().NumUsers())
	out := make(map[facadeKey]time.Duration)
	var taken [numOpKinds]int
	for _, o := range ops {
		key := facadeKey{o.kind, o.user}
		limit := perKind
		if o.kind == opTidalTrust {
			limit = tidal
		}
		if _, done := out[key]; done || taken[o.kind] >= limit {
			continue
		}
		var name string
		start := time.Now()
		switch o.kind {
		case opAppleseed, opMoleTrust, opTidalTrust:
			algo, err := weboftrust.ParsePropagationAlgo(o.kind.algo())
			if err != nil {
				return nil, err
			}
			err = ref.PropagateExactInto(algo, o.user, dst)
			if err != nil {
				return nil, err
			}
			name = "propagation." + o.kind.algo()
		case opLandmarkAppleseed, opLandmarkMoleTrust:
			if err := ref.ComposeLandmarks(sketches[o.kind], o.user, dst); err != nil {
				return nil, err
			}
			name = "propagation.compose"
		default:
			continue
		}
		end := time.Now()
		tr.span(0, name, start, end)
		out[key] = end.Sub(start)
		taken[o.kind]++
	}
	return out, nil
}

func landmarkKind(algo weboftrust.PropagationAlgo) opKind {
	if algo == weboftrust.PropagateAppleseed {
		return opLandmarkAppleseed
	}
	return opLandmarkMoleTrust
}

// shadowSwaps times the swap stages a Server runs internally and does
// not expose — rank refresh, anomaly refresh, landmark-sketch refresh —
// by calling their public functions on the same inputs, over an
// unsharded model chain fed the same batches one per tick. The graph
// and every swap-stage artifact are replicated state, identical on
// every shard.
//
// The chain is a copy, not the swap itself. It mirrors Server.newState
// in internal/server/server.go (GlobalRanksFrom with rankRefreshIters,
// then refreshAnomaly in anomaly.go, then taintedUsers and
// refreshLandmarks in landmark.go). Whenever those change, check this
// chain against them again: otherwise server.rank_ms_p50,
// anomaly.update_ms_p50 and propagation.sketch_refresh_ms_p50 go on
// timing the old stages.
func shadowSwaps(ref *weboftrust.TrustModel, batches []batch, tr *tracer) error {
	b := ratings.NewBuilderFrom(ref.Dataset())
	m := ref
	scores := anomaly.Compute(m.Dataset(), m.WebOfTrust().Graph())
	vec, _, err := m.GlobalRanks()
	if err != nil {
		return err
	}
	ids := weboftrust.SelectLandmarkIDs(vec, server.DefaultLandmarks)
	sketches := make([]*weboftrust.LandmarkSketch, len(sketchAlgos))
	for i, algo := range sketchAlgos {
		if sketches[i], err = m.BuildLandmarkSketch(algo, ids); err != nil {
			return err
		}
	}
	for _, bt := range batches {
		events, err := store.ReadLog(bytes.NewReader(bt.raw))
		if err != nil {
			return err
		}
		if err := store.Replay(events, b); err != nil {
			return err
		}
		next, err := m.Update(b.Snapshot())
		if err != nil {
			return err
		}
		dirty := next.DirtyUsers()
		if dirty == nil {
			return fmt.Errorf("shadow: update produced no dirty set")
		}
		prevG, nextG := m.WebOfTrust().Graph(), next.WebOfTrust().Graph()

		start := time.Now()
		vec, _, err = next.GlobalRanksFrom(vec, rankRefreshIters)
		if err != nil {
			return err
		}
		tr.span(0, "server.rank", start, time.Now())

		start = time.Now()
		scores = anomaly.Update(scores, m.Dataset(), next.Dataset(), prevG, nextG, dirty)
		tr.span(0, "anomaly.update", start, time.Now())

		tainted := taintedUsers(prevG, dirty)
		ids = weboftrust.SelectLandmarkIDs(vec, server.DefaultLandmarks)
		start = time.Now()
		for i, algo := range sketchAlgos {
			if sketches[i], err = next.RefreshLandmarkSketch(sketches[i], algo, ids, tainted); err != nil {
				return err
			}
		}
		tr.span(0, "propagation.sketch_refresh", start, time.Now())
		m = next
	}
	return nil
}

// rankRefreshIters is the warm EigenTrust iteration count a swap spends
// on the rank refresh: a copy of the unexported constant of the same
// name in internal/server/rank.go.
const rankRefreshIters = 3

// taintedUsers marks every source whose propagation answer a swap may
// have changed: a reverse BFS over the previous graph from the dirty
// rows, as a swap computes it before refreshing landmark sketches. It
// copies the unexported taintedUsers in internal/server/rank.go.
func taintedUsers(g *graph.Graph, dirty []bool) []bool {
	n := g.NumNodes()
	tainted := make([]bool, n)
	var queue []int32
	for u := 0; u < n && u < len(dirty); u++ {
		if dirty[u] {
			tainted[u] = true
			queue = append(queue, int32(u))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		from, _ := g.In(int(v))
		for _, u := range from {
			if !tainted[u] {
				tainted[u] = true
				queue = append(queue, u)
			}
		}
	}
	return tainted
}
