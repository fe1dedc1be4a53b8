package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"weboftrust"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/ratings"
	"weboftrust/internal/shard"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// numShards is the cluster's shard count: one shard per CPU of the
// two-CPU machines the benchmark is sized for.
const numShards = 2

// inputs is everything a run generates before set-up: the files the
// cluster boots from, plus the harness's own plan (hot users, operation
// lists, encoded ingest batches). The cluster sees only the files.
type inputs struct {
	pristine  string           // the generated event log, never appended to
	logPath   string           // the live log the shards boot from and tail
	ckptDirs  []string         // one checkpoint directory per shard
	active    []ratings.UserID // users with at least one web-of-trust out-edge
	idle      []ratings.UserID // users without one
	hot       []ratings.UserID // the read-hot key set's source users
	readers   []ratings.UserID // ingest-read's source users
	degree    []int            // web-of-trust out-degree per user
	batches   []batch
	rng       *rand.Rand
	shardOpts [][]weboftrust.Option
}

// batchStream seeds the ingest batches, the same for every run.
const batchStream = 1

// batch is one pre-encoded ingest append.
type batch struct {
	raw []byte
}

// genInputs writes the synth.Medium community as an event log plus one
// checkpoint per shard covering the whole log, plans the ingest batches,
// and draws the workload's seeded parts: hot users, sources and
// operation order. The community itself is the preset's, the same for
// every seed: its graph sets the cost of every walk and swap, so a
// community drawn per seed would move every metric by ±15% between
// seeds and bury the differences between commits the benchmark exists
// to show.
func genInputs(dir string, seed uint64, nBatches int) (*inputs, error) {
	d, _, err := synth.Generate(synth.Medium())
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &inputs{
		pristine: filepath.Join(dir, "events.pristine.log"),
		logPath:  filepath.Join(dir, "events.log"),
		rng:      rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
	var buf bytes.Buffer
	if err := store.AppendDataset(store.NewLogWriter(&buf), d); err != nil {
		return nil, fmt.Errorf("encode log: %w", err)
	}
	if err := os.WriteFile(in.pristine, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	size := int64(buf.Len())
	for i := 0; i < numShards; i++ {
		// Each shard fans its pipeline out over one worker per CPU, as
		// trustd serve does by default, whatever GOMAXPROCS this
		// process runs with.
		opts := []weboftrust.Option{weboftrust.WithShard(i, numShards), weboftrust.WithWorkers(runtime.NumCPU())}
		m, err := weboftrust.Derive(d, opts...)
		if err != nil {
			return nil, fmt.Errorf("derive shard %d: %w", i, err)
		}
		ck := filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))
		if _, err := checkpoint.WriteDir(ck, m, size, size); err != nil {
			return nil, fmt.Errorf("checkpoint shard %d: %w", i, err)
		}
		in.ckptDirs = append(in.ckptDirs, ck)
		in.shardOpts = append(in.shardOpts, opts)
	}

	ref, err := weboftrust.Derive(d)
	if err != nil {
		return nil, fmt.Errorf("derive reference: %w", err)
	}
	web := ref.WebOfTrust()
	degree := make([]int, d.NumUsers())
	for u := range degree {
		to, _ := web.Neighbors(ratings.UserID(u))
		if degree[u] = len(to); degree[u] > 0 {
			in.active = append(in.active, ratings.UserID(u))
		} else {
			in.idle = append(in.idle, ratings.UserID(u))
		}
	}
	in.hot = stratified(in.active, degree, hotUsers)
	in.readers = stratified(in.active, degree, ingestReaders)
	in.degree = degree
	// The ingest stream is fixed like the community: what a tick costs
	// depends on which categories and landmarks its batch touches, and
	// a stream drawn per seed moved the freshness probe by ±15%.
	in.batches, err = genBatches(d, rand.New(rand.NewPCG(batchStream, batchStream)), nBatches)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// stratified picks n users from pool, the middle one of each of n equal
// strata by out-degree. Answer sizes and walk costs follow out-degree,
// so the users span light to heavy; and they are the same for every
// seed, which decides only the order they are read in, so a run's
// medians do not hinge on which users a seed drew.
func stratified(pool []ratings.UserID, degree []int, n int) []ratings.UserID {
	sorted := slices.Clone(pool)
	slices.SortStableFunc(sorted, func(a, b ratings.UserID) int { return degree[a] - degree[b] })
	out := make([]ratings.UserID, n)
	for i := range out {
		out[i] = sorted[(2*i+1)*len(sorted)/(2*n)]
	}
	return out
}

// owned returns the first user of pool that shard s owns.
func owned(pool []ratings.UserID, s int) ratings.UserID {
	for _, u := range pool {
		if shard.Owner(int(u), numShards) == s {
			return u
		}
	}
	return pool[0]
}

// resetLog restores the live log to the generated one, so every set-up
// boots from identical files.
func (in *inputs) resetLog() error {
	raw, err := os.ReadFile(in.pristine)
	if err != nil {
		return err
	}
	return os.WriteFile(in.logPath, raw, 0o644)
}

// genBatches plans n ingest appends. Each adds an object, a review of it
// by an existing user and ratingsPerBatch ratings from distinct other
// users; every eighth also adds a user who trusts an existing one. Fresh
// objects and users make every review, rating and trust edge new, so
// replay never meets a self-rating or a duplicate. Objects take the
// categories in turn from a seeded start, so every run spreads its
// ticks evenly over small and large categories.
func genBatches(d *ratings.Dataset, rng *rand.Rand, n int) ([]batch, error) {
	users, objects, reviews := d.NumUsers(), d.NumObjects(), d.NumReviews()
	cats := d.NumCategories()
	first := rng.IntN(cats)
	out := make([]batch, n)
	for i := range out {
		var evs []store.Event
		if i%8 == 7 {
			evs = append(evs,
				store.Event{Kind: store.EvAddUser, Name: fmt.Sprintf("bench-user-%d", i)},
				store.Event{Kind: store.EvAddTrust, User: ratings.UserID(users), To: ratings.UserID(rng.IntN(users))})
			users++
		}
		writer := ratings.UserID(rng.IntN(users))
		evs = append(evs,
			store.Event{Kind: store.EvAddObject, Category: ratings.CategoryID((first + i) % cats), Name: fmt.Sprintf("bench-object-%d", i)},
			store.Event{Kind: store.EvAddReview, User: writer, Object: ratings.ObjectID(objects)})
		seen := map[ratings.UserID]bool{writer: true}
		for len(seen) <= ratingsPerBatch {
			r := ratings.UserID(rng.IntN(users))
			if seen[r] {
				continue
			}
			seen[r] = true
			evs = append(evs, store.Event{Kind: store.EvAddRating, User: r, Review: ratings.ReviewID(reviews), Level: uint8(1 + rng.IntN(ratings.RatingLevels))})
		}
		objects++
		reviews++
		var buf bytes.Buffer
		lw := store.NewLogWriter(&buf)
		for _, ev := range evs {
			if err := lw.Append(ev); err != nil {
				return nil, fmt.Errorf("encode batch %d: %w", i, err)
			}
		}
		if err := lw.Flush(); err != nil {
			return nil, err
		}
		out[i] = batch{raw: buf.Bytes()}
	}
	return out, nil
}
