package serve

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
)

// bucketCap is the reading capacity of a bucket's chunks.
func bucketCap(b bucket) int {
	c := 0
	for _, ch := range b.chunks {
		c += cap(ch)
	}
	return c
}

// TestBucketChunks pins the bucket rule: an append never moves a reading
// already buffered, an open bucket holds at most twice its readings plus
// minChunk, a bucket of several chunks seals into one slice of its
// readings in order, and an interval that fits its recycled backing seals
// without a copy.
func TestBucketChunks(t *testing.T) {
	const interval = model.Epoch(1000)
	reading := func(i int) dist.Reading {
		return dist.Reading{T: model.Epoch(i) % interval, ID: model.TagID(i), Mask: 1}
	}

	t.Run("stable", func(t *testing.T) {
		sh := newShard(0, 1, nil)
		rng := rand.New(rand.NewPCG(1, 2))
		var want []dist.Reading
		var first *dist.Reading
		for len(want) < 1<<20 {
			run := make([]dist.Reading, 1+rng.IntN(16384))
			for j := range run {
				run[j] = reading(len(want) + j)
			}
			sh.bucketRunsLocked(run, interval)
			want = append(want, run...)
			b := sh.buckets[0]
			if first == nil {
				first = &b.chunks[0][0]
			}
			if &b.chunks[0][0] != first {
				t.Fatalf("after %d readings the interval's first reading moved", len(want))
			}
			if b.n != len(want) || sh.backlog != len(want) {
				t.Fatalf("bucket counts %d, backlog %d, want %d", b.n, sh.backlog, len(want))
			}
			if c := bucketCap(b); c > 2*b.n+minChunk {
				t.Fatalf("bucket of %d readings holds %d of capacity, over 2n+%d", b.n, c, minChunk)
			}
		}
		chunks := len(sh.buckets[0].chunks)
		due := sh.seal(interval, interval)
		if !slices.Equal(due, want) {
			t.Fatal("the sealed bucket is not its readings in append order")
		}
		if sh.backlog != 0 || len(sh.buckets) != 0 {
			t.Fatalf("after the seal: backlog %d, %d open buckets", sh.backlog, len(sh.buckets))
		}
		if len(sh.free) != min(chunks, maxFreeBuckets) {
			t.Fatalf("%d chunks gathered, %d back on the freelist", chunks, len(sh.free))
		}
	})

	t.Run("sparse", func(t *testing.T) {
		sh := newShard(0, 1, nil)
		const intervals = 10000
		rs := make([]dist.Reading, intervals)
		for k := range rs {
			rs[k] = dist.Reading{T: model.Epoch(k) * interval, ID: 1, Mask: 1}
		}
		sh.bucketRunsLocked(rs, interval)
		if len(sh.buckets) != intervals {
			t.Fatalf("%d buckets open, want %d", len(sh.buckets), intervals)
		}
		for k, b := range sh.buckets {
			if b.n != 1 || bucketCap(b) > minChunk {
				t.Fatalf("interval %d: %d readings in %d of capacity, want 1 in at most %d", k, b.n, bucketCap(b), minChunk)
			}
		}
	})

	t.Run("fits", func(t *testing.T) {
		sh := newShard(0, 1, nil)
		backing := make([]dist.Reading, 0, 4096)
		sh.recycleLocked(backing)
		for i := 0; i < 3000; i += 100 {
			run := make([]dist.Reading, 100)
			for j := range run {
				run[j] = reading(i + j)
			}
			sh.bucketRunsLocked(run, interval)
		}
		due := sh.seal(interval, interval)
		if len(due) != 3000 || &due[0] != &backing[:1][0] {
			t.Fatalf("an interval that fits its recycled backing sealed %d readings into a copy", len(due))
		}
	})
}

// TestServerMatchesSequentialChunked holds the determinism contract where
// one interval's bucket spans several chunks: Δ spans the horizon, as on a
// front-door-only deployment, so a site's whole stream is one bucket that
// the final checkpoint seals. Fed live, recovered from the WAL tail after
// Abort, and restored from a snapshot plus a tail, the served Result must be
// DeepEqual Cluster.ReplaySequential at 1 and GOMAXPROCS workers.
func TestServerMatchesSequentialChunked(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	interval := w.Epochs
	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	events := WorldEvents(w, ref.Departures())
	snapAt, crashAt := len(events)/4, len(events)/2
	const minChunks = 3

	// chunks reports the most chunks any stripe's open bucket holds.
	chunks := func(srv *Server) int {
		most := 0
		for _, sh := range srv.shards {
			sh.mu.Lock()
			for _, b := range sh.buckets {
				most = max(most, len(b.chunks))
			}
			sh.mu.Unlock()
		}
		return most
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, mode := range []string{"live", "wal-tail", "snapshot+tail"} {
			cfg := Config{Interval: interval, Horizon: w.Epochs, Workers: workers}
			if mode != "live" {
				cfg.DataDir, cfg.SyncEvery, cfg.SnapshotEvery = t.TempDir(), -1, -1
			}
			newServer := func() *Server {
				srv, err := New(dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), cfg)
				if err != nil {
					t.Fatalf("workers=%d/%s: %v", workers, mode, err)
				}
				return srv
			}
			srv := newServer()
			if mode != "live" {
				if mode == "snapshot+tail" {
					streamEvents(t, srv, events[:snapAt])
					if _, err := srv.SnapshotNow(); err != nil {
						t.Fatal(err)
					}
					streamEvents(t, srv, events[snapAt:crashAt])
				} else {
					streamEvents(t, srv, events[:crashAt])
				}
				if err := srv.Abort(); err != nil {
					t.Fatal(err)
				}
				srv = newServer()
				if n := chunks(srv); n < minChunks {
					t.Fatalf("workers=%d/%s: the recovered bucket spans %d chunks, want at least %d", workers, mode, n, minChunks)
				}
				streamEvents(t, srv, events[crashAt:])
			} else {
				streamEvents(t, srv, events)
			}
			if n := chunks(srv); n < minChunks {
				t.Fatalf("workers=%d/%s: the bucket spans %d chunks, want at least %d", workers, mode, n, minChunks)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("workers=%d/%s: shutdown: %v", workers, mode, err)
			}
			if got := srv.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d/%s: Result diverged from the sequential reference\n got: %+v\nwant: %+v",
					workers, mode, got, want)
			}
			st := srv.Stats()
			if st.Invalid != 0 || st.Feed.Late != 0 || st.Feed.Checkpoints != 1 {
				t.Errorf("workers=%d/%s: invalid=%d late=%d checkpoints=%d, want 0, 0, 1",
					workers, mode, st.Invalid, st.Feed.Late, st.Feed.Checkpoints)
			}
		}
	}
}
