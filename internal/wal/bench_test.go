package wal

import (
	"os"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// benchRun is the run length the log benchmarks append: one ingest call's
// worth of one site's readings.
const benchRun = 512

// appendRuns logs n readings as runs of benchRun, rotating over 4 sites.
func appendRuns(b *testing.B, l *Log, n int) {
	run := make([]dist.Reading, benchRun)
	for i := 0; i < n; i += benchRun {
		for j := range run {
			run[j] = dist.Reading{T: model.Epoch(i + j), ID: model.TagID((i + j) % 64), Mask: 3}
		}
		if err := l.AppendReadings(i/benchRun%4, run[:min(benchRun, n-i)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the raw append cost per reading when readings
// arrive a run at a time: one header, one CRC and one buffered write per run
// — the overhead every accepted run pays under its stripe lock. A fresh log
// takes over every 2^22 readings (64 MiB, outside the timer), so the number
// is the append path's and not the disk's once the page cache fills.
func BenchmarkWALAppend(b *testing.B) {
	const perLog = 1 << 22
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += perLog {
		b.StopTimer()
		dir := b.TempDir()
		l, err := Open(dir, 4, Options{SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.StartAppending(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		appendRuns(b, l, min(perLog, b.N-done))
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
}

// BenchmarkWALShip measures replication shipping throughput: a follower
// syncing a committed segment set from scratch — ShipDelta chunking and
// framing on the primary side plus Receiver apply (WriteAt + manifest
// commit) on the follower side, the full cost of standing up a warm
// standby.
func BenchmarkWALShip(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, 4, Options{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.StartAppending(); err != nil {
		b.Fatal(err)
	}
	const records = 200_000
	appendRuns(b, l, records)
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReceiver(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var frames []byte
		for {
			pos, err := r.Pos()
			if err != nil {
				b.Fatal(err)
			}
			frames, err = l.ShipDelta(frames[:0], pos, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(frames) == 0 {
				break
			}
			rest := frames
			for len(rest) > 0 {
				rf, n, err := stream.DecodeReplFrame(rest)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Apply(rf); err != nil {
					b.Fatal(err)
				}
				rest = rest[n:]
			}
		}
		total += r.ShippedBytes()
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/(1<<20)/b.Elapsed().Seconds(), "shippedMB/s")
}

// BenchmarkWALSnapshot measures a repeated snapshot commit of a
// multi-megabyte state: encode, write and fsync the file and the
// directory, commit the manifest, retire the previous snapshot. Each
// encode after the first is sized from the previous snapshot, so B/op is
// about one state's bytes in one allocation.
func BenchmarkWALSnapshot(b *testing.B) {
	l, err := Open(b.TempDir(), 1, Options{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300},
		Buffered: [][]dist.Reading{someReadings(400_000)}}
	snapshot := func() {
		if err := l.Snapshot(st, l.NextGen()); err != nil {
			b.Fatal(err)
		}
	}
	snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		snapshot()
	}
}

// BenchmarkWALReplay measures log-scan throughput: CRC over a committed
// segment set of run records and one callback per reading, the raw-read
// half of recovery cost.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, 4, Options{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.StartAppending(); err != nil {
		b.Fatal(err)
	}
	const records = 200_000
	appendRuns(b, l, records)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, 4, Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := l.Replay(func(stream.WALRecord) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d of %d", n, records)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
