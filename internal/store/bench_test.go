package store

// Codec-level store benchmarks. These live in-package because they plant
// a WAL directly and call the record codec. The end-to-end store benches
// (BenchmarkStoreEnroll*, BenchmarkStoreRecovery) are in the repo-root
// bench_test.go with the other artifact benches.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeBenchWAL plants a wal.log of `records` enroll records, `windowsPer`
// windows each. It returns the file's size in bytes.
func writeBenchWAL(b *testing.B, dir string, records, windowsPer int) int64 {
	b.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "shard-0000"), 0o755); err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "shard-0000", walFile))
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for i := 0; i < records; i++ {
		user := fmt.Sprintf("user-%03d", i%32)
		rec := walRecord{
			Seq:     uint64(i + 1),
			Op:      opEnroll,
			User:    user,
			Samples: fakeSamples(user, windowsPer, float64(i)),
		}
		data, err := encodeRecord(rec)
		if err != nil {
			b.Fatal(err)
		}
		n, err := f.Write(data)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(n)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return total
}

// BenchmarkStoreRecoveryCodec replays a 10 000-window population from a
// planted WAL — recovery cost and bytes/window of the record codec.
// Compaction is disabled so each Open replays the full log and leaves the
// directory untouched for the next iteration.
func BenchmarkStoreRecoveryCodec(b *testing.B) {
	const records, windowsPer = 625, 16 // 10 000 windows
	b.Run("binary", func(b *testing.B) {
		dir := b.TempDir()
		size := writeBenchWAL(b, dir, records, windowsPer)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{SnapshotEvery: -1, NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			if st := s.Stats(); st.Windows != records*windowsPer {
				b.Fatalf("recovered %d windows, want %d", st.Windows, records*windowsPer)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(size)/float64(records*windowsPer), "bytes/window")
	})
}

// BenchmarkStoreSnapshotWrite measures one full compaction of a 10 000-
// window population: seal the active segment, encode the binary snapshot
// from the copy-on-write view, rename it into place. Each iteration
// replaces one window first so the compaction is never a no-op.
func BenchmarkStoreSnapshotWrite(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for u := 0; u < 32; u++ {
		user := fmt.Sprintf("user-%03d", u)
		if err := s.Enroll(user, fakeSamples(user, 312, float64(u)), false); err != nil {
			b.Fatal(err)
		}
	}
	// 32*312 + 16 churn windows ≈ 10 000.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Enroll("churn", fakeSamples("churn", 16, float64(i)), true); err != nil {
			b.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBinaryRecord isolates the codec itself: one 16-window
// enroll record, encode vs decode.
func BenchmarkEncodeBinaryRecord(b *testing.B) {
	rec := walRecord{Seq: 1, Op: opEnroll, User: "user-000", Samples: fakeSamples("user-000", 16, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBinaryPayload(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryRecord(b *testing.B) {
	rec := walRecord{Seq: 1, Op: opEnroll, User: "user-000", Samples: fakeSamples("user-000", 16, 1)}
	payload, err := encodeBinaryPayload(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBinaryPayload(payload); err != nil {
			b.Fatal(err)
		}
	}
}
