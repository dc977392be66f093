package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segmentFiles returns the segment file names in dir, sorted by index.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// copyDir copies every regular file in src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptSnapshotPayload flips one payload byte of a framed snapshot file.
func corruptSnapshotPayload(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= snapOverhead {
		t.Fatalf("snapshot %s too short to corrupt", path)
	}
	data[len(snapMagic)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Regression for the silent-gap bug: a deleted middle segment used to replay
// without error, losing a committed stretch. Recovery must refuse with ErrGap.
func TestRecoveryRefusesMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes=8 rotates after every commit, one record per segment.
	l, _, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two", "three"} {
		if _, err := l.Commit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v", segs)
	}
	if err := os.Remove(filepath.Join(dir, segs[1])); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrGap) {
		t.Fatalf("Open after removing middle segment = %v, want ErrGap", err)
	}
}

// Regression for the unchecked-snapshot bug: a corrupt newest snapshot must
// not be adopted as the baseline. With an older snapshot and the full segment
// suffix still on disk, recovery falls back and replays the difference.
func TestCorruptNewestSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.Commit([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte("SNAP-A")); err != nil {
		t.Fatal(err)
	}
	want := []string{"post-6", "post-7", "post-8", "post-9", "post-10"}
	for _, p := range want {
		if _, err := l.Commit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep a copy of snapshot A and the segments holding LSNs 6..10, then let
	// checkpoint B (at LSN 10) compact them away.
	backup := t.TempDir()
	copyDir(t, dir, backup)
	l2, _ := reopen(t, dir, Options{Policy: SyncAlways})
	if err := l2.Checkpoint([]byte("SNAP-B")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restore the pre-compaction files and corrupt snapshot B: the older
	// snapshot plus the surviving segments reach LSN 10, so recovery can fall
	// back without losing anything.
	copyDir(t, backup, dir)
	corruptSnapshotPayload(t, filepath.Join(dir, fmt.Sprintf("%020d%s", 10, snapSuffix)))
	l3, rec := reopen(t, dir, Options{})
	defer l3.Close()
	if string(rec.Snapshot) != "SNAP-A" || rec.SnapshotLSN != 5 {
		t.Fatalf("fell back to snapshot %q at LSN %d, want SNAP-A at 5", rec.Snapshot, rec.SnapshotLSN)
	}
	if got := payloads(rec); !equalStrings(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if rec.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", rec.CorruptSnapshots)
	}
	if l3.LSN() != 10 {
		t.Fatalf("recovered LSN %d, want 10", l3.LSN())
	}
}

// Regression: with nothing to fall back to, a corrupt snapshot refuses
// recovery instead of silently loading garbage as the baseline.
func TestCorruptOnlySnapshotRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("ONLY")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	corruptSnapshotPayload(t, filepath.Join(dir, fmt.Sprintf("%020d%s", 2, snapSuffix)))
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Open with only snapshot corrupt = %v, want ErrSnapshotCorrupt", err)
	}
}

// Falling back to an older snapshot is only sound when the segments still
// reach the corrupt snapshot's LSN. If they were compacted away, recovery
// must refuse the stale baseline rather than silently lose the suffix.
func TestCorruptSnapshotRefusesStaleFallback(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("SNAP-A")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("c"), []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	backup := t.TempDir()
	copyDir(t, dir, backup)
	l2, _ := reopen(t, dir, Options{Policy: SyncAlways})
	if err := l2.Checkpoint([]byte("SNAP-B")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restore only the older snapshot — NOT the segments holding LSNs 3..4 —
	// and corrupt the newest. Replay tops out at LSN 2 < 4, so recovery must
	// refuse.
	data, err := os.ReadFile(filepath.Join(backup, fmt.Sprintf("%020d%s", 2, snapSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 2, snapSuffix)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptSnapshotPayload(t, filepath.Join(dir, fmt.Sprintf("%020d%s", 4, snapSuffix)))
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Open with compacted fallback = %v, want ErrSnapshotCorrupt", err)
	}
}

// A footer-less snapshot without the magic header (the format before the
// integrity framing) is corrupt like any other unverifiable file: recovery
// falls back to an older verified snapshot whose segments reach its LSN, and
// refuses when there is none.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 5, snapSuffix)), []byte("LEGACY"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Open over a lone legacy snapshot = %v, want ErrSnapshotCorrupt", err)
	}

	dir = t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("SNAP-A")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 2, snapSuffix)), []byte("LEGACY"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "SNAP-A" || rec.SnapshotLSN != 1 || rec.CorruptSnapshots != 1 {
		t.Fatalf("recovered from %q at LSN %d (%d corrupt), want SNAP-A at 1 past one corrupt snapshot",
			rec.Snapshot, rec.SnapshotLSN, rec.CorruptSnapshots)
	}
	if got := payloads(rec); !equalStrings(got, []string{"b"}) || l2.LSN() != 2 {
		t.Fatalf("replayed %v to LSN %d, want [b] to LSN 2", got, l2.LSN())
	}
}

func TestReadCommittedStreamsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []string{"r1", "r2", "r3", "r4", "r5"}
	if _, err := l.Commit([]byte(want[0]), []byte(want[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte(want[2]), []byte(want[3]), []byte(want[4])); err != nil {
		t.Fatal(err)
	}

	recs, horizon, err := l.ReadCommitted(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 5 || len(recs) != 5 {
		t.Fatalf("ReadCommitted(0) = %d records, horizon %d; want 5, 5", len(recs), horizon)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || string(r.Payload) != want[i] {
			t.Fatalf("record %d = LSN %d %q", i, r.LSN, r.Payload)
		}
	}

	recs, _, err = l.ReadCommitted(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("ReadCommitted(3) = %v", recs)
	}

	recs, _, err = l.ReadCommitted(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("ReadCommitted(0, max 2) = %v", recs)
	}

	recs, horizon, err = l.ReadCommitted(5, 0)
	if err != nil || len(recs) != 0 || horizon != 5 {
		t.Fatalf("caught-up ReadCommitted = %v, %d, %v", recs, horizon, err)
	}

	if err := l.Checkpoint([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadCommitted(0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadCommitted below checkpoint = %v, want ErrCompacted", err)
	}
	if recs, horizon, err := l.ReadCommitted(5, 0); err != nil || len(recs) != 0 || horizon != 5 {
		t.Fatalf("ReadCommitted at checkpoint = %v, %d, %v", recs, horizon, err)
	}
}

func TestCommitShippedMirrorsPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, err := Open(pdir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := []string{"a", "b", "c"}
	for _, s := range want {
		if _, err := p.Commit([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := p.ReadCommitted(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	f, _, err := Open(fdir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := f.CommitShipped(recs)
	if err != nil || len(accepted) != 3 {
		t.Fatalf("CommitShipped = %d accepted, %v", len(accepted), err)
	}
	if f.LSN() != 3 {
		t.Fatalf("follower LSN = %d, want 3", f.LSN())
	}

	// Duplicate delivery is harmless and appends nothing.
	accepted, err = f.CommitShipped(recs)
	if err != nil || len(accepted) != 0 {
		t.Fatalf("duplicate CommitShipped = %d accepted, %v", len(accepted), err)
	}

	// A gapped group is refused before anything is written.
	_, err = f.CommitShipped([]Record{{LSN: 10, Payload: []byte("hole")}})
	if !errors.Is(err, ErrGap) {
		t.Fatalf("gapped CommitShipped = %v, want ErrGap", err)
	}
	if f.LSN() != 3 {
		t.Fatalf("follower LSN moved to %d after refused gap", f.LSN())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The follower's log recovers as a byte-for-byte prefix of the primary's.
	f2, rec := reopen(t, fdir, Options{})
	defer f2.Close()
	if got := payloads(rec); !equalStrings(got, want) {
		t.Fatalf("follower recovered %v, want %v", got, want)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("follower record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestInstallSnapshotBootstrapsFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, err := Open(pdir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Commit([]byte("x"), []byte("y"), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint([]byte("BASE")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit([]byte("tail")); err != nil {
		t.Fatal(err)
	}

	data, lsn, ok, err := p.ReadSnapshot()
	if err != nil || !ok || string(data) != "BASE" || lsn != 3 {
		t.Fatalf("ReadSnapshot = %q, %d, %v, %v", data, lsn, ok, err)
	}

	f, _, err := Open(fdir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallSnapshot(data, lsn); err != nil {
		t.Fatal(err)
	}
	if f.LSN() != 3 {
		t.Fatalf("follower LSN after install = %d, want 3", f.LSN())
	}
	// Rewinding to an older snapshot is refused.
	if err := f.InstallSnapshot([]byte("OLD"), 1); err == nil {
		t.Fatal("InstallSnapshot rewind succeeded, want error")
	}
	recs, _, err := p.ReadCommitted(lsn, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReadCommitted(%d) = %v, %v", lsn, recs, err)
	}
	if _, err := f.CommitShipped(recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, rec := reopen(t, fdir, Options{})
	defer f2.Close()
	if string(rec.Snapshot) != "BASE" || rec.SnapshotLSN != 3 {
		t.Fatalf("follower recovered snapshot %q at %d", rec.Snapshot, rec.SnapshotLSN)
	}
	if got := payloads(rec); !equalStrings(got, []string{"tail"}) {
		t.Fatalf("follower recovered %v, want [tail]", got)
	}
	if f2.LSN() != 4 {
		t.Fatalf("follower LSN = %d, want 4", f2.LSN())
	}
}

func TestReadSnapshotWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, ok, err := l.ReadSnapshot(); ok || err != nil {
		t.Fatalf("ReadSnapshot on fresh log = ok=%v, err=%v", ok, err)
	}
}

// A shipped record that would not fit the frame format (or carries no
// payload) must be refused at ingest, before anything is written — a
// durable-but-unparseable record would brick the follower at recovery.
func TestCommitShippedRejectsMalformedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.CommitShipped([]Record{{LSN: 1, Payload: []byte("ok-1")}}); err != nil {
		t.Fatal(err)
	}

	huge := make([]byte, maxRecordBytes-7) // body = 8-byte LSN + payload, one over the bound
	if _, err := l.CommitShipped([]Record{{LSN: 2, Payload: huge}}); err == nil {
		t.Fatal("oversized shipped record was accepted")
	}
	if l.LSN() != 1 {
		t.Fatalf("LSN moved to %d after refused oversized record", l.LSN())
	}
	huge = nil

	if _, err := l.CommitShipped([]Record{{LSN: 2, Payload: nil}}); err == nil {
		t.Fatal("empty shipped record was accepted")
	}
	if l.LSN() != 1 {
		t.Fatalf("LSN moved to %d after refused empty record", l.LSN())
	}

	// The stream continues cleanly after a refusal, and recovery sees only
	// the accepted records.
	if _, err := l.CommitShipped([]Record{{LSN: 2, Payload: []byte("ok-2")}}); err != nil {
		t.Fatalf("valid record after refusal: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, []string{"ok-1", "ok-2"}) {
		t.Fatalf("recovered %v, want [ok-1 ok-2]", got)
	}
}

// A snapshot shorter than its magic header is corrupt, whether the crash cut
// it inside the header or its bytes are not a header at all.
func TestTruncatedSnapshotHeaderIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"mid-magic", []byte(snapMagic[:5])},
		{"empty", nil},
		{"short, not a magic prefix", []byte("LEG")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, fmt.Sprintf("%020d%s", 3, snapSuffix))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("Open over truncated header = %v, want ErrSnapshotCorrupt", err)
			}
		})
	}

}

// ReadCommitted must return the same records whether or not segments below
// the cursor are skipped — across a live log and a recovered one, whose
// per-segment bounds are rebuilt during replay.
func TestReadCommittedSkipsFullyShippedSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 1; i <= n; i++ {
		if _, err := l.Commit([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if segs := segmentFiles(t, dir); len(segs) < 3 {
		t.Fatalf("only %d segments; the skip path is not exercised", len(segs))
	}

	check := func(t *testing.T, l *Log) {
		t.Helper()
		for after := uint64(0); after <= n; after++ {
			recs, horizon, err := l.ReadCommitted(after, 0)
			if err != nil {
				t.Fatalf("ReadCommitted(%d): %v", after, err)
			}
			if horizon != n {
				t.Fatalf("ReadCommitted(%d) horizon = %d, want %d", after, horizon, n)
			}
			if len(recs) != int(n-after) {
				t.Fatalf("ReadCommitted(%d) = %d records, want %d", after, len(recs), n-after)
			}
			for i, r := range recs {
				wantLSN := after + uint64(i) + 1
				if r.LSN != wantLSN || string(r.Payload) != fmt.Sprintf("r%02d", wantLSN) {
					t.Fatalf("ReadCommitted(%d) record %d = LSN %d %q", after, i, r.LSN, r.Payload)
				}
			}
		}
	}
	check(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// After recovery the bounds come from replay, not live commits.
	l2, _ := reopen(t, dir, Options{SegmentBytes: 8})
	defer l2.Close()
	check(t, l2)
}
