package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Snapshot integrity framing. A checkpoint file is written as
//
//	[8B magic "RMSNAP01"][payload][4B payload length][4B IEEE CRC32 of payload]
//
// so bit-rot and filesystem truncation are detected on load instead of being
// silently adopted as the recovery baseline. Every snapshot must carry the
// header and verify; a file that does not is corrupt, and recovery falls back
// to an older verified snapshot (see replay.go).
const snapMagic = "RMSNAP01"

const snapOverhead = len(snapMagic) + 8 // header + [len][CRC32] footer

// encodeSnapshot frames payload with the magic header and integrity footer.
func encodeSnapshot(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+snapOverhead)
	out = append(out, snapMagic...)
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// decodeSnapshot verifies and strips the snapshot framing.
func decodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: missing %q header", ErrSnapshotCorrupt, snapMagic)
	}
	if len(data) < snapOverhead {
		return nil, fmt.Errorf("%w: %d bytes is too short for the integrity footer", ErrSnapshotCorrupt, len(data))
	}
	payload := data[len(snapMagic) : len(data)-8]
	storedLen := binary.LittleEndian.Uint32(data[len(data)-8:])
	storedCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if uint64(storedLen) != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: footer length %d does not match payload length %d", ErrSnapshotCorrupt, storedLen, len(payload))
	}
	if crc := crc32.ChecksumIEEE(payload); crc != storedCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrSnapshotCorrupt, storedCRC, crc)
	}
	return payload, nil
}

// Checkpoint makes data the new recovery baseline: it is written to a temp
// file, fsynced, atomically renamed to <LSN>.state, and the directory
// fsynced; only then are the now-superseded segments and older snapshots
// deleted and a fresh segment started. A crash at any point leaves the
// directory recoverable:
//
//   - before the rename: the temp file is ignored (and removed) by Open, and
//     the previous snapshot + segments replay as if the checkpoint never ran;
//   - after the rename: replay starts from the new snapshot and skips every
//     record it covers (LSN <= snapshot LSN), so leftover segments and older
//     snapshots are harmless until deletion finishes.
//
// The caller must guarantee no Commit runs concurrently that the snapshot
// does not already include (the engine holds every table lock while it
// serializes the state and calls Checkpoint).
func (l *Log) Checkpoint(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed != nil {
		return l.crashErr()
	}
	return l.checkpointLocked(data, l.lsn)
}

// checkpointLocked publishes data as the snapshot covering lsn and truncates
// the superseded log. Caller holds l.mu; lsn must be >= l.lsn (Checkpoint
// passes l.lsn itself, InstallSnapshot a primary's horizon).
func (l *Log) checkpointLocked(data []byte, lsn uint64) error {
	tmp := filepath.Join(l.dir, fmt.Sprintf("%020d%s%s", lsn, snapSuffix, tmpSuffix))
	if err := l.writeSnapshot(tmp, data); err != nil {
		l.crash(err)
		return err
	}
	if err := l.rename(tmp, l.snapshotPath(lsn)); err != nil {
		l.crash(fmt.Errorf("wal: publishing snapshot: %w", err))
		return l.crashed
	}
	if err := l.fsyncDir(); err != nil {
		l.crash(err)
		return err
	}
	// The snapshot is durable; everything logged up to lsn is superseded.
	prevSeg := l.segIndex
	if err := l.f.Close(); err != nil {
		l.crash(err)
		return err
	}
	l.f = nil
	l.removeObsolete(lsn, prevSeg)
	// Every segment at or below prevSeg is gone (a file surviving the
	// best-effort deletion is simply scanned again); the fresh segment
	// repopulates the bounds on its first commit.
	l.segLast = make(map[uint64]uint64)
	l.snapLSN = lsn
	l.lsn = lsn
	l.segIndex++
	if err := l.openSegment(); err != nil {
		l.crash(err)
		return err
	}
	l.m.checkpoints.Inc()
	l.m.checkpointBytes.Add(int64(len(data)))
	return nil
}

// writeSnapshot writes and fsyncs the temp snapshot file, framed with the
// magic header and [len][CRC32] integrity footer.
func (l *Log) writeSnapshot(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp file: %w", err)
	}
	if _, err := l.write(f, encodeSnapshot(data)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := l.fsync(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	return f.Close()
}

// removeObsolete deletes segments up to and including lastSeg and snapshots
// older than keepLSN. Deletion is best-effort: anything left behind is
// skipped (snapshots) or deduplicated by LSN (segments) on the next Open.
func (l *Log) removeObsolete(keepLSN, lastSeg uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, segSuffix):
			if idx, ok := parseSeq(name, segSuffix); ok && idx <= lastSeg {
				os.Remove(filepath.Join(l.dir, name))
			}
		case strings.HasSuffix(name, snapSuffix):
			if lsn, ok := parseSeq(name, snapSuffix); ok && lsn < keepLSN {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
}

// fsyncDir fsyncs the log directory so a just-renamed snapshot name is
// durable.
func (l *Log) fsyncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	err = l.fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}
