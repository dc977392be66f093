package engine

import (
	"time"

	"repro/internal/obs"
)

// StatsSnapshot is a point-in-time copy of the cost counters as plain
// integers. The counters themselves live only in the DB's registry series
// (dbMetrics), which are monotonic: a measurement window is the difference
// of two snapshots, after.Sub(before).
type StatsSnapshot struct {
	Inserts int
	Deletes int
	Updates int
	Lookups int // key lookups served by the read path
	// DeclarativeChecks counts NOT NULL / primary-key / foreign-key checks;
	// TriggerFirings counts procedural constraint evaluations (general null
	// constraints, non-key-based inclusion dependencies).
	DeclarativeChecks int
	TriggerFirings    int
	IndexLookups      int // hash-index probes
	TuplesScanned     int // tuples visited by scans
	// VersionLSN is the LSN stamp of the published version current when the
	// snapshot was taken (DB.VersionLSN).
	VersionLSN uint64
}

// Sub returns the counts accumulated between before and s; the LSN stamp is
// s's own.
func (s StatsSnapshot) Sub(before StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Inserts:           s.Inserts - before.Inserts,
		Deletes:           s.Deletes - before.Deletes,
		Updates:           s.Updates - before.Updates,
		Lookups:           s.Lookups - before.Lookups,
		DeclarativeChecks: s.DeclarativeChecks - before.DeclarativeChecks,
		TriggerFirings:    s.TriggerFirings - before.TriggerFirings,
		IndexLookups:      s.IndexLookups - before.IndexLookups,
		TuplesScanned:     s.TuplesScanned - before.TuplesScanned,
		VersionLSN:        s.VersionLSN,
	}
}

// Stats reads the cost counters from the DB's registry series, stamped with
// the current version LSN — the snapshot sessions and servers report, and
// the per-shard term of a router's aggregated stats.
func (db *DB) Stats() StatsSnapshot {
	m := db.m
	return StatsSnapshot{
		Inserts:           int(m.inserts.Value()),
		Deletes:           int(m.deletes.Value()),
		Updates:           int(m.updates.Value()),
		Lookups:           int(m.lookups.Value()),
		DeclarativeChecks: int(m.declChecks.Value()),
		TriggerFirings:    int(m.triggerFirings.Value()),
		IndexLookups:      int(m.indexLookups.Value()),
		TuplesScanned:     int(m.tuplesScanned.Value()),
		VersionLSN:        db.VersionLSN(),
	}
}

// Metric names registered per database. Each DB registers one series per
// name under its db=<name> label, so several engines (base vs. merged) can
// share one registry and stay distinguishable.
const (
	metricInserts        = "engine.inserts"
	metricDeletes        = "engine.deletes"
	metricUpdates        = "engine.updates"
	metricLookups        = "engine.lookups"
	metricDeclChecks     = "engine.declarative_checks"
	metricTriggerFirings = "engine.trigger_firings"
	metricIndexLookups   = "engine.index_lookups"
	metricTuplesScanned  = "engine.tuples_scanned"
	metricViolations     = "engine.constraint_violations"
	metricInsertSeconds  = "engine.insert_seconds"
	metricDeleteSeconds  = "engine.delete_seconds"
	metricUpdateSeconds  = "engine.update_seconds"
	metricLookupSeconds  = "engine.lookup_seconds"

	// MVCC read-path series (version.go): publication count and latency, the
	// LSN stamp and age of the current version, lock-free snapshot reads,
	// and write-path lock-plan acquisitions (zero delta over a read-only
	// phase = the lock-free proof the P8 suite asserts).
	metricPublishes        = "engine.mvcc.publishes"
	metricPublishSeconds   = "engine.mvcc.publish_seconds"
	metricVersionLSN       = "engine.mvcc.version_lsn"
	metricVersionAge       = "engine.mvcc.version_age_seconds"
	metricSnapshotReads    = "engine.mvcc.snapshot_reads"
	metricLockAcquisitions = "engine.lock_acquisitions"

	// Online-advisor series: co-access edge hits observed on the fetch path
	// and live schema migrations applied (MigrateSchema publishes).
	metricCoAccess   = "advisor.co_access"
	metricMigrations = "advisor.migrations"
)

// dbMetrics holds the registry-backed counter and histogram handles: the
// only store of the DB's cost counts. The series are monotonic and record
// process-lifetime totals; DB.Stats reads them.
type dbMetrics struct {
	inserts, deletes, updates, lookups         *obs.Counter
	declChecks, triggerFirings                 *obs.Counter
	indexLookups, tuplesScanned                *obs.Counter
	violations                                 *obs.Counter
	publishes, snapshotReads, lockAcquisitions *obs.Counter
	coAccess, migrations                       *obs.Counter
	versionLSN                                 *obs.Gauge
	insertLat, deleteLat, updateLat, lookupLat *obs.Histogram
	publishLat                                 *obs.Histogram
}

func newDBMetrics(r *obs.Registry, name string) *dbMetrics {
	l := obs.L("db", name)
	return &dbMetrics{
		inserts:          r.Counter(metricInserts, l),
		deletes:          r.Counter(metricDeletes, l),
		updates:          r.Counter(metricUpdates, l),
		lookups:          r.Counter(metricLookups, l),
		declChecks:       r.Counter(metricDeclChecks, l),
		triggerFirings:   r.Counter(metricTriggerFirings, l),
		indexLookups:     r.Counter(metricIndexLookups, l),
		tuplesScanned:    r.Counter(metricTuplesScanned, l),
		violations:       r.Counter(metricViolations, l),
		publishes:        r.Counter(metricPublishes, l),
		snapshotReads:    r.Counter(metricSnapshotReads, l),
		lockAcquisitions: r.Counter(metricLockAcquisitions, l),
		coAccess:         r.Counter(metricCoAccess, l),
		migrations:       r.Counter(metricMigrations, l),
		versionLSN:       r.Gauge(metricVersionLSN, l),
		insertLat:        r.Histogram(metricInsertSeconds, obs.LatencyBuckets, l),
		deleteLat:        r.Histogram(metricDeleteSeconds, obs.LatencyBuckets, l),
		updateLat:        r.Histogram(metricUpdateSeconds, obs.LatencyBuckets, l),
		lookupLat:        r.Histogram(metricLookupSeconds, obs.LatencyBuckets, l),
		publishLat:       r.Histogram(metricPublishSeconds, obs.LatencyBuckets, l),
	}
}

// registerVersionAge registers the version-age gauge: seconds since the last
// publish, the "how stale can a freshly pinned read view be" signal. It is a
// GaugeFunc because the age advances between publishes with no event to hook.
func (m *dbMetrics) registerVersionAge(r *obs.Registry, name string, db *DB) {
	r.GaugeFunc(metricVersionAge, func() float64 {
		return now().Sub(time.Unix(0, db.lastPublish.Load())).Seconds()
	}, obs.L("db", name))
}

// The accounting helpers below are the single mutation points for the
// read-path cost counters: one atomic add on the registry series per event,
// callable from any point of any operation, locked or not. Write-path counts
// go through writeTx.count, which a dry run silences.

func (db *DB) countLookup()    { db.m.lookups.Inc() }
func (db *DB) countIdx()       { db.m.indexLookups.Inc() }
func (db *DB) countScan(n int) { db.m.tuplesScanned.Add(int64(n)) }

// countSnapRead counts one lock-free snapshot-pinned read (not part of
// StatsSnapshot, so the wire encoding stays fixed).
func (db *DB) countSnapRead() { db.m.snapshotReads.Inc() }

// countCoAccess counts one co-access edge hit (not part of StatsSnapshot).
func (db *DB) countCoAccess() { db.m.coAccess.Inc() }

// violation counts a rejected mutation and returns the error unchanged, so
// check paths can `return db.violation(&ConstraintViolation{...})`.
func (db *DB) violation(err *ConstraintViolation) error {
	db.m.violations.Inc()
	return err
}

// Registry returns the metrics registry this DB reports into — by default a
// private registry, or the one injected with WithRegistry.
func (db *DB) Registry() *obs.Registry { return db.reg }

// MetricName returns the label value this DB registers its series under.
func (db *DB) MetricName() string { return db.obsName }

// now is indirect for tests; latency histograms observe time.Since(now()).
var now = time.Now
