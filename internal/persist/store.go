// Package persist makes the mapcompd catalog durable: an append-only,
// checksummed write-ahead log of catalog mutations plus periodic
// compacted snapshots, with crash recovery that reconstructs the exact
// pre-crash store — entries, per-name versions, per-entry generations
// and the generation counter.
//
// The design leans on a 1:1 correspondence the catalog guarantees:
// every logged mutation bumps the generation by exactly one, so the
// generation doubles as the log sequence number. A snapshot at
// generation G supersedes every record with gen ≤ G; recovery loads the
// newest snapshot, replays the remaining records through Catalog.Apply
// (re-running its validation), and
// verifies after each replayed record that the catalog reached exactly
// the logged generation — any divergence fails recovery loudly.
//
// Durability contract:
//
//   - AppendMutation runs inside the catalog's write lock immediately
//     before the mutation commits, and fsyncs; once a client sees a
//     generation, that generation survives a crash.
//   - a crash between the WAL append and the in-memory commit leaves a
//     logged-but-unacknowledged mutation; recovery applies it (the log
//     is the source of truth).
//   - batch Apply is one WAL record, so it remains atomic across a
//     crash: after recovery either the whole batch is installed at one
//     generation or none of it.
//   - a torn final record (the crash interrupted the frame write) is
//     detected by the framing checksum and truncated away; corruption
//     anywhere else fails recovery with an error wrapping ErrCorrupt.
//   - snapshots are written to a temp file and renamed, so the previous
//     snapshot survives a crash mid-snapshot; the WAL is only truncated
//     once the covering snapshot is durable.
//
// Derived inverse edges (the catalog's bidirectional graph) are never
// logged or snapshotted: they are a deterministic function of the
// registered mappings, recomputed by the catalog's view builder as
// replay and restore re-install each mapping. The on-disk format is
// therefore identical to a forward-only build, in both directions —
// old logs replay into a bidirectional catalog, and logs written by
// this version load in older builds.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/obs"
	"mapcomp/internal/parser"
)

// Durability timings: the WAL append (write + fsync, the latency every
// catalog mutation pays inside the write lock), the fsync alone (the
// disk's contribution), and whole-snapshot duration. These are the
// signals that tell an operator whether mutation tail latency is the
// disk or the catalog.
var (
	walAppendSeconds = obs.Hist("mapcomp_wal_append_seconds", "")
	walFsyncSeconds  = obs.Hist("mapcomp_wal_fsync_seconds", "")
	snapshotSeconds  = obs.Hist("mapcomp_snapshot_seconds", "")
)

// walFile is the WAL's file name inside the data directory.
const walFile = "wal.log"

// lockFile guards the data directory against concurrent processes.
const lockFile = "LOCK"

// DefaultSnapshotEvery is the automatic snapshot cadence (WAL records
// between snapshot requests) when Options.SnapshotEvery is 0.
const DefaultSnapshotEvery = 64

// Options configures Open.
type Options struct {
	// SnapshotEvery requests an automatic snapshot (via the
	// SnapshotNeeded channel) every N WAL appends. 0 means
	// DefaultSnapshotEvery; negative disables automatic requests —
	// snapshots then happen only through explicit Snapshot calls.
	SnapshotEvery int
}

// RecoveryStats reports what Open found in the data directory.
type RecoveryStats struct {
	// SnapshotGeneration is the generation of the snapshot recovery
	// loaded; 0 when there was none.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Replayed counts WAL records replayed on top of the snapshot.
	Replayed int `json:"replayed"`
	// TornBytesTruncated is the size of the torn final record discarded
	// during recovery, 0 for a clean log.
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Dir string `json:"dir"`
	// Generation is the generation of the last record appended or
	// recovered.
	Generation uint64 `json:"generation"`
	// SnapshotGeneration is the generation covered by the newest
	// durable snapshot.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// WALRecords and WALBytes describe the live WAL file.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Appends and Snapshots count operations by this process.
	Appends   int64 `json:"appends"`
	Snapshots int64 `json:"snapshots"`
	// Recovery reports what Open found.
	Recovery RecoveryStats `json:"recovery"`
}

// Store is the durability backend for one catalog. It implements
// catalog.Logger; attach it with Catalog.SetLogger after Recover. Safe
// for concurrent use.
type Store struct {
	dir           string
	snapshotEvery int

	// snapMu serializes snapshot writers; snapshot disk I/O happens
	// under snapMu alone so appends (and with them catalog mutations)
	// never wait on snapshot fsyncs.
	snapMu sync.Mutex

	mu         sync.Mutex
	wal        *os.File
	lock       *os.File // flock on LOCK, held for the store's lifetime
	broken     error    // set when a failed append could not be rolled back
	lastGen    uint64   // generation of the last appended/recovered record
	snapGen    uint64   // generation covered by the newest snapshot
	walRecords int      // records currently in the WAL file
	walBytes   int64
	appends    int64
	snapshots  int64
	recovered  RecoveryStats

	// pending holds the decoded state between Open and Recover.
	pending *pendingRecovery

	notify chan struct{}
}

type pendingRecovery struct {
	snapshot *snapshotDoc
	records  []record
}

// Open opens (creating if necessary) the data directory, validates the
// WAL — truncating a torn final record, failing loudly on corruption —
// and prepares recovery state. Call Recover next to materialize the
// catalog, then Catalog.SetLogger(store) to resume logging.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: data directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, snapshotEvery: opts.SnapshotEvery, notify: make(chan struct{}, 1)}
	if s.snapshotEvery == 0 {
		s.snapshotEvery = DefaultSnapshotEvery
	}

	// Exclusive advisory lock on the directory: two processes appending
	// to one WAL would interleave generations and wreck recoverability,
	// so a second opener (deploy overlap, accidental double start) must
	// fail fast here. flock is released automatically when the process
	// dies, so a crash never leaves a stale lock behind.
	lock, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("persist: data directory %s is locked by another process: %w", dir, err)
	}
	s.lock = lock
	opened := false
	defer func() {
		if !opened {
			lock.Close() // releases the flock
		}
	}()

	snap, haveSnap, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if haveSnap {
		s.snapGen = snap.Generation
		s.lastGen = snap.Generation
		s.recovered.SnapshotGeneration = snap.Generation
	}

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: reading WAL: %w", err)
	}
	recs, validLen, err := decodeFrames(data)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", walPath, err)
	}
	if validLen < len(data) {
		// Torn tail: drop it physically so the next append starts on a
		// frame boundary.
		if err := os.Truncate(walPath, int64(validLen)); err != nil {
			return nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
		s.recovered.TornBytesTruncated = int64(len(data) - validLen)
	}
	s.walBytes = int64(validLen)
	s.walRecords = len(recs)
	if n := len(recs); n > 0 {
		if recs[n-1].Gen > s.lastGen {
			s.lastGen = recs[n-1].Gen
		}
	}

	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL for append: %w", err)
	}
	s.wal = wal
	s.pending = &pendingRecovery{records: recs}
	if haveSnap {
		s.pending.snapshot = snap
	}
	opened = true
	return s, nil
}

// Recover materializes the recovered state into cat, which must be
// virgin (fresh catalog.New(), no logger): the snapshot is restored
// wholesale, then WAL records after it replay through Catalog.Apply,
// and after every record the catalog generation
// must equal the logged one. Recover consumes the state read by Open
// and can only be called once.
func (s *Store) Recover(cat *catalog.Catalog) error {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	if pending == nil {
		return fmt.Errorf("persist: Recover already ran for %s", s.dir)
	}

	if pending.snapshot != nil {
		if err := restoreSnapshot(pending.snapshot, cat); err != nil {
			return err
		}
	}
	replayed := 0
	for _, rec := range pending.records {
		gen := cat.Generation()
		if rec.Gen <= gen {
			continue // covered by the snapshot
		}
		if rec.Gen != gen+1 {
			return fmt.Errorf("%w: record jumps from generation %d to %d (missing mutations)", ErrCorrupt, gen, rec.Gen)
		}
		if err := replayRecord(rec, cat); err != nil {
			return fmt.Errorf("persist: replaying generation %d: %w", rec.Gen, err)
		}
		if got := cat.Generation(); got != rec.Gen {
			return fmt.Errorf("%w: replaying generation %d left the catalog at %d", ErrCorrupt, rec.Gen, got)
		}
		replayed++
	}
	s.mu.Lock()
	s.recovered.Replayed = replayed
	s.mu.Unlock()
	return nil
}

// replayRecord applies one WAL record through Catalog.Apply, re-running
// its validation.
func replayRecord(rec record, cat *catalog.Catalog) error {
	p, err := parser.Parse(rec.Problem)
	if err != nil {
		return err
	}
	_, err = cat.Apply(p)
	return err
}

// encodeMutation renders a catalog mutation as a WAL record. Replay
// re-parses the task file, so a hand-built problem with a map whose
// endpoint schema it does not declare is refused, not logged unreplayable.
func encodeMutation(m *catalog.Mutation) (record, error) {
	p := m.Problem
	declared := make(map[string]bool, len(p.SchemaOrder))
	for _, name := range p.SchemaOrder {
		declared[name] = true
	}
	for _, name := range p.MapOrder {
		if d := p.Maps[name]; !declared[d.From] || !declared[d.To] {
			return record{}, fmt.Errorf("persist: mapping %s has an endpoint schema the logged problem does not declare", name)
		}
	}
	return record{Gen: m.Gen, Kind: applyKind, Problem: parser.Format(p)}, nil
}

// AppendMutation implements catalog.Logger: it encodes, frames, writes
// and fsyncs the mutation. The catalog calls it inside the write lock
// immediately before committing, so an error here aborts the mutation
// and the log never lags the memory state. When the automatic cadence
// is due it signals SnapshotNeeded (without blocking).
func (s *Store) AppendMutation(m *catalog.Mutation) error {
	rec, err := encodeMutation(m)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: encoding mutation: %w", err)
	}
	frame := encodeFrame(payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil {
		return fmt.Errorf("persist: AppendMutation before Recover")
	}
	if s.wal == nil {
		return fmt.Errorf("persist: store is closed")
	}
	if s.broken != nil {
		return fmt.Errorf("persist: store is failed: %w", s.broken)
	}
	if m.Gen != s.lastGen+1 {
		return fmt.Errorf("persist: mutation generation %d does not follow logged generation %d", m.Gen, s.lastGen)
	}
	start := time.Now()
	if _, err := s.wal.Write(frame); err != nil {
		return s.rollback(fmt.Errorf("persist: appending to WAL: %w", err))
	}
	syncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		return s.rollback(fmt.Errorf("persist: syncing WAL: %w", err))
	}
	now := time.Now()
	walFsyncSeconds.Observe(now.Sub(syncStart))
	walAppendSeconds.Observe(now.Sub(start))
	s.lastGen = m.Gen
	s.walRecords++
	s.walBytes += int64(len(frame))
	s.appends++
	if s.snapshotEvery > 0 && int(s.lastGen-s.snapGen) >= s.snapshotEvery {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// rollback undoes a failed append by truncating the WAL back to its
// pre-append length and syncing the truncation, so a frame the catalog
// rejected can never survive on disk (recovery would otherwise replay
// the rejected mutation — or, after a partial write, the garbage bytes
// would turn the next append into mid-log corruption). If the rollback
// itself fails the store is poisoned: every further append is refused,
// so the catalog stops mutating and the durable log stays a truthful
// prefix of the acknowledged state. Caller holds s.mu.
func (s *Store) rollback(cause error) error {
	if err := s.wal.Truncate(s.walBytes); err != nil {
		s.broken = fmt.Errorf("%v (rollback truncate failed: %v)", cause, err)
		return s.broken
	}
	if err := s.wal.Sync(); err != nil {
		s.broken = fmt.Errorf("%v (rollback sync failed: %v)", cause, err)
		return s.broken
	}
	return cause
}

// SnapshotNeeded signals when the automatic snapshot cadence is due.
// The owner (cmd/mapcompd) drains it from a background goroutine and
// calls Snapshot; the channel has capacity 1, so missed signals
// coalesce.
func (s *Store) SnapshotNeeded() <-chan struct{} { return s.notify }

// Snapshot writes a durable compacted snapshot of cat's current state
// and then truncates the WAL if the snapshot covers every record in it
// (concurrent appends may keep the WAL alive until the next quiet
// snapshot; recovery skips covered records either way). Safe to call
// concurrently with catalog mutations: the snapshot's disk I/O runs
// under its own lock, so appends — which the catalog performs inside
// its write lock — never wait on snapshot fsyncs.
func (s *Store) Snapshot(cat *catalog.Catalog) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	// Read the catalog outside s.mu: mutations hold the catalog lock
	// while appending (catalog.mu → store.mu), so taking the catalog
	// read lock under store.mu would invert the lock order.
	schemas, maps, gen := cat.Snapshot()

	s.mu.Lock()
	covered := gen <= s.snapGen
	closed := s.wal == nil
	s.mu.Unlock()
	if closed || covered {
		// Closed: shutdown raced the cadence goroutine and the final
		// snapshot has already run. Covered: nothing new.
		return nil
	}

	// Slow part — marshal, write, fsync, rename — without s.mu held.
	// snapMu guarantees no other snapshot interleaves, and appends that
	// land meanwhile only make lastGen > gen below, which skips the
	// truncation until the next quiet snapshot.
	snapStart := time.Now()
	if err := writeSnapshotFile(s.dir, buildSnapshot(schemas, maps, gen)); err != nil {
		return err
	}
	snapshotSeconds.Observe(time.Since(snapStart))

	s.mu.Lock()
	s.snapGen = gen
	s.snapshots++
	var truncErr error
	if s.wal != nil && s.lastGen <= gen {
		// Every WAL record is covered by the now-durable snapshot.
		if truncErr = s.wal.Truncate(0); truncErr == nil {
			s.walRecords = 0
			s.walBytes = 0
		}
	}
	s.mu.Unlock()
	if truncErr != nil {
		return fmt.Errorf("persist: truncating compacted WAL: %w", truncErr)
	}
	pruneSnapshots(s.dir)
	return nil
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                s.dir,
		Generation:         s.lastGen,
		SnapshotGeneration: s.snapGen,
		WALRecords:         s.walRecords,
		WALBytes:           s.walBytes,
		Appends:            s.appends,
		Snapshots:          s.snapshots,
		Recovery:           s.recovered,
	}
}

// Close closes the WAL file and releases the data-directory lock. It
// writes nothing — the on-disk state after Close is exactly the state a
// crash would leave — so take a final Snapshot first if you want the
// next boot to skip replay. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.wal != nil {
		err = s.wal.Close()
		s.wal = nil
	}
	if s.lock != nil {
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
		s.lock = nil
	}
	return err
}
